/**
 * @file
 * Measured (scan-count x resolution) -> SSIM / read-fraction tables.
 *
 * For every image we progressively encode it once, then for each scan
 * prefix k and each inference resolution r compute the SSIM between the
 * k-scan decode resized to r and the full decode resized to r, plus the
 * fraction of encoded bytes the prefix costs. Every storage number in
 * the experiments (Fig. 6, Tables III/IV) is derived from these
 * measured tables — nothing is assumed about the codec's rate/quality
 * behaviour.
 *
 * Images build in parallel, one per pool thread, and each SSIM streams
 * its blur row by row (image/metrics.hh), so no thread holds per-image
 * full-plane buffers beyond the decodes themselves. Every entry is
 * bitwise independent of the thread count. In builds without FMA code
 * generation (the default portable build, not TAMRES_NATIVE=ON) the
 * SSIM of two given decodes is also bitwise independent of the SIMD
 * level.
 */

#ifndef TAMRES_CORE_QUALITY_TABLE_HH
#define TAMRES_CORE_QUALITY_TABLE_HH

#include <vector>

#include "sim/dataset.hh"

namespace tamres {

/** Per-image quality/rate table. */
struct ImageQuality
{
    uint64_t id = 0;
    int num_scans = 0;
    std::vector<double> read_fraction; //!< [k]: bytes(k) / bytes(all)
    /** [k * num_res + r]: SSIM of k-scan decode at resolution r. */
    std::vector<double> ssim;

    double
    ssimAt(int scans, int res_idx, int num_res) const
    {
        return ssim[static_cast<size_t>(scans) * num_res + res_idx];
    }
};

/** Quality/rate tables for a dataset slice at a fixed resolution grid. */
class QualityTable
{
  public:
    /**
     * Build tables for images [first, last) of @p dataset, evaluating
     * SSIM at each of @p resolutions, with the dataset's default
     * codec configuration. Each image is rendered and encoded once.
     */
    QualityTable(const SyntheticDataset &dataset, int first, int last,
                 std::vector<int> resolutions);

    /**
     * As above with an explicit codec configuration; must match the
     * configuration the backing ObjectStore was ingested with for the
     * read fractions to be meaningful.
     */
    QualityTable(const SyntheticDataset &dataset, int first, int last,
                 std::vector<int> resolutions,
                 const ProgressiveConfig &cfg);

    const std::vector<int> &resolutions() const { return resolutions_; }
    int numImages() const { return static_cast<int>(entries_.size()); }
    int numScans() const { return num_scans_; }

    /** Table for the i-th image of the slice. */
    const ImageQuality &entry(int i) const { return entries_.at(i); }

    /** Index of the dataset record backing entry @p i. */
    int recordIndex(int i) const { return first_ + i; }

    /**
     * Minimum scan count whose SSIM at resolution index @p res_idx
     * reaches @p threshold (all scans when never reached).
     */
    int scansForThreshold(int i, int res_idx, double threshold) const;

  private:
    int first_;
    int num_scans_ = 0;
    std::vector<int> resolutions_;
    std::vector<ImageQuality> entries_;
};

} // namespace tamres

#endif // TAMRES_CORE_QUALITY_TABLE_HH
