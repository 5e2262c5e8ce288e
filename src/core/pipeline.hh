/**
 * @file
 * Static and dynamic inference pipelines (paper Section IV) and the
 * evaluation harnesses behind Figures 8/9 and Tables III/IV.
 *
 * The dynamic pipeline implements Figure 4: an image is stored
 * progressively; the first scans are read and decoded into a 112-class
 * preview; the scale model picks the inference resolution; additional
 * scans are read only if the calibrated policy for that resolution
 * needs them; the backbone then runs at the chosen resolution. The
 * per-request flow is StagedServingEngine (core/staged_engine.hh).
 */

#ifndef TAMRES_CORE_PIPELINE_HH
#define TAMRES_CORE_PIPELINE_HH

#include <vector>

#include "core/calibration.hh"
#include "core/scale_model.hh"
#include "nn/builders.hh"
#include "sim/accuracy_model.hh"
#include "storage/object_store.hh"

namespace tamres {

/** The paper's resolution grid. */
const std::vector<int> &paperResolutions();

/**
 * Backbone compute cost (GFLOPs = 1e9 MACs, the paper's convention)
 * at a given square input resolution, from the real graph. Cached.
 */
double backboneGflops(BackboneArch arch, int resolution);

/** Scale-model compute cost: MobileNetV2 at 112 (paper: ~0.08). */
double scaleModelGflops();

/** Aggregate outcome of an accuracy/efficiency evaluation. */
struct PipelineResult
{
    double accuracy = 0.0;
    double mean_gflops = 0.0;      //!< per-image compute cost
    double mean_read_fraction = 1.0; //!< bytes read / full read
};

/**
 * Static baseline for Figures 8/9: fixed resolution, full-quality
 * reads.
 */
PipelineResult evalStatic(const SyntheticDataset &dataset, int first,
                          int last, const BackboneAccuracyModel &model,
                          int resolution, double crop_area);

/**
 * Dynamic pipeline for Figures 8/9: the scale model chooses the
 * resolution per image from a preview.
 *
 * @param preview_side rendering budget for the preview source pixels.
 * @param chosen_hist  optional out-histogram over resolution indices.
 */
PipelineResult evalDynamic(const SyntheticDataset &dataset, int first,
                           int last, const BackboneAccuracyModel &model,
                           const ScaleModel &scale, double crop_area,
                           int preview_side = 224,
                           std::vector<int> *chosen_hist = nullptr);

/**
 * The measured twin of evalDynamic: every eval image is progressively
 * ENCODED into an ObjectStore and served through the staged engine —
 * ranged preview read, resumable partial decode, scale-model decision,
 * ranged remaining-scan read — so the resolution choices and the
 * bytes-read fraction come from the real request flow instead of the
 * analytic shortcut. Accuracy and GFLOPs are still scored with the
 * calibrated models per decision (the backbone's accuracy is modeled,
 * not trained), which is exactly what makes evalDynamic a cross-check
 * for this path: both must agree wherever the analytic preview
 * rendering matches the decoded preview. Reads follow an
 * uncalibrated monotone schedule (one extra scan per grid step above
 * the preview); the SSIM-calibrated byte counts are
 * evalDynamicStorage's job.
 *
 * @param preview_scans scans fetched for the preview (Section VII-b).
 * @param backbone      optional graph for the batched backbone stage;
 *                      null measures the decision + byte flow only.
 */
PipelineResult evalDynamicStaged(const SyntheticDataset &dataset,
                                 int first, int last,
                                 const BackboneAccuracyModel &model,
                                 const ScaleModel &scale,
                                 double crop_area,
                                 int preview_side = 224,
                                 int preview_scans = 2,
                                 std::vector<int> *chosen_hist = nullptr,
                                 Graph *backbone = nullptr);

/** One row of Tables III/IV: default vs. calibrated reads. */
struct StorageRow
{
    double accuracy_default = 0.0;    //!< reading all bytes
    double accuracy_calibrated = 0.0; //!< reading per calibrated policy
    double read_fraction = 1.0;       //!< mean calibrated read size

    double savingsPercent() const { return (1.0 - read_fraction) * 100; }
};

/** Static-resolution storage row (Tables III/IV per-resolution rows). */
StorageRow evalStaticStorage(const QualityTable &table,
                             const SyntheticDataset &dataset,
                             const BackboneAccuracyModel &model,
                             int res_idx, const StoragePolicy &policy,
                             double crop_area,
                             const EvalPopulation &pop = {});

/**
 * Dynamic-pipeline storage row (Tables III/IV "dynamic" rows): scans
 * for the 112 preview are read first, the scale model picks the
 * resolution from the decoded preview, and only the incremental scans
 * the calibrated policy requires are fetched. Bytes are measured from
 * the actual encoded images.
 *
 * @param preview_scans when > 0, fetch exactly this many scans for
 *        the preview instead of the backbone-at-112 policy's demand —
 *        the Section VII-b extension that breaks the 112-read lower
 *        bound on dynamic savings (calibrate with
 *        calibratePreviewScans).
 */
StorageRow evalDynamicStorage(const QualityTable &table,
                              const SyntheticDataset &dataset,
                              const BackboneAccuracyModel &model,
                              const ScaleModel &scale,
                              const StoragePolicy &policy,
                              double crop_area,
                              const EvalPopulation &pop = {},
                              int preview_scans = -1);

/** Calibrated preview read depth for the scale model (Section VII-b). */
struct PreviewPolicy
{
    int scans = 0;          //!< scans to fetch for the preview
    double agreement = 1.0; //!< decision agreement vs. a full preview
};

/**
 * Fraction of calibration images whose scale-model decision at each
 * scan depth k (1-based; index k-1) matches the full-fidelity
 * preview's decision. One render+encode pass per image.
 */
std::vector<double> previewAgreementByDepth(
    const QualityTable &table, const SyntheticDataset &dataset,
    const ScaleModel &scale, double crop_area);

/**
 * Smallest scan count whose scale-model decisions agree with the
 * full-fidelity preview's decisions on at least @p min_agreement of
 * the calibration images. Object scale is a low-frequency property,
 * so this typically lands at 1-2 scans — below the backbone's own
 * 112-policy demand, unlocking further dynamic read savings.
 */
PreviewPolicy calibratePreviewScans(const QualityTable &table,
                                    const SyntheticDataset &dataset,
                                    const ScaleModel &scale,
                                    double crop_area,
                                    double min_agreement = 0.95);

} // namespace tamres

#endif // TAMRES_CORE_PIPELINE_HH
