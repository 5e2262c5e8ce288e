/**
 * @file
 * Small sliding-window statistics and the repo's one percentile rule.
 *
 * Two fixed-footprint accumulators:
 *
 *  - WindowedOutcomes: good/bad event counts over a trailing time
 *    window, implemented as a ring of time buckets so old evidence
 *    ages out without per-event allocation or timestamp storage
 *    (circuit breaker, quality-ladder controller).
 *  - QuantileWindow: ring of the last N samples with on-demand
 *    quantile extraction (hedge delay, engine p50/p99).
 *
 * plus sampleQuantile(v, q), the single percentile rule every
 * reported latency statistic uses: the element of rank
 * round(q * (n - 1)), clamped to [0, n - 1], selected with
 * nth_element; 0 when v is empty. At q = 0.5 that rank equals n / 2
 * for every n. (Not named quantile(): perfbench/ brings both tamres
 * and its own interpolating quantile() into scope.)
 *
 * The accumulators do not lock: each is embedded in an owner that
 * already serializes access (the breaker's mutex, the scan fetcher's
 * latency mutex, the engine's mutex). WindowedOutcomes takes time
 * from the caller so the owner's injectable Clock is the single source
 * of truth.
 */

#ifndef TAMRES_UTIL_WINDOWED_HH
#define TAMRES_UTIL_WINDOWED_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace tamres {

/**
 * Good/bad counts over a trailing window of `buckets * bucketWidth`
 * seconds. Each ring slot covers one bucket-width of time and is
 * lazily reset when the clock reaches it again, so recording and
 * querying are O(buckets) worst case with no allocation after
 * construction.
 */
class WindowedOutcomes
{
  public:
    WindowedOutcomes(double window_s, int buckets = 8)
        : bucket_w_(window_s / std::max(1, buckets)),
          ring_(static_cast<size_t>(std::max(1, buckets)))
    {
        tamres_assert(window_s > 0.0, "window must be positive");
    }

    void
    record(double now, bool bad)
    {
        Bucket &b = slotFor(now);
        if (bad)
            b.bad++;
        else
            b.good++;
    }

    /** Events recorded within the trailing window ending at @p now. */
    int64_t
    total(double now) const
    {
        int64_t good = 0, bad = 0;
        sum(now, good, bad);
        return good + bad;
    }

    /** Fraction of in-window events that were bad; 0 when empty. */
    double
    badFraction(double now) const
    {
        int64_t good = 0, bad = 0;
        sum(now, good, bad);
        int64_t n = good + bad;
        return n == 0 ? 0.0 : static_cast<double>(bad) / n;
    }

    /** Drop all evidence (used when a controller changes regime). */
    void
    reset()
    {
        for (Bucket &b : ring_)
            b = Bucket{};
    }

  private:
    struct Bucket
    {
        int64_t index = -1; // absolute bucket index, -1 == never used
        int64_t good = 0;
        int64_t bad = 0;
    };

    int64_t
    indexFor(double now) const
    {
        return static_cast<int64_t>(std::floor(now / bucket_w_));
    }

    Bucket &
    slotFor(double now)
    {
        int64_t idx = indexFor(now);
        Bucket &b = ring_[static_cast<size_t>(idx % static_cast<int64_t>(
                              ring_.size()))];
        if (b.index != idx) {
            b.index = idx;
            b.good = 0;
            b.bad = 0;
        }
        return b;
    }

    void
    sum(double now, int64_t &good, int64_t &bad) const
    {
        int64_t newest = indexFor(now);
        int64_t oldest = newest - static_cast<int64_t>(ring_.size()) + 1;
        for (const Bucket &b : ring_) {
            if (b.index >= oldest && b.index <= newest) {
                good += b.good;
                bad += b.bad;
            }
        }
    }

    double bucket_w_;
    std::vector<Bucket> ring_;
};

/**
 * The q-quantile (0..1) of @p v: the element of rank
 * round(q * (n - 1)), clamped to [0, n - 1]; 0 when @p v is empty.
 * Reorders @p v (nth_element), O(n).
 */
inline double
sampleQuantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    const double last = static_cast<double>(v.size() - 1);
    const auto k = static_cast<std::ptrdiff_t>(
        std::clamp(std::round(q * last), 0.0, last));
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[static_cast<size_t>(k)];
}

/**
 * Ring of the last N samples with on-demand quantile extraction.
 * quantile() copies the retained samples into a scratch buffer and
 * applies sampleQuantile() to it — O(N) per query, fine for the
 * per-fetch and per-stats() cadence it serves.
 */
class QuantileWindow
{
  public:
    explicit QuantileWindow(int capacity)
        : ring_(static_cast<size_t>(std::max(1, capacity)))
    {}

    void
    record(double sample)
    {
        ring_[next_ % ring_.size()] = sample;
        next_++;
    }

    int64_t count() const { return static_cast<int64_t>(retained()); }

    /** sampleQuantile() of the retained samples; 0 when empty. */
    double
    quantile(double q) const
    {
        scratch_.assign(ring_.begin(),
                        ring_.begin() +
                            static_cast<std::ptrdiff_t>(retained()));
        return sampleQuantile(scratch_, q);
    }

    void
    reset()
    {
        next_ = 0;
    }

  private:
    size_t retained() const { return std::min(next_, ring_.size()); }

    std::vector<double> ring_;
    mutable std::vector<double> scratch_;
    size_t next_ = 0;
};

} // namespace tamres

#endif // TAMRES_UTIL_WINDOWED_HH
