/**
 * @file
 * Small sliding-window statistics for overload control.
 *
 * Three fixed-footprint accumulators used by the circuit breaker and
 * the quality-ladder controller:
 *
 *  - WindowedOutcomes: good/bad event counts over a trailing time
 *    window, implemented as a ring of time buckets so old evidence
 *    ages out without per-event allocation or timestamp storage.
 *  - Ewma: exponentially-weighted moving average (latency smoothing).
 *  - QuantileWindow: ring of the last N samples with on-demand
 *    quantile extraction (hedge-delay tracking).
 *
 * None of these lock: each is embedded in an owner that already
 * serializes access (the breaker's mutex, the scan fetcher's latency
 * mutex). Time is passed in by the caller so the owner's injectable
 * Clock is the single source of truth.
 */

#ifndef TAMRES_UTIL_WINDOWED_HH
#define TAMRES_UTIL_WINDOWED_HH

#include <algorithm>
#include <cmath>
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

/** Exponentially-weighted moving average; first sample seeds it. */
class Ewma
{
  public:
    explicit Ewma(double alpha) : alpha_(alpha) {}

    void
    record(double sample)
    {
        value_ = seeded_ ? (1.0 - alpha_) * value_ + alpha_ * sample
                         : sample;
        seeded_ = true;
    }

    double value() const { return seeded_ ? value_ : 0.0; }
    bool seeded() const { return seeded_; }

    void
    reset()
    {
        seeded_ = false;
        value_ = 0.0;
    }

  private:
    double alpha_;
    double value_ = 0.0;
    bool seeded_ = false;
};

/**
 * Ring of the last N samples with on-demand quantile extraction.
 * quantile() copies into a scratch buffer and nth_elements it —
 * O(N) per query, fine for the per-fetch cadence it serves.
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

    int64_t count() const
    {
        return std::min<int64_t>(next_,
                                 static_cast<int64_t>(ring_.size()));
    }

    /** The q-quantile (0..1) of retained samples; 0 when empty. */
    double
    quantile(double q) const
    {
        size_t n = static_cast<size_t>(count());
        if (n == 0)
            return 0.0;
        scratch_.assign(ring_.begin(),
                        ring_.begin() + static_cast<ptrdiff_t>(n));
        size_t k = static_cast<size_t>(
            std::min<double>(n - 1, std::max(0.0, q * (n - 1))));
        std::nth_element(scratch_.begin(),
                         scratch_.begin() + static_cast<ptrdiff_t>(k),
                         scratch_.end());
        return scratch_[k];
    }

    void
    reset()
    {
        next_ = 0;
    }

  private:
    std::vector<double> ring_;
    mutable std::vector<double> scratch_;
    int64_t next_ = 0;
};

} // namespace tamres

#endif // TAMRES_UTIL_WINDOWED_HH
