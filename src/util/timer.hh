/**
 * @file
 * Wall-clock timing helpers used by the autotuner and the benchmark
 * harnesses.
 */

#ifndef TAMRES_UTIL_TIMER_HH
#define TAMRES_UTIL_TIMER_HH

#include <chrono>
#include <functional>
#include <vector>

#include "util/windowed.hh"

namespace tamres {

/** Monotonic stopwatch. */
class Timer
{
  public:
    Timer() { reset(); }

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    /** Milliseconds elapsed. */
    double millis() const { return seconds() * 1e3; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/**
 * Run @p fn @p reps times and return the median wall-clock seconds of a
 * single run. One untimed warmup run is performed first.
 */
inline double
medianRunSeconds(const std::function<void()> &fn, int reps = 3)
{
    fn(); // warmup
    std::vector<double> samples;
    samples.reserve(reps);
    for (int i = 0; i < reps; ++i) {
        Timer t;
        fn();
        samples.push_back(t.seconds());
    }
    return sampleQuantile(samples, 0.5);
}

} // namespace tamres

#endif // TAMRES_UTIL_TIMER_HH
