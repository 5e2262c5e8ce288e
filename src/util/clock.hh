/**
 * @file
 * Injectable time source for the overload control plane.
 *
 * The circuit breaker's cooldown, the quality controller's dwell
 * timers and the ScanFetcher's retry backoff all reason about
 * elapsed time. Binding them to std::chrono directly would make every
 * state-machine test a sleep-and-hope affair; instead they take a
 * Clock, and tests inject a ManualClock whose time only moves when
 * the test says so — Closed -> Open -> HalfOpen transitions and
 * quality-tier shifts then replay deterministically at any thread
 * count, with zero wall-clock sleeping.
 *
 * Contract: now() is monotone non-decreasing within one clock, in
 * seconds, with an arbitrary epoch (callers only ever difference
 * values from the SAME clock). sleepFor(s) returns after at least s
 * seconds of *that clock's* time have passed: the steady clock really
 * sleeps; the manual clock just advances itself, so a retry backoff
 * under test is charged against deadlines without ever blocking.
 *
 * Three timings are deliberate exceptions, because each races real
 * threads and so must measure real time: the hedge delay (a hedge
 * fires when a fetch exceeds a wall-clock delay), the in-flight bound
 * of a timed fetch (a pool read still running at the stage budget's
 * wall-clock bound is abandoned), and the watchdog supervisor's
 * polling cadence. Tests drive them with real (small) injected
 * latencies rather than a manual clock. The stage budget and the
 * watchdog's liveness budget themselves are measured on the injected
 * clock.
 */

#ifndef TAMRES_UTIL_CLOCK_HH
#define TAMRES_UTIL_CLOCK_HH

#include <mutex>

namespace tamres {

/** Monotonic seconds + sleep, injectable for deterministic tests. */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Monotonic seconds since an arbitrary per-clock epoch. */
    virtual double now() const = 0;

    /** Block until at least @p seconds of this clock have elapsed. */
    virtual void sleepFor(double seconds) = 0;

    /** The process-wide real (steady_clock-backed) clock. */
    static Clock &steady();
};

/**
 * A clock tests drive by hand. now() returns the value last set;
 * sleepFor(s) atomically advances it by s (so code that "sleeps" on a
 * manual clock consumes virtual time instantly). Thread-safe: decode
 * workers may advance() and read concurrently with the test thread.
 */
class ManualClock : public Clock
{
  public:
    explicit ManualClock(double start = 0.0) : now_(start) {}

    double
    now() const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        return now_;
    }

    void
    sleepFor(double seconds) override
    {
        if (seconds > 0.0)
            advance(seconds);
    }

    /** Move time forward by @p seconds (never backward). */
    void
    advance(double seconds)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (seconds > 0.0)
            now_ += seconds;
    }

  private:
    mutable std::mutex mu_;
    double now_;
};

} // namespace tamres

#endif // TAMRES_UTIL_CLOCK_HH
