/**
 * @file
 * Cooperative cancellation/deadline token for the request lifecycle.
 *
 * A CancelToken travels with a request from submit() to its terminal
 * state. It can fire for four reasons — the client gave up (Client),
 * the request's absolute deadline passed on the injectable Clock
 * (Deadline), the serving watchdog flagged the worker holding it
 * (Watchdog), or a timed fetch abandoned the I/O carrying it
 * (Abandoned) — and every long-running stage of the pipeline polls it
 * at its own clean boundary:
 *
 *   - ObjectStore::fetchScanRange between per-scan delivery chunks;
 *   - ProgressiveDecoder between scans (never inside one — a scan is
 *     the atomic decode unit, so cancellation can only land on a
 *     prefix that is bit-identical to a clean decode of that depth);
 *   - StagedServingEngine between stages and before batch formation.
 *
 * The reason decides the throw and therefore the terminal: Client and
 * Deadline raise ErrorKind::Cancelled, which the engine maps to the
 * Cancelled / Expired terminals and never retries. Watchdog and
 * Abandoned raise a fail-fast Transient — "this operation was
 * abandoned by supervision" — which drops straight into the existing
 * retry/degrade ladder (no backoff sleep) and, on the storage path,
 * is counted by the circuit breaker like any other tier failure.
 *
 * Firing is one-way and first-reason-wins. A token armed with a
 * deadline fires lazily: reason() consults the clock, so a ManualClock
 * drives deadline expiry deterministically in tests.
 */

#ifndef TAMRES_UTIL_CANCEL_HH
#define TAMRES_UTIL_CANCEL_HH

#include <atomic>
#include <limits>
#include <string>

#include "util/clock.hh"
#include "util/error.hh"

namespace tamres {

/** Why a CancelToken fired (None = it has not). */
enum class CancelReason : int
{
    None = 0,  //!< not fired
    Client,    //!< caller invoked cancel(); maps to terminal Cancelled
    Deadline,  //!< absolute deadline passed; maps to terminal Expired
    Watchdog,  //!< supervisor flagged the worker; degrade fail-fast
    Abandoned, //!< timed fetch gave up on this I/O; retry ladder
};

/** Short stable name for a CancelReason ("client", "deadline", ...). */
inline const char *
cancelReasonName(CancelReason reason)
{
    switch (reason) {
      case CancelReason::None: return "none";
      case CancelReason::Client: return "client";
      case CancelReason::Deadline: return "deadline";
      case CancelReason::Watchdog: return "watchdog";
      case CancelReason::Abandoned: return "abandoned";
    }
    return "?";
}

/**
 * One-way cancellation flag + optional absolute deadline.
 *
 * Thread-safety: cancel()/cancelled()/reason()/fired()/throwIfFired()
 * are safe from any thread. armDeadline()/reset() are setup-phase
 * calls: they must be published to readers by some external
 * happens-before edge (the engine arms the token in submit() under
 * its queue mutex before any worker can see the request).
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /**
     * Arm the deadline: the token fires with CancelReason::Deadline
     * once @p clock .now() >= @p deadline_abs_s. The clock must
     * outlive the token's last reader.
     */
    void
    armDeadline(const Clock &clock, double deadline_abs_s)
    {
        clock_ = &clock;
        deadline_abs_s_ = deadline_abs_s;
    }

    /** Disarm and clear, so a request object can be resubmitted. */
    void
    reset()
    {
        reason_.store(0, std::memory_order_relaxed);
        clock_ = nullptr;
        deadline_abs_s_ = std::numeric_limits<double>::infinity();
    }

    /** Fire the token. First reason wins; later calls are no-ops. */
    void
    cancel(CancelReason reason = CancelReason::Client)
    {
        int expected = 0;
        reason_.compare_exchange_strong(expected,
                                        static_cast<int>(reason),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed);
    }

    /** True iff cancel() was called (deadline expiry not included). */
    bool
    cancelled() const
    {
        return reason_.load(std::memory_order_acquire) != 0;
    }

    /**
     * Why the token has fired, or None. An explicitly set reason wins
     * over deadline expiry; an armed, past deadline reports Deadline.
     */
    CancelReason
    reason() const
    {
        const int r = reason_.load(std::memory_order_acquire);
        if (r != 0)
            return static_cast<CancelReason>(r);
        if (clock_ != nullptr && clock_->now() >= deadline_abs_s_)
            return CancelReason::Deadline;
        return CancelReason::None;
    }

    /** True once the token has fired for any reason. */
    bool fired() const { return reason() != CancelReason::None; }

    /** Absolute deadline in the armed clock's units (+inf = unarmed). */
    double deadlineAbs() const { return deadline_abs_s_; }

    /**
     * Throw the reason-mapped Error if fired, else return.
     *
     *   Client, Deadline   -> Error{Cancelled}: the request is over;
     *                         never retried, mapped to a terminal.
     *   Watchdog, Abandoned-> Error{Transient, fail_fast}: this
     *                         *operation* was abandoned by
     *                         supervision; the retry ladder skips its
     *                         backoff and degrades, and the breaker
     *                         counts it as a tier failure.
     */
    void
    throwIfFired() const
    {
        const CancelReason r = reason();
        switch (r) {
          case CancelReason::None:
            return;
          case CancelReason::Client:
          case CancelReason::Deadline:
            throw Error(ErrorKind::Cancelled,
                        std::string("request cancelled (") +
                            cancelReasonName(r) + ")");
          case CancelReason::Watchdog:
          case CancelReason::Abandoned:
            throw Error(ErrorKind::Transient,
                        std::string("operation abandoned by "
                                    "supervision (") +
                            cancelReasonName(r) + ")",
                        /*fail_fast=*/true);
        }
    }

  private:
    std::atomic<int> reason_{0};
    const Clock *clock_ = nullptr;
    double deadline_abs_s_ = std::numeric_limits<double>::infinity();
};

} // namespace tamres

#endif // TAMRES_UTIL_CANCEL_HH
