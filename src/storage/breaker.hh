/**
 * @file
 * Circuit breaker for the storage tier.
 *
 * BreakerObjectStore wraps any ObjectStore (including a
 * FaultyObjectStore) and watches the health of its fetchScanRange
 * deliveries: the failure rate over a trailing time window. When the
 * tier is sick it stops sending fetches at all — callers get an
 * immediate Error{Transient} with failFast() set, so
 * the staged engine's retry loop degrades the request NOW instead of
 * burning its deadline on backoff sleeps toward a store that is known
 * to be down. That is the fleet-level half of PR 6's per-request
 * story: one request discovers the outage, every other request is
 * spared rediscovering it.
 *
 * State machine (standard three-state breaker):
 *
 *   Closed   — all traffic passes; outcomes recorded. When the window
 *              holds >= min_samples and the failure fraction crosses
 *              failure_threshold, trip to Open.
 *   Open     — every fetch fails fast without touching the base store.
 *              After cooldown_s of the injected clock, the next fetch
 *              is admitted as a probe (lazy transition to HalfOpen —
 *              there is no background thread).
 *   HalfOpen — at most half_open_probes fetches are in flight as
 *              probes; the rest still fail fast. close_after
 *              consecutive probe successes close the breaker (window
 *              reset, clean slate); any probe failure re-opens it and
 *              restarts the cooldown.
 *
 * What counts as a failure: an Error{Transient} thrown by the base
 * store, or a short delivery (fewer bytes appended than the clean
 * range size — a truncated read the decoder will reject). NotFound
 * passes through un-counted: a missing object is a data error, not a
 * sign the tier is unhealthy. Injected corruption is invisible at this
 * layer by design — it is detected by the decoder's CRC check, and the
 * engine's trim-and-refetch shows up here as extra (successful)
 * fetches, which is the honest signal.
 *
 * Only fetchScanRange is overridden, mirroring FaultyObjectStore: it
 * is the ONE read primitive of the unified ObjectStore API, so the
 * breaker's verdicts guard every read. Metadata access (peek) stays
 * unguarded: it moves no payload bytes.
 *
 * All time comes from an injectable Clock so the state machine is
 * deterministic under test (a ManualClock advances cooldowns without
 * sleeping). stats() returns the base store's accounting merged with
 * this wrapper's breaker counters.
 */

#ifndef TAMRES_STORAGE_BREAKER_HH
#define TAMRES_STORAGE_BREAKER_HH

#include <cstdint>

#include "storage/object_store.hh"
#include "util/clock.hh"
#include "util/windowed.hh"

namespace tamres {

/** Knobs for BreakerObjectStore. Defaults suit the chaos benches. */
struct BreakerConfig
{
    double window_s = 1.0;           //!< failure-rate window length
    int min_samples = 8;             //!< evidence needed before tripping
    double failure_threshold = 0.5;  //!< trip when bad fraction >= this
    double cooldown_s = 0.25;        //!< Open dwell before probing
    int half_open_probes = 2;        //!< max concurrent HalfOpen probes
    int close_after = 3;             //!< probe successes to close

    Clock *clock = nullptr;          //!< nullptr -> Clock::steady()
};

enum class BreakerState : int
{
    Closed = 0,
    Open,
    HalfOpen,
};

/** Short stable name ("closed", "open", "half-open"). */
const char *breakerStateName(BreakerState state);

/** Snapshot of the breaker's health and transition counters. */
struct BreakerStats
{
    BreakerState state = BreakerState::Closed;
    uint64_t trips = 0;          //!< Closed/HalfOpen -> Open edges
    uint64_t fast_fails = 0;     //!< fetches rejected without I/O
    uint64_t probes = 0;         //!< fetches admitted while HalfOpen
    uint64_t probe_failures = 0; //!< probes that failed (re-opened)
    uint64_t closes = 0;         //!< HalfOpen -> Closed edges
    double failure_rate = 0;     //!< windowed bad fraction right now
};

/**
 * ObjectStore decorator that fail-fasts fetches when the inner store
 * is unhealthy. Thread-safe to the same degree as the base store;
 * state transitions sit behind one mutex that is NOT held across the
 * base fetch, so healthy traffic runs at full concurrency.
 *
 * Does not own the base store; it must outlive the wrapper.
 */
class BreakerObjectStore : public ObjectStore
{
  public:
    BreakerObjectStore(ObjectStore &base, BreakerConfig config);

    // Structural + pass-through surface.
    void put(uint64_t id, EncodedImage image) override;
    bool contains(uint64_t id) const override;
    uint64_t storedBytes() const override;
    size_t size() const override;
    const EncodedImage &peek(uint64_t id) const override;
    ReadStats stats() const override;
    void resetStats() override;
    ObjectStore &root() override { return base_->root(); }

    /** The guarded path: fail fast when Open, probe when HalfOpen. */
    size_t fetchScanRange(uint64_t id, int from_scans, int to_scans,
                          std::vector<uint8_t> &dst, bool charge_full,
                          size_t max_bytes = SIZE_MAX,
                          const CancelToken *cancel = nullptr) override;

    /** Current state (racy snapshot; exact under external quiesce). */
    BreakerState state() const;

    /** Health + transition counters (racy snapshot, like state()). */
    BreakerStats breakerStats() const;

    const BreakerConfig &config() const { return cfg_; }

  private:
    /**
     * Gate one fetch: returns true when it may proceed (and whether it
     * counts as a HalfOpen probe), throws fail-fast Transient when not.
     */
    bool admit(double now, bool &is_probe);

    /** Record one admitted fetch's outcome and run the trip logic. */
    void settle(double now, bool is_probe, bool failed);

    ObjectStore *base_;
    BreakerConfig cfg_;
    Clock *clock_;

    mutable std::mutex mu_; //!< guards everything below
    BreakerState state_ = BreakerState::Closed;
    double opened_at_ = 0;      //!< clock time of the last trip
    int probes_in_flight_ = 0;  //!< admitted, un-settled probes
    int probe_successes_ = 0;   //!< consecutive, since HalfOpen entry
    WindowedOutcomes window_;
    BreakerStats counters_;     //!< state/rate fields filled on read
};

} // namespace tamres

#endif // TAMRES_STORAGE_BREAKER_HH
