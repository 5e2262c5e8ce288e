/**
 * @file
 * StagedServingEngine: the measured realization of the paper's
 * Figure-4 dynamic pipeline as a multi-stage serving engine.
 *
 * A request enters as a stored object id — *encoded progressive
 * bytes* in an ObjectStore — and flows through the staged lifecycle:
 *
 *   1. partial decode:   one ranged read fetches every scan ALL
 *                        decisions need (the decision floor, at
 *                        least the preview scans) and a resumable
 *                        ProgressiveDecoder decodes only the preview
 *                        scans; the rest stay held, undecoded;
 *   2. preview + scale:  the decoded preview (cropped + resized) runs
 *                        through the scale model;
 *   3. decision:         the scale model's resolution, capped by
 *                        the quality tier the request was formed at
 *                        (core/quality_ladder.hh) — under load the
 *                        decision stage itself sheds resolution;
 *   4. remaining decode: the SAME decoder resumes through the held
 *                        scans, and a second ranged read fetches
 *                        exactly the additional scans the chosen
 *                        resolution needs — none when the floor
 *                        covers them; no preview work is redone;
 *   5. batched backbone: the prepared input is submitted to an inner
 *                        ServingEngine, which batches same-shaped
 *                        requests dynamically and keeps the
 *                        zero-alloc / zero-pack steady state.
 *
 * Stages 1-4 run on a pool of decode workers with per-stage batching
 * (a worker drains up to decode_batch requests per wakeup); stage 5
 * is the unmodified ServingEngine, so every guarantee it makes
 * (per-item bit-identity, shared prepacks, steady-state zero
 * allocation) carries over to the staged backbone stage.
 *
 * Threading/lifetime contract (see also engine.hh): the ObjectStore,
 * ScaleModel, backbone Graph and the config's policy callbacks must
 * outlive the engine. While serving, ObjectStore::put, ANY external
 * use of the scale model (its forward pass reuses internal buffers;
 * the decode workers serialize their own use), and structural Graph
 * mutations are ILLEGAL; ranged reads, stats() and
 * Graph::invalidatePlans() are legal. Each StagedRequest is
 * caller-owned and must stay alive until terminal (wait() blocks for
 * that).
 *
 * A null backbone runs the engine in decision-only mode: requests
 * complete after stage 4 with resolution / scans / bytes filled in —
 * what the calibration and figure harnesses use to *measure* the
 * decision + byte flow without paying for backbone inference whose
 * accuracy is modeled analytically anyway.
 *
 * Fault tolerance: stages 1 and 4 read through a ScanFetcher
 * (storage/scan_fetcher.hh: retry, hedged reads, timed abandonment).
 * When it gives up the request DEGRADES to the scan depth already
 * decoded, bit-identical to a clean decode of that prefix.
 * Unrecoverable faults (NotFound, mid-scan Decode damage, or no
 * decodable scan at all) end Failed. Worker threads contain every
 * request-scoped throw: one poisoned request never stalls its batch
 * or kills a worker, and every admitted request reaches a terminal.
 *
 * Overload control (OverloadConfig; narrative in docs/robustness.md)
 * adds three fleet-level defenses. (1) A BreakerObjectStore
 * (storage/breaker.hh) fail-fasts fetches while the storage tier is
 * sick; the fetcher then degrades without a backoff sleep. (2) Hedged
 * reads (HedgeConfig, run by the fetcher). (3) A quality-tier ladder
 * (core/quality_ladder.hh) picks each request's tier once, at
 * formation, from decode-queue depth and the windowed terminal
 * outcomes: it caps preview/scan depth and the decided resolution
 * (fixed-resolution mode too), stamps the backbone int8, and at a
 * non-admitting tier REJECTS submissions with the typed Rejected
 * terminal. It is the only shedding controller a request meets: the
 * inner backbone ladder must be empty.
 *
 * Lifecycle supervision (narrative in docs/robustness.md): every
 * request carries a cooperative CancelToken (util/cancel.hh) armed
 * with its absolute deadline and fired by cancel(). The store polls
 * it between delivery chunks, the decoder between scans and the
 * engine between stages, so a client hangup ends Cancelled and
 * mid-pipeline expiry ends Expired — always on a clean scan boundary,
 * bit-identical to a clean decode of that prefix. A Watchdog
 * (util/watchdog.hh) fail-fasts any request holding a decode worker
 * silent past the liveness budget. Terminal conservation: see
 * StagedStats.
 */

#ifndef TAMRES_CORE_STAGED_ENGINE_HH
#define TAMRES_CORE_STAGED_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/engine.hh"
#include "core/quality_ladder.hh"
#include "core/scale_model.hh"
#include "storage/decode_cache.hh"
#include "storage/object_store.hh"
#include "storage/scan_fetcher.hh"
#include "util/cancel.hh"
#include "util/clock.hh"
#include "util/watchdog.hh"

namespace tamres {

/**
 * Staged request states (terminal: Done, Degraded, Shed, Expired,
 * Failed, Rejected, Cancelled).
 */
enum class StagedState : int
{
    Idle = 0,   //!< never submitted (or reset for reuse)
    Queued,     //!< admitted, waiting for a decode worker
    Submitted,  //!< decode + decision done; in the backbone stage
    Done,       //!< served at the intended scan depth
    Shed,       //!< rejected at admission (either stage's queue full)
    Expired,    //!< deadline passed before a stage could serve it
    Degraded,   //!< served at a REDUCED scan depth after fetch faults
    Failed,     //!< unrecoverable fault; output fields are NOT valid
    Rejected,   //!< refused by a non-admitting ladder tier
    Cancelled,  //!< client cancel()ed; output fields are NOT valid
};

/**
 * One caller-owned staged request. Fill id (a stored object) and
 * optionally deadline_s before submit(); the engine fills the rest.
 * Reusable across submissions; reusing the same object keeps the
 * backbone stage's steady-state path allocation-free (the inner
 * request's input/output tensors are recycled when shapes repeat).
 */
struct StagedRequest
{
    uint64_t id = 0;         //!< object id in the engine's store
    double deadline_s = 0.0; //!< seconds after submit; 0 = none

    int resolution = 0;       //!< decided square backbone resolution
    int resolution_index = 0; //!< index into engine resolutions()
    int preview_scans = 0;    //!< scans decoded for the preview
    int scans_read = 0;       //!< total scans DECODED and served at
    int scans_intended = 0;   //!< scans the decision wanted
    size_t bytes_read = 0;    //!< total bytes fetched (both ranges)
    int retries = 0;          //!< fetch attempts beyond the first
    int hedges = 0;           //!< backup fetches issued for this request
    double decode_s = 0.0;    //!< submit -> backbone-stage handoff
    double latency_s = 0.0;   //!< submit -> terminal

    /** Inner backbone-stage request; output lives in infer.output. */
    InferenceRequest infer;

    std::atomic<int> state{static_cast<int>(StagedState::Idle)};

    StagedState
    stateNow() const
    {
        return static_cast<StagedState>(
            state.load(std::memory_order_acquire));
    }

  private:
    friend class StagedServingEngine;
    double submit_s_ = 0.0;
    /**
     * The request's cooperative cancellation/deadline token: armed at
     * submit() with the absolute deadline on the engine clock, fired
     * by StagedServingEngine::cancel() or the watchdog, polled by the
     * store / decoder / stage boundaries all the way down.
     */
    CancelToken cancel_;
};

/**
 * Worker-liveness supervision policy (the engine-side face of
 * util/watchdog.hh). Decode workers heartbeat at stage boundaries and
 * per retry attempt; a busy worker silent past liveness_budget_s is
 * flagged — the engine warn()s a per-request diagnostic dump, bumps
 * watchdog_flags, and fail-fasts the stuck request by firing its
 * CancelToken with CancelReason::Watchdog (the request degrades to
 * its decoded prefix or Fails; the worker is freed at the next token
 * poll). Budget time comes from the engine clock so tests drive
 * expiry with a ManualClock; the supervisor thread's cadence is
 * wall-clock by necessity.
 */
struct SupervisionConfig
{
    bool enable = false;
    double liveness_budget_s = 1.0; //!< max silence for a busy worker
    double poll_interval_s = 0.01;  //!< wall-clock supervisor cadence
};

/** The staged engine's overload-control knobs (see file docs). */
struct OverloadConfig
{
    HedgeConfig hedge;
    QualityWindowConfig quality_window; //!< outcome signal of the ladder
    SupervisionConfig watchdog;

    /**
     * Time source for deadlines, retry backoff, and ladder dwell —
     * nullptr means Clock::steady(); tests inject a ManualClock. Hedge
     * timing deliberately stays wall-clock (see HedgeConfig).
     */
    Clock *clock = nullptr;
};

/** Staged engine construction parameters. */
struct StagedEngineConfig
{
    int preview_scans = 2;   //!< default scans decoded for stage 1
    double crop_area = 1.0;  //!< center-crop fraction before resizing
    int decode_workers = 1;  //!< stage 1-4 worker threads
    int decode_batch = 4;    //!< requests a worker drains per wakeup
    int queue_capacity = 256; //!< bounded admission for stage 1

    /**
     * When > 0, skip the scale model and serve every request at this
     * resolution — the measured static baseline through the exact
     * same staged machinery (full-prefix read unless scan_depth says
     * otherwise).
     */
    int fixed_resolution = 0;

    /** Per-object preview depth; overrides preview_scans when set. */
    std::function<int(uint64_t id)> preview_depth;

    /**
     * Total scans the chosen resolution needs for object @p id
     * (e.g. a calibrated storage policy); null reads every scan. The
     * engine never reads fewer scans than the preview decodes. Its
     * minimum over the grid is the decision floor stage 1 reads up
     * to, so it is called once per grid resolution per stage-1 read.
     */
    std::function<int(uint64_t id, int resolution_index)> scan_depth;

    /** Load shedding (empty = off); see overload.quality_window. */
    QualityLadder ladder;

    /**
     * Optional hot-object decode cache (storage/decode_cache.hh);
     * nullptr = off. When set, stage 1 consults it before fetching —
     * a hit at or past the preview depth skips the stage-1 fetch
     * entirely (zero bytes charged) and a deep hit lets stage 4
     * resume from the cached snapshot and fetch only the missing
     * range. The cache must outlive the engine, and the caller should
     * ObjectStore::attachCache() it to the store's root() so put()
     * invalidates stale entries. Multiple engines may share one cache.
     */
    DecodeCache *cache = nullptr;

    /** Fetch retry / degradation policy for storage faults. */
    StagedRetryConfig retry;

    /** Overload control: hedged reads, ladder window, clock. */
    OverloadConfig overload;

    /** Inner backbone-stage engine configuration (empty ladder). */
    EngineConfig backbone;
};

/**
 * Counter snapshot from StagedServingEngine::stats().
 *
 * Consistency: stats() assembles the whole struct inside ONE critical
 * section on the engine's counter lock, so the counters in a snapshot
 * are mutually consistent — e.g. the terminal-conservation identity
 * below holds within a single snapshot whenever it holds at all, and
 * bytes_read never lags the decode that charged it.
 *
 * Terminal conservation: once every submitted request has reached a
 * terminal state (all wait()s returned),
 *   admitted == done + degraded + failed + expired + shed_admission
 *               + rejected + cancelled.
 */
struct StagedStats
{
    int decode_queue_depth = 0;   //!< stage-1 requests waiting now
    uint64_t admitted = 0;        //!< submit() calls (incl. refused)
    uint64_t decoded = 0;         //!< requests through stages 1-4
    uint64_t done = 0;            //!< terminal Done
    uint64_t shed_admission = 0;  //!< rejected at either admission
    uint64_t expired = 0;         //!< dropped past their deadline
    uint64_t rejected = 0;        //!< refused by a non-admitting tier
    uint64_t scans_read = 0;      //!< total scans fetched
    uint64_t bytes_read = 0;      //!< total bytes fetched
    uint64_t failed = 0;          //!< unrecoverable per-request faults
    uint64_t degraded = 0;        //!< served at reduced scan depth
    uint64_t retries = 0;         //!< fetch attempts beyond the first
    uint64_t fetch_faults = 0;    //!< recoverable faults observed
    uint64_t retry_giveups = 0;   //!< retries abandoned (budget/cap)
    uint64_t hedges_issued = 0;   //!< backup fetches launched
    uint64_t hedge_wins = 0;      //!< backups adopted over the primary
    uint64_t tier_capped = 0;     //!< decisions lowered by a tier cap
    uint64_t tier_int8 = 0;       //!< requests routed to int8 by a tier
    uint64_t cancelled = 0;       //!< terminal Cancelled (client)
    uint64_t reads_abandoned = 0; //!< timed fetches given up in flight
    uint64_t watchdog_flags = 0;  //!< liveness flags raised on workers

    // Decode-cache effect on this engine's traffic (all zero with no
    // cache configured). A "hit" skipped a stage-1 fetch outright; a
    // "resume" continued a stage-4 decode from a cached snapshot and
    // fetched only the missing range; bytes_saved is the physical
    // store bytes those hits and resumes did NOT fetch.
    uint64_t cache_hits = 0;        //!< stage-1 fetches skipped
    uint64_t cache_resumes = 0;     //!< stage-4 resumes from snapshots
    uint64_t cache_misses = 0;      //!< stage-1 lookups with no entry
    uint64_t cache_bytes_saved = 0; //!< store bytes not fetched

    std::vector<uint64_t> resolution_hist; //!< per resolutions() index
    QualityStats ladder;          //!< ladder window tier + shifts
    DecodeCacheStats cache;       //!< cache-internal counter snapshot
    EngineStats backbone;         //!< inner engine snapshot
};

/**
 * Multi-stage dynamic-resolution serving engine over encoded
 * progressive objects (see file docs for the stage diagram).
 */
class StagedServingEngine
{
  public:
    /**
     * @param store    stored encoded objects (outlives the engine)
     * @param scale    trained resolution selector (outlives the engine)
     * @param backbone backbone graph for stage 5, or nullptr for
     *                 decision-only mode
     */
    StagedServingEngine(ObjectStore &store, const ScaleModel &scale,
                        Graph *backbone, StagedEngineConfig config);

    /** stop()s and joins. */
    ~StagedServingEngine();

    StagedServingEngine(const StagedServingEngine &) = delete;
    StagedServingEngine &operator=(const StagedServingEngine &) = delete;

    /**
     * Admit @p req (non-blocking). Returns false — and marks the
     * request Shed — when the decode queue is full or the engine is
     * stopping. req.id must name a stored object. The request must
     * stay alive until terminal.
     */
    bool submit(StagedRequest &req);

    /**
     * Block until @p req reaches a terminal state. At most ONE
     * thread may wait() a given request per submission: the waiter
     * finalizes the backbone-stage handback (latency, terminal
     * state), so concurrent waiters on one request would race.
     */
    void wait(StagedRequest &req);

    /**
     * Cooperatively cancel an in-flight request (the client hung up).
     * Safe from any thread, any number of times, at any point between
     * submit() and terminal. The request stops at its next token poll
     * — a clean scan boundary — and terminates as Cancelled; callers
     * still wait() it. Best-effort by design: a request already past
     * its last poll (e.g. handed to the backbone stage) completes
     * normally, and a cancelled-at-formation request never touches
     * storage. First fire wins: a cancel that races deadline expiry
     * keeps whichever reason fired first.
     */
    void cancel(StagedRequest &req);

    /** Block until both stages are empty and idle. */
    void drain();

    /**
     * Stop accepting requests, flush everything already admitted
     * through every stage, and join the workers. Idempotent.
     */
    void stop();

    /** Counter snapshot (safe while serving). */
    StagedStats stats() const;

    /** The resolution grid decisions index into. */
    const std::vector<int> &resolutions() const
    {
        return scale_->resolutions();
    }

  private:
    void decodeLoop();
    void processOne(StagedRequest &req, int depth);
    void processOneImpl(StagedRequest &req, int depth);
    /**
     * One fetch stage: decode to @p target, reading up to @p read_to
     * (see ScanFetcher::fetch); meters its report on every outcome.
     */
    void fetchStage(StagedRequest &req, ScanRead &read,
                    EncodedImage &delivery, ProgressiveDecoder &dec,
                    int target, int read_to);
    void markTerminal(StagedRequest &req, StagedState state);
    /** Heartbeat this worker's watchdog slot (no-op unsupervised). */
    void heartbeat(StagedRequest &req, const char *phase);
    /** Watchdog flag callback: dump diagnostics + fail-fast. */
    void onWatchdogFlag(const WatchdogReport &report);
    void finalize(StagedRequest &req);
    /** Bump the terminal counter + feed the ladder window (mu_ held). */
    void accountTerminalLocked(const StagedRequest &req,
                               StagedState terminal);
    double now() const;

    ObjectStore *store_;
    const ScaleModel *scale_;
    Graph *backbone_;
    StagedEngineConfig cfg_;
    std::unique_ptr<ServingEngine> inner_; //!< null in decision-only

    Clock *clock_;       //!< deadlines, ladder dwell
    double epoch_s_ = 0; //!< clock_->now() at construction

    mutable std::mutex mu_;
    std::mutex stop_mu_; //!< serializes stop() (pool teardown order)
    std::condition_variable work_cv_; //!< decode workers: queue state
    std::condition_variable done_cv_; //!< clients: completion / drain
    std::deque<StagedRequest *> queue_;
    bool stopping_ = false;
    int active_decoders_ = 0;

    // The scale model's forward pass reuses internal activation
    // buffers, so concurrent decode workers serialize inference.
    mutable std::mutex scale_mu_;

    // Stage-1/4 read policy; its I/O pool is joined by stop().
    ScanFetcher fetcher_;

    // Worker supervision: the watchdog plus the worker -> in-flight
    // request map its flag callback uses to fire the right token.
    // wd_mu_ guards worker_current_ only and is never held while
    // calling into the watchdog or the engine's other locks.
    std::unique_ptr<Watchdog> watchdog_; //!< null when disabled
    mutable std::mutex wd_mu_;
    std::vector<StagedRequest *> worker_current_;

    // Load shedding: the ladder's controller (internally locked).
    QualityController ladder_;

    // Counters, guarded by mu_ and copied wholesale by stats(). The
    // live-state fields (queue depth, ladder, cache, backbone, the
    // fetcher's detached bytes) are added at snapshot time.
    StagedStats stats_;

    std::vector<std::thread> threads_;
};

} // namespace tamres

#endif // TAMRES_CORE_STAGED_ENGINE_HH
