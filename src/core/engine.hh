/**
 * @file
 * ServingEngine: the measured, concurrent inference endpoint of the
 * paper's Section VIII-a serving study.
 *
 * A fixed set of worker threads serves a bounded MPMC request queue
 * with dynamic batching: a worker takes up to max_batch same-shaped
 * requests, lingers up to max_delay_us for late joiners, and executes
 * the batch through a private Graph::Executor — so every worker
 * replays cached, shape-keyed batched plans with shared prepacked
 * weights, and the steady-state batch path performs zero weight
 * packing and zero per-request heap allocation.
 *
 * Load shedding: at batch formation the queue depth picks a tier of
 * a quality ladder (core/quality_ladder.hh), and the batch serves at
 * that tier's resolution cap and precision — downscaled before
 * inference (the paper's "shrink the crop under load" knob), never
 * upsampled. Admission is bounded (submit fails on a full queue) and
 * deadline-aware (expired requests are dropped at formation time, not
 * executed).
 *
 * Threading/lifetime contract: the Graph must outlive the engine and
 * must not be mutated while the engine is serving — except
 * Graph::invalidatePlans(), which workers absorb by recompiling.
 * For structural mutations or weight updates: drain(), mutate,
 * invalidatePlans(), resume submitting. Each InferenceRequest is
 * caller-owned and must stay alive until it reaches a terminal state
 * (wait() blocks for that); request objects are reusable across
 * submissions.
 *
 * Staged pipeline (core/staged_engine.hh): as the backbone stage of a
 * StagedServingEngine the same rules apply, with the staged engine's
 * collaborators added to the frozen set. LEGAL while serving:
 * Graph::invalidatePlans(), new shapes (each decided resolution
 * compiles its plan on first sight, so warm the expected grid),
 * stats() on any stage, and ObjectStore ranged reads. ILLEGAL:
 * ObjectStore::put (the decode stage holds borrowed EncodedImage
 * references), ANY external use of the scale model (its forward pass
 * reuses internal buffers), mutating a config callback's captured
 * state, and structural graph mutations or in-place weight writes.
 * To mutate: staged.drain() (quiesces both stages), mutate,
 * invalidatePlans(), resume. A StagedRequest lends its
 * InferenceRequest to the inner engine, so it must outlive BOTH
 * stages; the single waiter of StagedServingEngine::wait() performs
 * the final handback.
 *
 * Fault containment: every request-scoped failure is a structured
 * terminal state, never a worker crash. A batch whose execution
 * throws marks its members Failed (counted in EngineStats::failed)
 * and the worker keeps serving; other batches are unaffected. The
 * staged pipeline's typed storage faults, retries and degradation
 * are documented in core/staged_engine.hh; there too, one poisoned
 * request can never stall or kill a stage.
 *
 * Overload control plane (staged pipeline; semantics in
 * docs/robustness.md): while a BreakerObjectStore (storage/breaker.hh)
 * is Open, fetches throw Transient errors with Error::failFast() set,
 * and the retry loop must (and does) skip its backoff and degrade
 * immediately; handlers added to the fetch path must preserve this
 * rule. Hedged stage-1/4 reads race one backup, and the loser's bytes
 * still count (bytes_read meters work done, not work used). The
 * staged quality-tier ladder may refuse a submission with the typed
 * Rejected terminal, so submit() returning false means Shed (queue
 * full) OR Rejected; distinguish via StagedRequest::stateNow().
 * Terminal conservation is a hard invariant: after every wait(),
 *   admitted == done + degraded + failed + expired + shed + rejected
 *               + cancelled.
 * Controller decisions (breaker transitions, tier shifts, retry
 * backoff) take time from an injectable Clock (util/clock.hh) and
 * replay deterministically. Three timings race real threads and stay
 * wall-clock: the hedge delay, the in-flight bound of a timed fetch
 * (stage_timeout_s abandonment) and the watchdog's polling cadence.
 */

#ifndef TAMRES_CORE_ENGINE_HH
#define TAMRES_CORE_ENGINE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/quality_ladder.hh"
#include "nn/graph.hh"
#include "util/windowed.hh"

namespace tamres {

/** Terminal and transient request states. */
enum class RequestState : int
{
    Idle = 0,  //!< never submitted (or reset for reuse)
    Queued,    //!< admitted, waiting for a batch
    Done,      //!< served; output/latency fields are valid
    Shed,      //!< rejected at admission (queue full or stopping)
    Expired,   //!< dropped at batch formation (deadline passed)
    Failed,    //!< batch execution threw; output is NOT valid
};

/**
 * One caller-owned inference request. Fill input (4-D [1, C, H, W])
 * and optionally deadline_s before submit(); the engine fills the
 * rest. Reusing the same object (and its output tensor) across
 * submissions keeps the steady-state path allocation-free.
 */
struct InferenceRequest
{
    Tensor input;
    double deadline_s = 0.0; //!< seconds after submit; 0 = none
    /**
     * Ask for the int8 tier outright (input field): the request only
     * batches with other int8 requests and serves on the quantized
     * graph when the engine has one. A ladder tier can also force
     * int8 on a whole batch at formation time; served_int8 reports
     * what actually ran.
     */
    bool want_int8 = false;

    Tensor output;           //!< per-item result (reused when shaped)
    int resolution = 0;      //!< square resolution actually served
    bool served_int8 = false; //!< ran on the quantized graph
    int batch = 0;           //!< size of the batch it was served in
    double queue_s = 0.0;    //!< submit -> batch start
    double latency_s = 0.0;  //!< submit -> completion

    std::atomic<int> state{static_cast<int>(RequestState::Idle)};

    RequestState
    stateNow() const
    {
        return static_cast<RequestState>(
            state.load(std::memory_order_acquire));
    }

  private:
    friend class ServingEngine;
    double submit_s_ = 0.0;
};

/** Engine construction parameters. */
struct EngineConfig
{
    int workers = 2;          //!< serving worker threads
    int max_batch = 8;        //!< largest batch a worker forms
    int max_delay_us = 2000;  //!< linger for batch fill (0 = none)
    int queue_capacity = 256; //!< bounded admission

    /**
     * Load shedding by queue depth (empty = off). The flat engine
     * has no decode stage: tiers set only resolution_cap and int8.
     */
    QualityLadder ladder;

    /**
     * The quantized twin of the serving graph (same architecture,
     * QuantConv2d backbone — build with quantizeGraph on a copy), or
     * null to disable the int8 tier. Must outlive the engine under
     * the same mutation contract as the main graph; each worker holds
     * a private executor over it, so int8 batches replay planned,
     * prepacked, zero-alloc plans exactly like fp32 ones.
     */
    Graph *quant_graph = nullptr;

    /**
     * Input shapes ([batch, C, H, W]) every worker compiles plans for
     * before serving starts, so the first requests already replay
     * warmed plans (on the quantized graph too when present).
     */
    std::vector<Shape> warm_shapes;
};

/** Counter snapshot from ServingEngine::stats(). */
struct EngineStats
{
    int queue_depth = 0;        //!< requests waiting right now
    uint64_t served = 0;        //!< requests completed
    uint64_t batches = 0;       //!< batches executed
    uint64_t shed_admission = 0; //!< submits rejected (queue full/stop)
    uint64_t expired = 0;       //!< dropped past their deadline
    uint64_t failed = 0;        //!< requests whose batch threw
    uint64_t served_int8 = 0;   //!< requests served on the int8 tier
    uint64_t batches_int8 = 0;  //!< batches run on the quantized graph
    double mean_batch = 0.0;    //!< served / batches
    std::vector<uint64_t> batch_hist; //!< index b = batches of size b
    /** Latency quantiles (sampleQuantile, util/windowed.hh) over the
     *  last 4096 served requests; failed batches are not sampled. */
    double p50_latency_s = 0.0;
    double p99_latency_s = 0.0;
};

/** Multi-worker dynamic-batching inference engine over one Graph. */
class ServingEngine
{
  public:
    /** Starts the workers (after compiling any warm_shapes plans). */
    ServingEngine(Graph &graph, EngineConfig config);

    /** stop()s and joins. */
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Admit @p req (non-blocking). Returns false — and marks the
     * request Shed — when the queue is full or the engine is
     * stopping. The request must stay alive until terminal.
     */
    bool submit(InferenceRequest &req);

    /** Block until @p req reaches a terminal state. */
    void wait(InferenceRequest &req);

    /** Block until the queue is empty and every worker is idle. */
    void drain();

    /**
     * Stop accepting requests, serve everything already queued, and
     * join the workers. Idempotent.
     */
    void stop();

    /** Counter snapshot (safe while serving). */
    EngineStats stats() const;

    int workers() const { return static_cast<int>(threads_.size()); }

  private:
    struct BatchBuffer
    {
        Tensor input;     //!< [n, c, res, res] gather target
        Tensor output;    //!< runInto target for that plan
        Shape item_shape; //!< output shape with dim 0 = 1, prebuilt
                          //!< so steady-state scatter allocates nothing
    };

    struct Worker
    {
        std::unique_ptr<Graph::Executor> exec;
        std::unique_ptr<Graph::Executor> qexec; //!< quant_graph, or null
        std::vector<InferenceRequest *> items; //!< formation scratch
        std::vector<BatchBuffer> buffers;      //!< keyed by shape
    };

    void workerLoop(int idx);
    void serveBatch(Worker &w, int resolution_cap, bool use_int8);
    double now() const;

    Graph *graph_;
    EngineConfig cfg_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_; //!< workers: queue non-empty
    std::condition_variable done_cv_; //!< clients: completion / drain
    std::vector<InferenceRequest *> pending_;
    bool stopping_ = false;
    int active_workers_ = 0; //!< workers currently serving a batch

    // Counters (all guarded by mu_).
    uint64_t served_ = 0;
    uint64_t batches_ = 0;
    uint64_t shed_admission_ = 0;
    uint64_t expired_ = 0;
    uint64_t failed_ = 0;
    uint64_t served_int8_ = 0;
    uint64_t batches_int8_ = 0;
    std::vector<uint64_t> batch_hist_;
    QuantileWindow latency_; //!< served latencies (successful batches)

    std::vector<Worker> workers_;
    std::vector<std::thread> threads_;
    std::chrono::steady_clock::time_point epoch_;
};

} // namespace tamres

#endif // TAMRES_CORE_ENGINE_HH
