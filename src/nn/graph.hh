/**
 * @file
 * Inference graph: a DAG of operators executed at any input resolution.
 *
 * Steady-state execution goes through cached *execution plans*: the
 * first run() at a given input shape compiles a Plan — topological
 * schedule over the live nodes, inferred shapes, a liveness-based
 * arena that hosts every intermediate in a handful of reusable
 * buffers, the resolved ConvConfig per convolution, and that config's
 * prepacked weight panels — and subsequent runs at that shape replay
 * it with zero graph analysis, zero heap allocation (runInto() with a
 * caller-reused output is fully allocation-free; run() allocates only
 * the returned tensor), and zero weight packing (only activation B
 * panels, packed straight from the input, are packed per request).
 * Plans are keyed by input shape, so dynamic-resolution serving hits
 * one cached plan per resolution. Any structural mutation (add,
 * setOutput, replaceOp, rewire) invalidates the cache; kernel-selector
 * changes (mode flips, new tuned configs) only re-resolve the cached
 * conv configs in place.
 *
 * Arena lifetime contract: the tensors a plan's steps write are views
 * onto plan-owned buffers that are reused both across nodes within a
 * run (when lifetimes don't overlap) and across runs. Only the graph
 * input (borrowed from the caller for the duration of the call) and
 * the output (written to caller-owned storage) cross the plan
 * boundary; observers must not retain the tensor pointers they are
 * shown (they were never allowed to).
 *
 * Concurrency contract (the serving engine's substrate): plans carry
 * per-run mutable state (arena buffers, patched input pointers), so a
 * plan cache must never be shared by two threads. Graph::Executor
 * gives each serving worker a private plan cache over the SAME graph;
 * any number of executors may run concurrently as long as nothing
 * mutates the graph meanwhile. Legal while executors are running:
 * invalidatePlans() (executors notice the version bump and recompile
 * on their next run) and executing at new shapes (prepacked weights
 * are shared through a mutex-protected per-graph cache, so a config's
 * weights are packed once, not once per executor). Illegal while any
 * executor is running: structural mutations (add, setOutput,
 * replaceOp, rewire), mutating op parameters in place, setObserver,
 * and KernelSelector registrations — quiesce the workers first (the
 * engine's drain()), then mutate, then resume.
 */

#ifndef TAMRES_NN_GRAPH_HH
#define TAMRES_NN_GRAPH_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/conv_kernels.hh"
#include "nn/op.hh"

namespace tamres {

/** Per-op profile entry from Graph::profile(). */
struct OpProfile
{
    std::string name;
    std::string type;
    Shape output_shape;
    int64_t flops = 0;
    double seconds = 0.0;
};

/**
 * A single-input, single-output operator DAG. Nodes are added in
 * topological order (inputs must already exist).
 */
class Graph
{
  public:
    using NodeId = int;

    /** Id of the graph input placeholder. */
    static constexpr NodeId kInput = 0;

    Graph();

    /** Add an operator consuming the given nodes; returns its id. */
    NodeId add(std::unique_ptr<Op> op, std::vector<NodeId> inputs);

    /** Designate the output node (defaults to the last added). */
    void setOutput(NodeId id);

    /** Number of operator nodes (excluding the input placeholder). */
    size_t numOps() const { return nodes_.size() - 1; }

    /**
     * Run the graph on @p input and return the output tensor. Executes
     * through the cached plan for the input's shape (compiled on first
     * use); the returned tensor owns fresh storage, so callers may
     * keep results across subsequent runs.
     */
    Tensor run(const Tensor &input);

    /**
     * Plan-backed execution into caller-owned storage: @p out is
     * reallocated only when its shape does not match the output shape
     * for this input. A serving loop that reuses the same @p out runs
     * with zero heap allocations after the first (plan-compiling)
     * request. @p out must not alias @p input.
     */
    void runInto(const Tensor &input, Tensor &out);

    /**
     * The un-planned reference executor (one fresh tensor per node,
     * shapes re-inferred per call). Kept as the correctness oracle the
     * plan runtime is tested against.
     */
    Tensor runNaive(const Tensor &input);

    /**
     * Drop every cached execution plan — the graph's own and, via the
     * plan-version bump, every Executor's on its next run — along
     * with the shared prepacked-weight cache. Safe to call while
     * executors are running (they recompile); everything else about
     * mutating a served graph is not (see the concurrency contract).
     */
    void invalidatePlans();

    /**
     * Monotonic counter bumped by invalidatePlans(); executors compare
     * it to drop plans compiled against a stale graph.
     */
    uint64_t
    planVersion() const
    {
        return plan_version_.load(std::memory_order_acquire);
    }

    /**
     * RAII: suppress invalidatePlans() inside the scope so a batch of
     * structural rewrites (e.g. optimizeForInference's pass pipeline)
     * costs one plan-version bump instead of one per rewire.
     * Suppressed calls are NOT replayed — the scope owner must call
     * invalidatePlans() itself after the scope ends. Structural
     * mutation is already illegal while serving, so this guard is
     * too; scopes must not nest or cross threads.
     */
    class PlanInvalidationDefer
    {
      public:
        explicit PlanInvalidationDefer(Graph &graph) : graph_(&graph)
        {
            tamres_assert(!graph_->defer_invalidation_,
                          "PlanInvalidationDefer scopes must not nest");
            graph_->defer_invalidation_ = true;
        }
        ~PlanInvalidationDefer()
        {
            graph_->defer_invalidation_ = false;
        }
        PlanInvalidationDefer(const PlanInvalidationDefer &) = delete;
        PlanInvalidationDefer &
        operator=(const PlanInvalidationDefer &) = delete;

      private:
        Graph *graph_;
    };

    /** Per-thread execution handle; see class docs below. */
    class Executor;

    /** Number of execution plans cached by the graph's own executor. */
    size_t cachedPlanCount() const;

    /**
     * Total floats of arena backing storage in the plan for
     * @p input_shape (compiling it if absent) — introspection for
     * tests and capacity planning. Far below the sum of live
     * intermediate sizes when liveness-based reuse is working.
     */
    int64_t planArenaNumel(const Shape &input_shape);

    /** Total MAC count for an input of the given shape. */
    int64_t flops(const Shape &input_shape) const;

    /** Run with per-op wall-clock timing. */
    std::vector<OpProfile> profile(const Tensor &input);

    /** Visit every op (e.g. to enumerate conv shapes or init params). */
    void forEachOp(const std::function<void(Op &)> &fn);

    /**
     * Observer invoked before each op executes during run(), with the
     * op and its actual input tensors. Used by quantization
     * calibration to record activation ranges; pass nullptr to clear.
     * The observer must not retain the tensor pointers.
     */
    using OpObserver =
        std::function<void(const Op &,
                           const std::vector<const Tensor *> &)>;
    void setObserver(OpObserver obs) { observer_ = std::move(obs); }

    /**
     * Swap the operator at @p id for @p op, keeping the node's wiring.
     * The replacement must preserve the output shape contract (same
     * outputShape for the shapes the graph will see). Used by
     * graph-rewriting passes such as conv quantization.
     */
    void replaceOp(NodeId id, std::unique_ptr<Op> op);

    /**
     * Visit every op together with the input shapes it would see for a
     * graph input of @p input_shape (no tensors are allocated). Used by
     * the tuner to enumerate per-resolution conv problems.
     */
    void visitShapes(const Shape &input_shape,
                     const std::function<void(Op &,
                                              const std::vector<Shape> &)>
                         &fn);

    /** Output shape for a given input shape without running. */
    Shape outputShape(const Shape &input_shape) const;

    /** Total parameter element count. */
    int64_t numParams();

    /** Number of nodes including the input placeholder. */
    int numNodes() const { return static_cast<int>(nodes_.size()); }

    /** The op at a node (nullptr for the input placeholder). */
    Op *opAt(NodeId id);

    /** Input node ids of a node. */
    const std::vector<NodeId> &inputsOf(NodeId id) const;

    /**
     * Redirect every consumer of @p from to read @p to instead (used
     * by graph-rewriting passes such as batch-norm folding). Nodes
     * left without consumers are skipped during execution.
     */
    void rewire(NodeId from, NodeId to);

    /** Node ids reachable backward from the output (always sorted). */
    std::vector<NodeId> liveNodes() const;

  private:
    struct Node
    {
        std::unique_ptr<Op> op; //!< null for the input placeholder
        std::vector<NodeId> inputs;
    };

    /** One scheduled op of a compiled plan. */
    struct PlanStep
    {
        Op *op = nullptr;
        class Conv2d *conv = nullptr; //!< non-null for Conv2d steps
        class QuantConv2d *qconv = nullptr; //!< non-null for int8 convs
        ConvConfig cfg;               //!< resolved config when conv
        /**
         * Prepacked weights for conv steps, resolved at plan compile
         * time (and re-resolved when a selector-generation bump
         * changes cfg) from the graph's shared pack cache, so
         * steady-state execution performs no weight packing and every
         * plan of every executor replaying the same (conv, config)
         * shares one immutable pack. Lifetime rule: packs live in the
         * per-graph cache and die on invalidatePlans(); a plan only
         * replays one while (cfg, weights) are those it was built
         * from.
         */
        std::shared_ptr<const PackedConvWeights> packed;
        Shape in0_shape;              //!< first input (config re-resolve)
        Tensor out_view;   //!< arena view (empty when external output)
        bool external_out = false; //!< write the caller's out tensor
        std::vector<const Tensor *> ins; //!< patched per execute
        std::vector<int> input_patch;    //!< ins[] slots fed by the
                                         //!< borrowed graph input
    };

    /** A compiled schedule + arena for one input shape. */
    struct Plan
    {
        Shape input_shape;
        Shape output_shape;
        std::vector<Tensor> arena;   //!< reusable backing buffers
        std::vector<PlanStep> steps;
        uint64_t selector_gen = 0;   //!< KernelSelector generation at
                                     //!< config resolution time
    };

    /** One cached prepack: (conv instance, config, weight shape). */
    struct PackEntry
    {
        const void *conv = nullptr;
        ConvConfig cfg;
        ConvProblem problem;
        std::shared_ptr<const PackedConvWeights> pack;
    };

    std::vector<Shape> inferShapes(const Shape &input_shape) const;

    std::unique_ptr<Plan> buildPlan(const Shape &input_shape);
    void executePlan(Plan &plan, const Tensor &input, Tensor &out);

    /**
     * Shared prepacked weights for (conv, cfg) at @p in0's problem,
     * packing on first use. Packs are weight-side only, so one entry
     * serves every batch size and resolution whose resolved config
     * coincides (convWeightShapeCompatible). Thread-safe: executors
     * compiling plans concurrently race only on the cache mutex.
     */
    std::shared_ptr<const PackedConvWeights>
    packFor(class Conv2d &conv, const Shape &in0,
            const ConvConfig &cfg);

    /** Same cache for quantized convs (int8 quad-K panel packs). */
    std::shared_ptr<const PackedConvWeights>
    packFor(class QuantConv2d &conv, const Shape &in0,
            const ConvConfig &cfg);

    std::vector<Node> nodes_;
    NodeId output_ = kInput;
    OpObserver observer_;

    std::atomic<uint64_t> plan_version_{0};
    bool defer_invalidation_ = false; //!< see PlanInvalidationDefer

    mutable std::mutex pack_mutex_;
    std::vector<PackEntry> pack_cache_;

    /** Executor backing the graph's own run()/runInto(). */
    std::unique_ptr<Executor> default_exec_;
};

/**
 * A private plan cache over a shared Graph — the unit of concurrency
 * for serving: one Executor per worker thread, all executing the same
 * ops and weights. An Executor must only ever be used by one thread
 * at a time; concurrent runInto() on DIFFERENT executors is safe
 * under the Graph concurrency contract above. Executors observe
 * Graph::invalidatePlans() through the plan version and drop their
 * plans on the next run.
 */
class Graph::Executor
{
  public:
    /**
     * @param graph          the graph to execute (must outlive this)
     * @param plan_capacity  plans kept (MRU); serving over R
     *                       resolutions x B batch sizes wants >= R*B
     *                       to avoid recompiling in steady state
     */
    explicit Executor(Graph &graph, size_t plan_capacity = 8);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Plan-backed execution; see Graph::runInto for the contract. */
    void runInto(const Tensor &input, Tensor &out);

    /** Plan-backed execution returning owning storage. */
    Tensor run(const Tensor &input);

    /** Compile (if absent) the plan for @p input_shape. */
    void warm(const Shape &input_shape);

    /** Plans currently cached (0 after an unseen invalidation). */
    size_t cachedPlanCount() const;

    /** Arena floats of the plan for @p input_shape (compiles it). */
    int64_t planArenaNumel(const Shape &input_shape);

  private:
    Graph::Plan &planFor(const Shape &input_shape);

    Graph *graph_;
    size_t capacity_;
    uint64_t version_seen_ = 0;

    /** MRU-ordered plan cache (front = most recent). */
    std::vector<std::unique_ptr<Plan>> plans_;
};

} // namespace tamres

#endif // TAMRES_NN_GRAPH_HH
