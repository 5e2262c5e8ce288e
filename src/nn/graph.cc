#include "nn/graph.hh"

#include <algorithm>

#include "nn/kernel_selector.hh"
#include "nn/ops.hh"
#include "nn/quant.hh"
#include "util/timer.hh"

namespace tamres {

Graph::Graph()
{
    nodes_.push_back(Node{}); // input placeholder
    default_exec_ = std::make_unique<Executor>(*this);
}

Graph::NodeId
Graph::add(std::unique_ptr<Op> op, std::vector<NodeId> inputs)
{
    tamres_assert(op != nullptr, "null op");
    const NodeId id = static_cast<NodeId>(nodes_.size());
    for (NodeId in : inputs) {
        tamres_assert(in >= 0 && in < id,
                      "op '%s' consumes undefined node %d",
                      op->name().c_str(), in);
    }
    nodes_.push_back(Node{std::move(op), std::move(inputs)});
    output_ = id;
    invalidatePlans();
    return id;
}

void
Graph::setOutput(NodeId id)
{
    tamres_assert(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
                  "output node %d undefined", id);
    output_ = id;
    invalidatePlans();
}

std::vector<Shape>
Graph::inferShapes(const Shape &input_shape) const
{
    std::vector<Shape> shapes(nodes_.size());
    shapes[kInput] = input_shape;
    for (size_t i = 1; i < nodes_.size(); ++i) {
        std::vector<Shape> in_shapes;
        in_shapes.reserve(nodes_[i].inputs.size());
        for (NodeId in : nodes_[i].inputs)
            in_shapes.push_back(shapes[in]);
        shapes[i] = nodes_[i].op->outputShape(in_shapes);
    }
    return shapes;
}

Op *
Graph::opAt(NodeId id)
{
    tamres_assert(id >= 0 && id < numNodes(), "node id out of range");
    return nodes_[id].op.get();
}

const std::vector<Graph::NodeId> &
Graph::inputsOf(NodeId id) const
{
    tamres_assert(id >= 0 && id < numNodes(), "node id out of range");
    return nodes_[id].inputs;
}

void
Graph::replaceOp(NodeId id, std::unique_ptr<Op> op)
{
    tamres_assert(id > 0 && id < numNodes(),
                  "replaceOp id out of range (cannot replace the "
                  "input placeholder)");
    tamres_assert(op != nullptr, "replacement op must be non-null");
    nodes_[id].op = std::move(op);
    invalidatePlans();
}

void
Graph::rewire(NodeId from, NodeId to)
{
    tamres_assert(from >= 0 && from < numNodes() && to >= 0 &&
                  to < numNodes(), "rewire ids out of range");
    tamres_assert(to < from || to == from,
                  "rewire must not create a forward reference");
    for (auto &node : nodes_) {
        for (NodeId &in : node.inputs) {
            if (in == from)
                in = to;
        }
    }
    if (output_ == from)
        output_ = to;
    invalidatePlans();
}

std::vector<Graph::NodeId>
Graph::liveNodes() const
{
    std::vector<bool> live(nodes_.size(), false);
    std::vector<NodeId> stack{output_};
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        if (live[id])
            continue;
        live[id] = true;
        for (NodeId in : nodes_[id].inputs)
            stack.push_back(in);
    }
    std::vector<NodeId> out;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (live[i])
            out.push_back(static_cast<NodeId>(i));
    }
    return out;
}

Tensor
Graph::run(const Tensor &input)
{
    Tensor out;
    runInto(input, out);
    return out;
}

Tensor
Graph::runNaive(const Tensor &input)
{
    const auto shapes = inferShapes(input.shape());
    std::vector<Tensor> values(nodes_.size());
    for (NodeId i : liveNodes()) {
        if (i == kInput)
            continue;
        std::vector<const Tensor *> ins;
        ins.reserve(nodes_[i].inputs.size());
        for (NodeId in : nodes_[i].inputs)
            ins.push_back(in == kInput ? &input : &values[in]);
        values[i] = Tensor(shapes[i]);
        if (observer_)
            observer_(*nodes_[i].op, ins);
        nodes_[i].op->forward(ins, values[i]);
    }
    return output_ == kInput ? input : values[output_];
}

void
Graph::runInto(const Tensor &input, Tensor &out)
{
    default_exec_->runInto(input, out);
}

void
Graph::invalidatePlans()
{
    // Inside a PlanInvalidationDefer scope the structural rewrites
    // are still in flight; the scope owner invalidates once at the
    // end (nothing can legally run plans mid-scope anyway).
    if (defer_invalidation_)
        return;
    {
        std::lock_guard<std::mutex> lock(pack_mutex_);
        pack_cache_.clear();
    }
    plan_version_.fetch_add(1, std::memory_order_acq_rel);
}

size_t
Graph::cachedPlanCount() const
{
    return default_exec_->cachedPlanCount();
}

int64_t
Graph::planArenaNumel(const Shape &input_shape)
{
    return default_exec_->planArenaNumel(input_shape);
}

std::shared_ptr<const PackedConvWeights>
Graph::packFor(Conv2d &conv, const Shape &in0, const ConvConfig &cfg)
{
    const ConvProblem p = conv.problemFor(in0);
    std::lock_guard<std::mutex> lock(pack_mutex_);
    for (const PackEntry &e : pack_cache_) {
        if (e.conv == &conv && e.cfg == cfg &&
            convWeightShapeCompatible(e.problem, p))
            return e.pack;
    }
    auto pack = std::make_shared<PackedConvWeights>();
    conv.packWeights(in0, cfg, *pack);
    pack_cache_.push_back(PackEntry{&conv, cfg, p, pack});
    return pack;
}

std::shared_ptr<const PackedConvWeights>
Graph::packFor(QuantConv2d &conv, const Shape &in0,
               const ConvConfig &cfg)
{
    const ConvProblem p = conv.problemFor(in0);
    std::lock_guard<std::mutex> lock(pack_mutex_);
    for (const PackEntry &e : pack_cache_) {
        if (e.conv == &conv && e.cfg == cfg &&
            convWeightShapeCompatible(e.problem, p))
            return e.pack;
    }
    auto pack = std::make_shared<PackedConvWeights>();
    conv.packWeights(in0, cfg, *pack);
    pack_cache_.push_back(PackEntry{&conv, cfg, p, pack});
    return pack;
}

std::unique_ptr<Graph::Plan>
Graph::buildPlan(const Shape &input_shape)
{
    auto plan = std::make_unique<Plan>();
    plan->input_shape = input_shape;
    const auto shapes = inferShapes(input_shape);
    plan->output_shape = shapes[output_];
    const std::vector<NodeId> live = liveNodes();

    // Liveness: the last live consumer of each node's value. Live
    // nodes are sorted ascending, which is a topological order here
    // (ops only consume already-defined nodes).
    std::vector<NodeId> last_use(nodes_.size(), -1);
    for (NodeId i : live) {
        for (NodeId in : nodes_[i].inputs)
            last_use[in] = std::max(last_use[in], i);
    }

    // Greedy best-fit arena assignment: a node takes the smallest
    // free buffer that fits (growing the largest free one when none
    // does), and releases its inputs' buffers after the step that
    // reads them last. Releasing *after* the output is placed keeps a
    // step's output from aliasing any of its inputs. The output node
    // writes caller-owned storage and takes no slot.
    std::vector<int> node_slot(nodes_.size(), -1);
    std::vector<int64_t> slot_cap;
    std::vector<char> slot_free;
    size_t nsteps = 0;
    for (NodeId i : live) {
        if (i == kInput)
            continue;
        ++nsteps;
        if (i != output_) {
            const int64_t need = shapeNumel(shapes[i]);
            int best = -1;
            int grow = -1;
            for (size_t s = 0; s < slot_cap.size(); ++s) {
                if (!slot_free[s])
                    continue;
                if (slot_cap[s] >= need) {
                    if (best < 0 || slot_cap[s] < slot_cap[best])
                        best = static_cast<int>(s);
                } else if (grow < 0 || slot_cap[s] > slot_cap[grow]) {
                    grow = static_cast<int>(s);
                }
            }
            int s;
            if (best >= 0) {
                s = best;
            } else if (grow >= 0) {
                s = grow;
                slot_cap[s] = need;
            } else {
                s = static_cast<int>(slot_cap.size());
                slot_cap.push_back(need);
                slot_free.push_back(0);
            }
            slot_free[s] = 0;
            node_slot[i] = s;
        }
        for (NodeId in : nodes_[i].inputs) {
            if (node_slot[in] >= 0 && last_use[in] == i)
                slot_free[node_slot[in]] = 1;
        }
    }

    plan->slot_cap = std::move(slot_cap);

    // Steps are filled after a single resize so the out_views the
    // input-pointer wiring takes addresses of never move (the
    // executor re-binds them in place when its slots move).
    plan->steps.resize(nsteps);
    std::vector<const Tensor *> view_of(nodes_.size(), nullptr);
    size_t k = 0;
    for (NodeId i : live) {
        if (i == kInput)
            continue;
        PlanStep &st = plan->steps[k++];
        st.op = nodes_[i].op.get();
        st.conv = dynamic_cast<Conv2d *>(st.op);
        if (!st.conv)
            st.qconv = dynamic_cast<QuantConv2d *>(st.op);
        if (!nodes_[i].inputs.empty())
            st.in0_shape = shapes[nodes_[i].inputs[0]];
        if (st.conv) {
            st.cfg = st.conv->configFor(st.in0_shape);
            st.packed = packFor(*st.conv, st.in0_shape, st.cfg);
        } else if (st.qconv) {
            st.cfg = st.qconv->configFor(st.in0_shape);
            st.packed = packFor(*st.qconv, st.in0_shape, st.cfg);
        }
        if (i != output_) {
            st.slot = node_slot[i];
            st.out_shape = shapes[i];
            view_of[i] = &st.out_view;
        }
        const auto &in_nodes = nodes_[i].inputs;
        st.ins.assign(in_nodes.size(), nullptr);
        for (size_t a = 0; a < in_nodes.size(); ++a) {
            if (in_nodes[a] == kInput)
                st.input_patch.push_back(static_cast<int>(a));
            else
                st.ins[a] = view_of[in_nodes[a]];
        }
    }
    plan->selector_gen = KernelSelector::instance().generation();
    return plan;
}

// ---------------------------------------------------------------------
// Graph::Executor
// ---------------------------------------------------------------------

Graph::Executor::Executor(Graph &graph, size_t plan_capacity)
    : graph_(&graph), capacity_(std::max<size_t>(1, plan_capacity)),
      version_seen_(graph.planVersion())
{
}

Graph::Executor::~Executor() = default;

size_t
Graph::Executor::cachedPlanCount() const
{
    return version_seen_ == graph_->planVersion() ? plans_.size() : 0;
}

void
Graph::Executor::warm(const Shape &input_shape)
{
    planFor(input_shape);
}

int64_t
Graph::Executor::planArenaNumel(const Shape &input_shape)
{
    int64_t total = 0;
    for (int64_t cap : planFor(input_shape).slot_cap)
        total += cap;
    return total;
}

int64_t
Graph::Executor::arenaNumel() const
{
    int64_t total = 0;
    for (const Tensor &slot : slots_)
        total += slot.numel();
    return total;
}

Tensor
Graph::Executor::run(const Tensor &input)
{
    Tensor out;
    runInto(input, out);
    return out;
}

void
Graph::Executor::runInto(const Tensor &input, Tensor &out)
{
    tamres_assert(!input.empty(), "cannot run on an empty tensor");
    tamres_assert(out.empty() || out.data() != input.data(),
                  "runInto output must not alias the input");
    graph_->executePlan(planFor(input.shape()), input, out);
}

Graph::Plan &
Graph::Executor::planFor(const Shape &input_shape)
{
    // A graph-level invalidation (structural mutation or an explicit
    // invalidatePlans) obsoletes every plan this executor holds.
    const uint64_t version = graph_->planVersion();
    if (version != version_seen_) {
        plans_.clear();
        slots_.clear();
        version_seen_ = version;
    }

    size_t hit = plans_.size();
    for (size_t i = 0; i < plans_.size(); ++i) {
        if (plans_[i]->input_shape == input_shape) {
            hit = i;
            break;
        }
    }
    if (hit == plans_.size()) {
        plans_.insert(plans_.begin(), graph_->buildPlan(input_shape));
        if (plans_.size() > capacity_)
            plans_.pop_back();
        fitArena();
    } else if (hit != 0) {
        std::rotate(plans_.begin(), plans_.begin() + hit,
                    plans_.begin() + hit + 1);
    }
    Plan &plan = *plans_.front();

    // Kernel-selector churn (mode flips, newly registered tuned
    // configs) re-resolves the cached conv configs in place; the
    // schedule and arena stay put. A step whose config actually moved
    // re-fetches its pack so the plan never replays stale panels.
    const uint64_t gen = KernelSelector::instance().generation();
    if (plan.selector_gen != gen) {
        for (PlanStep &st : plan.steps) {
            if (st.conv) {
                const ConvConfig cfg = st.conv->configFor(st.in0_shape);
                if (!(cfg == st.cfg) || !(st.packed->cfg == cfg)) {
                    st.cfg = cfg;
                    st.packed =
                        graph_->packFor(*st.conv, st.in0_shape, cfg);
                }
            } else if (st.qconv) {
                // Quantized configs ignore the selector, but keep the
                // re-resolve uniform so the invariant (plan cfg ==
                // pack cfg) cannot silently diverge.
                const ConvConfig cfg =
                    st.qconv->configFor(st.in0_shape);
                if (!(cfg == st.cfg) || !(st.packed->cfg == cfg)) {
                    st.cfg = cfg;
                    st.packed =
                        graph_->packFor(*st.qconv, st.in0_shape, cfg);
                }
            }
        }
        plan.selector_gen = gen;
    }
    return plan;
}

void
Graph::Executor::fitArena()
{
    std::vector<int64_t> need;
    for (const auto &plan : plans_) {
        if (need.size() < plan->slot_cap.size())
            need.resize(plan->slot_cap.size(), 0);
        for (size_t s = 0; s < plan->slot_cap.size(); ++s)
            need[s] = std::max(need[s], plan->slot_cap[s]);
    }
    // Drop every view before reallocating so an old buffer is freed
    // before its replacement is allocated.
    for (auto &plan : plans_) {
        for (PlanStep &st : plan->steps)
            st.out_view = Tensor();
    }
    slots_.resize(need.size());
    for (size_t s = 0; s < need.size(); ++s) {
        if (slots_[s].numel() != need[s]) {
            slots_[s] = Tensor();
            slots_[s] = Tensor(Shape{need[s]});
        }
    }
    for (auto &plan : plans_) {
        for (PlanStep &st : plan->steps) {
            if (st.slot >= 0)
                st.out_view = slots_[st.slot].alias(st.out_shape);
        }
    }
}

void
Graph::executePlan(Plan &plan, const Tensor &input, Tensor &out)
{
    if (out.shape() != plan.output_shape)
        out = Tensor(plan.output_shape);
    if (output_ == kInput) {
        // Degenerate op-free graph: copy the borrowed input through.
        std::copy_n(input.data(), input.numel(), out.data());
        return;
    }
    for (PlanStep &st : plan.steps) {
        for (int idx : st.input_patch)
            st.ins[idx] = &input;
        Tensor &dst = st.slot < 0 ? out : st.out_view;
        if (observer_)
            observer_(*st.op, st.ins);
        if (st.conv)
            st.conv->forwardWith(st.cfg, st.packed.get(), st.ins, dst);
        else if (st.qconv)
            st.qconv->forwardWith(st.cfg, st.packed.get(), st.ins, dst);
        else
            st.op->forward(st.ins, dst);
    }
}

int64_t
Graph::flops(const Shape &input_shape) const
{
    const auto shapes = inferShapes(input_shape);
    int64_t total = 0;
    for (NodeId i : liveNodes()) {
        if (i == kInput)
            continue;
        std::vector<Shape> in_shapes;
        for (NodeId in : nodes_[i].inputs)
            in_shapes.push_back(shapes[in]);
        total += nodes_[i].op->flops(in_shapes);
    }
    return total;
}

std::vector<OpProfile>
Graph::profile(const Tensor &input)
{
    const auto shapes = inferShapes(input.shape());
    std::vector<Tensor> values(nodes_.size());
    std::vector<OpProfile> out;
    out.reserve(nodes_.size() - 1);
    for (NodeId i_id : liveNodes()) {
        if (i_id == kInput)
            continue;
        const size_t i = static_cast<size_t>(i_id);
        std::vector<const Tensor *> ins;
        std::vector<Shape> in_shapes;
        for (NodeId in : nodes_[i].inputs) {
            ins.push_back(in == kInput ? &input : &values[in]);
            in_shapes.push_back(shapes[in]);
        }
        values[i] = Tensor(shapes[i]);
        Timer t;
        nodes_[i].op->forward(ins, values[i]);
        out.push_back(OpProfile{nodes_[i].op->name(),
                                nodes_[i].op->type(), shapes[i],
                                nodes_[i].op->flops(in_shapes),
                                t.seconds()});
    }
    return out;
}

void
Graph::forEachOp(const std::function<void(Op &)> &fn)
{
    for (size_t i = 1; i < nodes_.size(); ++i)
        fn(*nodes_[i].op);
}

void
Graph::visitShapes(const Shape &input_shape,
                   const std::function<void(Op &,
                                            const std::vector<Shape> &)>
                       &fn)
{
    const auto shapes = inferShapes(input_shape);
    for (size_t i = 1; i < nodes_.size(); ++i) {
        std::vector<Shape> in_shapes;
        for (NodeId in : nodes_[i].inputs)
            in_shapes.push_back(shapes[in]);
        fn(*nodes_[i].op, in_shapes);
    }
}

Shape
Graph::outputShape(const Shape &input_shape) const
{
    return inferShapes(input_shape)[output_];
}

int64_t
Graph::numParams()
{
    int64_t total = 0;
    forEachOp([&](Op &op) {
        for (Tensor *t : op.params())
            total += t->numel();
    });
    return total;
}

} // namespace tamres
