/**
 * @file
 * Tests for the execution-plan runtime: planned execution must be
 * bit-identical to the naive executor across resolutions, thread
 * counts, and graph-rewriting passes; the plan cache must invalidate
 * on every structural mutation and stay bounded under resolution
 * churn; and the steady-state runInto() hot path must perform zero
 * heap allocations (asserted with a counting global allocator).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "nn/builders.hh"
#include "nn/graph.hh"
#include "nn/kernel_selector.hh"
#include "nn/ops.hh"
#include "nn/passes.hh"
#include "tensor/tensor_ops.hh"
#include "tests/threads_env.hh"
#include "util/rng.hh"
#include "util/simd.hh"

// --- Counting global allocator ---------------------------------------
//
// Replacing operator new binary-wide lets the zero-allocation test
// observe every heap allocation the hot path makes, including those
// from worker threads and the standard library.

namespace {

std::atomic<uint64_t> g_alloc_count{0};

void *
countedAlloc(std::size_t n)
{
    ++g_alloc_count;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    ++g_alloc_count;
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(al),
                                     (n + static_cast<std::size_t>(al) -
                                      1) /
                                         static_cast<std::size_t>(al) *
                                         static_cast<std::size_t>(al)))
        return p;
    throw std::bad_alloc();
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return operator new(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace tamres {
namespace {

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.numel())) ==
               0;
}

Tensor
randomInput(int res, uint64_t seed)
{
    Tensor in({1, 3, res, res});
    Rng rng(seed);
    fillUniform(in, rng, 0.0f, 1.0f);
    return in;
}

/** Multiplies its input by a constant; distinguishable per instance. */
class ScaleOp : public Op
{
  public:
    ScaleOp(std::string name, float k) : Op(std::move(name)), k_(k) {}
    std::string type() const override { return "Scale"; }
    Shape
    outputShape(const std::vector<Shape> &inputs) const override
    {
        return inputs[0];
    }
    void
    forward(const std::vector<const Tensor *> &inputs,
            Tensor &out) override
    {
        const Tensor &in = *inputs[0];
        for (int64_t i = 0; i < in.numel(); ++i)
            out[i] = in[i] * k_;
    }

  private:
    float k_;
};

// --- Planned vs naive bit-identity -----------------------------------

TEST(GraphPlan, MatchesNaiveAcrossResolutionsAndThreads)
{
    auto g = buildResNet18(8, 5);
    for (const int res : {64, 96}) {
        const Tensor in = randomInput(res, res);
        Tensor reference;
        for (const int threads : {1, 2, 8}) {
            ThreadsEnv env(threads);
            const Tensor planned = g->run(in);
            const Tensor naive = g->runNaive(in);
            EXPECT_TRUE(bitIdentical(planned, naive))
                << res << "px, " << threads << " threads";
            if (reference.empty())
                reference = planned;
            else
                EXPECT_TRUE(bitIdentical(planned, reference))
                    << res << "px, " << threads
                    << " threads vs 1 thread";
        }
    }
}

TEST(GraphPlan, MatchesNaiveOnMobileNet)
{
    auto g = buildMobileNetV2(8, 9);
    const Tensor in = randomInput(64, 7);
    EXPECT_TRUE(bitIdentical(g->run(in), g->runNaive(in)));
}

TEST(GraphPlan, MatchesNaiveAfterRewritePasses)
{
    auto g = buildResNet18(8, 5);
    const Tensor in = randomInput(64, 3);
    ASSERT_GT(foldBatchNorms(*g), 0);
    EXPECT_TRUE(bitIdentical(g->run(in), g->runNaive(in)))
        << "after foldBatchNorms";
    ASSERT_GT(fuseConvRelu(*g), 0);
    EXPECT_TRUE(bitIdentical(g->run(in), g->runNaive(in)))
        << "after fuseConvRelu";
}

TEST(GraphPlan, MatchesNaiveUnderTunedMode)
{
    // Mode flips bump the selector generation; the cached plan must
    // re-resolve its conv configs rather than replay stale ones.
    auto g = buildResNet18(8, 5);
    const Tensor in = randomInput(64, 4);
    KernelSelector::instance().setMode(KernelMode::Library);
    const Tensor lib_planned = g->run(in);
    ASSERT_TRUE(bitIdentical(lib_planned, g->runNaive(in)));
    KernelSelector::instance().setMode(KernelMode::Naive);
    EXPECT_TRUE(bitIdentical(g->run(in), g->runNaive(in)));
    KernelSelector::instance().setMode(KernelMode::Library);
}

TEST(GraphPlan, ResidualGraphWithSharedInputs)
{
    // conv feeding both a ReLU and an Add exercises multi-consumer
    // liveness: the conv's buffer must stay live until the Add reads
    // it, even though the ReLU consumed it earlier.
    Graph g;
    auto conv = std::make_unique<Conv2d>("c", 3, 3, 3, 1, 1);
    Rng rng(7);
    conv->initKaiming(rng);
    const auto c = g.add(std::move(conv), {Graph::kInput});
    const auto r = g.add(std::make_unique<ReLU>("r"), {c});
    const auto a = g.add(std::make_unique<Add>("a"), {c, r});
    g.setOutput(a);

    Tensor in({1, 3, 16, 16});
    fillUniform(in, rng, -1.0f, 1.0f);
    EXPECT_TRUE(bitIdentical(g.run(in), g.runNaive(in)));
}

// --- Plan cache behaviour --------------------------------------------

TEST(GraphPlan, CacheKeyedByShapeAndBounded)
{
    Graph g;
    g.add(std::make_unique<ScaleOp>("s", 2.0f), {Graph::kInput});
    EXPECT_EQ(g.cachedPlanCount(), 0u);
    for (int n = 1; n <= 12; ++n) {
        Tensor in({1, n}, std::vector<float>(n, 1.0f));
        const Tensor out = g.run(in);
        EXPECT_EQ(out[0], 2.0f);
    }
    EXPECT_LE(g.cachedPlanCount(), 8u);
    // Re-running a cached shape must not grow the cache.
    const size_t plans = g.cachedPlanCount();
    Tensor in({1, 12}, std::vector<float>(12, 1.0f));
    g.run(in);
    EXPECT_EQ(g.cachedPlanCount(), plans);
}

TEST(GraphPlan, InvalidatedByReplaceOp)
{
    Graph g;
    const auto id =
        g.add(std::make_unique<ScaleOp>("s", 2.0f), {Graph::kInput});
    Tensor in({1, 4}, std::vector<float>{1, 2, 3, 4});
    EXPECT_EQ(g.run(in)[3], 8.0f);
    EXPECT_EQ(g.cachedPlanCount(), 1u);
    // Swapping the op frees the old one: a stale plan would call
    // through a dangling pointer (ASan-visible) or return 2x.
    g.replaceOp(id, std::make_unique<ScaleOp>("s", 3.0f));
    EXPECT_EQ(g.cachedPlanCount(), 0u);
    EXPECT_EQ(g.run(in)[3], 12.0f);
}

TEST(GraphPlan, InvalidatedByAddSetOutputAndRewire)
{
    Graph g;
    const auto a =
        g.add(std::make_unique<ScaleOp>("a", 2.0f), {Graph::kInput});
    Tensor in({1, 2}, std::vector<float>{1, 1});
    EXPECT_EQ(g.run(in)[0], 2.0f);

    const auto b = g.add(std::make_unique<ScaleOp>("b", 5.0f), {a});
    EXPECT_EQ(g.cachedPlanCount(), 0u);
    EXPECT_EQ(g.run(in)[0], 10.0f);

    g.setOutput(a);
    EXPECT_EQ(g.cachedPlanCount(), 0u);
    EXPECT_EQ(g.run(in)[0], 2.0f);

    g.setOutput(b);
    g.rewire(a, Graph::kInput); // b now reads the input directly
    EXPECT_EQ(g.cachedPlanCount(), 0u);
    EXPECT_EQ(g.run(in)[0], 5.0f);
}

TEST(GraphPlan, RunReturnsOwningStorage)
{
    // run() results must survive later runs — regression guard against
    // handing out views of the reusable arena.
    auto g = buildResNet18(8, 5);
    const Tensor in1 = randomInput(64, 11);
    const Tensor in2 = randomInput(64, 12);
    const Tensor out1 = g->run(in1);
    const Tensor out1_copy = out1.clone();
    const Tensor out2 = g->run(in2);
    EXPECT_NE(out1.data(), out2.data());
    EXPECT_TRUE(bitIdentical(out1, out1_copy));
}

TEST(GraphPlan, RunIntoReusesCallerStorage)
{
    auto g = buildResNet18(8, 5);
    const Tensor in = randomInput(64, 13);
    Tensor out;
    g->runInto(in, out);
    const float *storage = out.data();
    g->runInto(in, out);
    EXPECT_EQ(out.data(), storage);
    EXPECT_TRUE(bitIdentical(out, g->runNaive(in)));
}

TEST(GraphPlan, ObserverSeesEveryLiveOp)
{
    auto g = buildResNet18(8, 5);
    const Tensor in = randomInput(64, 14);
    int planned_calls = 0;
    g->setObserver([&](const Op &, const std::vector<const Tensor *> &) {
        ++planned_calls;
    });
    g->run(in);
    int naive_calls = 0;
    g->setObserver([&](const Op &, const std::vector<const Tensor *> &) {
        ++naive_calls;
    });
    g->runNaive(in);
    g->setObserver(nullptr);
    EXPECT_EQ(planned_calls, naive_calls);
    EXPECT_EQ(planned_calls,
              static_cast<int>(g->liveNodes().size()) - 1);
}

// --- Zero-allocation steady state ------------------------------------

TEST(GraphPlanAlloc, SteadyStateRunIntoIsAllocationFree)
{
    ThreadsEnv env(1); // deterministic serial execution
    auto g = buildResNet18(8, 5);
    foldBatchNorms(*g);
    fuseConvRelu(*g);
    const Tensor in = randomInput(64, 15);
    Tensor out;
    g->runInto(in, out); // compiles the plan, allocates the output
    g->runInto(in, out); // warms the kernels' grow-only scratch

    const uint64_t before = g_alloc_count.load();
    for (int i = 0; i < 3; ++i)
        g->runInto(in, out);
    const uint64_t after = g_alloc_count.load();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " allocations in 3 steady-state runs";
}

TEST(GraphPlanAlloc, SteadyStateAllocationFreePerResolution)
{
    // Dynamic-resolution serving: after each resolution's plan is warm,
    // alternating between them must stay allocation-free.
    ThreadsEnv env(1);
    auto g = buildResNet18(8, 5);
    const Tensor in64 = randomInput(64, 16);
    const Tensor in96 = randomInput(96, 17);
    Tensor out64, out96;
    for (int i = 0; i < 2; ++i) {
        g->runInto(in64, out64);
        g->runInto(in96, out96);
    }
    const uint64_t before = g_alloc_count.load();
    g->runInto(in64, out64);
    g->runInto(in96, out96);
    g->runInto(in64, out64);
    const uint64_t after = g_alloc_count.load();
    EXPECT_EQ(after - before, 0u);
}

// --- 512-bit GEMM tiles ----------------------------------------------

TEST(GraphPlanAvx512, PlannedOutputBitIdenticalWithWideTilesOnAndOff)
{
    if (!simdAvx512Detected())
        GTEST_SKIP() << "avx512f not detected on this host";
    // Two serving-grid shapes; 160 px has the 10x10 and 5x5 maps whose
    // N = 100 and 25 exercise the masked column tails.
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    SimdLevelGuard level(SimdLevel::Avx2);
    for (const int res : {96, 160}) {
        const Tensor in = randomInput(res, 40 + res);
        for (const int threads : {1, 4}) {
            ThreadsEnv env(threads);
            Tensor wide, narrow;
            {
                SimdAvx512Guard guard(true);
                g->runInto(in, wide);
            }
            {
                SimdAvx512Guard guard(false);
                g->runInto(in, narrow);
            }
            EXPECT_TRUE(bitIdentical(wide, narrow))
                << res << " px, " << threads << " threads";
        }
    }
}

TEST(GraphPlanAvx512, SteadyStateRunIntoAllocAndPackFreeWithWideTiles)
{
    if (!simdAvx512Detected())
        GTEST_SKIP() << "avx512f not detected on this host";
    ThreadsEnv env(1);
    SimdLevelGuard level(SimdLevel::Avx2);
    SimdAvx512Guard wide(true);
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    const Tensor in = randomInput(96, 19);
    Tensor out;
    g->runInto(in, out); // compiles the plan and packs the weights
    g->runInto(in, out); // warms the kernels' grow-only scratch

    const uint64_t packs = convWeightPackCount();
    const uint64_t allocs = g_alloc_count.load();
    for (int i = 0; i < 3; ++i)
        g->runInto(in, out);
    EXPECT_EQ(g_alloc_count.load() - allocs, 0u)
        << "heap allocations in 3 steady-state runs";
    EXPECT_EQ(convWeightPackCount(), packs)
        << "steady-state planned runs must not pack weights";
}

// --- Prepacked weights -----------------------------------------------

TEST(GraphPlanPack, SteadyStateRunIntoDoesNoWeightPacking)
{
    ThreadsEnv env(1);
    auto g = buildResNet18(8, 5);
    foldBatchNorms(*g);
    fuseConvRelu(*g);
    const Tensor in = randomInput(64, 18);
    Tensor out;
    const uint64_t t0 = convWeightPackCount();
    g->runInto(in, out); // compiles the plan: packs every conv once
    EXPECT_GT(convWeightPackCount(), t0)
        << "plan compilation should prepack conv weights";

    const uint64_t steady = convWeightPackCount();
    for (int i = 0; i < 3; ++i)
        g->runInto(in, out);
    EXPECT_EQ(convWeightPackCount(), steady)
        << "steady-state planned runs must not pack weights";

    // The naive executor (per-request packing) keeps paying it — the
    // contrast the plan removes.
    g->runNaive(in);
    EXPECT_GT(convWeightPackCount(), steady);
}

TEST(GraphPlanPack, SelectorGenerationBumpRepacksAndStaysCorrect)
{
    // Registering a tuned config with different GEMM blocking bumps
    // the selector generation: the cached plan must re-resolve the
    // config AND re-pack the weights; replaying the old panels under
    // the new blocking would be wrong (or crash).
    auto g = buildResNet18(8, 5);
    const Tensor in = randomInput(64, 19);
    KernelSelector::instance().setMode(KernelMode::Library);
    ASSERT_TRUE(bitIdentical(g->run(in), g->runNaive(in)));

    // Find one dense conv problem the graph actually runs.
    bool registered = false;
    g->visitShapes({1, 3, 64, 64},
                   [&](Op &op, const std::vector<Shape> &ins) {
                       auto *conv = dynamic_cast<Conv2d *>(&op);
                       if (!conv || registered ||
                           conv->groups() != 1)
                           return;
                       const ConvProblem p = conv->problemFor(ins[0]);
                       ConvConfig tuned;
                       tuned.algo = ConvAlgo::Im2col;
                       tuned.mc = 32;
                       tuned.kc = 48;
                       tuned.nc = 160;
                       tuned.mr = 6;
                       tuned.nr = 8;
                       if (!convConfigValid(p, tuned))
                           return;
                       KernelSelector::instance().registerTuned(p,
                                                                tuned);
                       registered = true;
                   });
    ASSERT_TRUE(registered);
    KernelSelector::instance().setMode(KernelMode::Tuned);
    EXPECT_TRUE(bitIdentical(g->run(in), g->runNaive(in)))
        << "cached plan replayed stale packed weights after a "
           "selector generation bump";
    KernelSelector::instance().setMode(KernelMode::Library);
    KernelSelector::instance().clearTuned();
    EXPECT_TRUE(bitIdentical(g->run(in), g->runNaive(in)));
}

TEST(GraphPlanPack, ReplaceOpDropsThePackWithThePlan)
{
    // Swapping a conv for one with fresh weights must invalidate the
    // plan (and with it the packed panels); a stale pack would keep
    // producing the old conv's outputs.
    Graph g;
    Rng rng(29);
    auto conv = std::make_unique<Conv2d>("c", 3, 4, 3, 1, 1);
    conv->initKaiming(rng);
    const auto id = g.add(std::move(conv), {Graph::kInput});
    g.setOutput(id);

    Tensor in({1, 3, 12, 12});
    fillUniform(in, rng, -1.0f, 1.0f);
    const Tensor before = g.run(in).clone();
    ASSERT_EQ(g.cachedPlanCount(), 1u);

    auto replacement = std::make_unique<Conv2d>("c2", 3, 4, 3, 1, 1);
    replacement->initKaiming(rng);
    g.replaceOp(id, std::move(replacement));
    EXPECT_EQ(g.cachedPlanCount(), 0u);
    const Tensor after = g.run(in);
    EXPECT_FALSE(bitIdentical(before, after))
        << "output unchanged after replacing the conv — stale plan "
           "or stale packed weights";
    EXPECT_TRUE(bitIdentical(after, g.runNaive(in)));
}

TEST(GraphPlanAlloc, ArenaReusesBuffersAcrossLifetimes)
{
    // The liveness arena must host all intermediates in a fraction of
    // what one-tensor-per-node execution touches.
    auto g = buildResNet18(8, 5);
    const Shape in_shape{1, 3, 64, 64};
    int64_t naive_total = 0;
    g->visitShapes(in_shape, [&](Op &op,
                                 const std::vector<Shape> &ins) {
        naive_total += shapeNumel(op.outputShape(ins));
    });
    const int64_t arena = g->planArenaNumel(in_shape);
    EXPECT_GT(arena, 0);
    EXPECT_LT(arena * 4, naive_total)
        << "arena " << arena << " floats vs naive " << naive_total;
    EXPECT_EQ(g->cachedPlanCount(), 1u);
}

TEST(GraphPlanAlloc, ExecutorArenaHoldsLargestPlanOnly)
{
    // Dynamic-resolution serving warms one plan per (resolution,
    // batch). The plans alias one executor-owned arena, so the
    // executor holds its largest plan's activations, not the grid's
    // sum.
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    Graph::Executor exec(*g, 16);
    int64_t largest = 0, sum = 0;
    for (const int res : {96, 128, 160, 224}) {
        for (int b = 1; b <= 4; ++b) {
            const Shape shape{b, 3, res, res};
            exec.warm(shape);
            const int64_t need = exec.planArenaNumel(shape);
            largest = std::max(largest, need);
            sum += need;
        }
    }
    EXPECT_EQ(exec.cachedPlanCount(), 16u);
    EXPECT_EQ(exec.arenaNumel(), largest)
        << "executor holds " << exec.arenaNumel()
        << " floats; its largest plan needs " << largest;
    EXPECT_LT(exec.arenaNumel() * 4, sum);
}

TEST(GraphPlanAlloc, ArenaGrowthRebindsCachedPlans)
{
    // Each larger shape reallocates the executor's slots after the
    // smaller plans were bound to them. Those plans must be re-bound:
    // a stale view would pin (and write) a discarded buffer. Every
    // output must match a fresh executor's for that shape, bit for
    // bit, in any compile order.
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    struct Case
    {
        int res, batch;
    };
    const Case cases[] = {{96, 1}, {160, 2}, {224, 4}};
    std::vector<Tensor> inputs, refs;
    for (const Case &c : cases) {
        Tensor in({c.batch, 3, c.res, c.res});
        Rng rng(50 + c.res);
        fillUniform(in, rng, 0.0f, 1.0f);
        Graph::Executor fresh(*g);
        refs.push_back(fresh.run(in));
        inputs.push_back(std::move(in));
    }

    // Activations the steps read, by buffer address: once the arena
    // has grown, every plan must read the same slots.
    std::set<const float *> *record = nullptr;
    const float *graph_in = nullptr;
    g->setObserver([&](const Op &, const std::vector<const Tensor *> &ins) {
        for (const Tensor *t : ins) {
            if (record && t->data() != graph_in)
                record->insert(t->data());
        }
    });
    std::set<const float *> after_growth, largest_run;

    Graph::Executor exec(*g, 16);
    int64_t largest = 0;
    // Grow small -> large, then interleave the warmed shapes.
    const int order[] = {0, 1, 2, 0, 2, 0, 1, 2};
    for (size_t i = 0; i < std::size(order); ++i) {
        const int k = order[i];
        record = i == 4 ? &largest_run : i > 2 ? &after_growth : nullptr;
        graph_in = inputs[k].data();
        const Tensor out = exec.run(inputs[k]);
        EXPECT_TRUE(bitIdentical(out, refs[k]))
            << cases[k].res << " px, batch " << cases[k].batch;
        largest = std::max(largest,
                           exec.planArenaNumel(inputs[k].shape()));
        EXPECT_EQ(exec.arenaNumel(), largest)
            << "after " << cases[k].res << " px, batch "
            << cases[k].batch;
    }
    g->setObserver(nullptr);
    EXPECT_FALSE(largest_run.empty());
    EXPECT_EQ(after_growth, largest_run)
        << "a plan compiled before the arena grew still reads a "
           "buffer of its own";

    // Recompiled plans size the arena afresh; the old max is dropped.
    g->invalidatePlans();
    EXPECT_TRUE(bitIdentical(exec.run(inputs[0]), refs[0]));
    EXPECT_EQ(exec.cachedPlanCount(), 1u);
    EXPECT_EQ(exec.arenaNumel(), exec.planArenaNumel(inputs[0].shape()));
    EXPECT_LT(exec.arenaNumel(), largest);
}

TEST(GraphPlanAlloc, ArenaShrinksWhenLargestPlanIsEvicted)
{
    Graph g;
    const auto a =
        g.add(std::make_unique<ScaleOp>("a", 2.0f), {Graph::kInput});
    g.add(std::make_unique<ScaleOp>("b", 3.0f), {a});
    Graph::Executor exec(g, 1);
    Tensor big({1, 64}, std::vector<float>(64, 1.0f));
    Tensor small({1, 8}, std::vector<float>(8, 1.0f));
    EXPECT_EQ(exec.run(big)[63], 6.0f);
    EXPECT_EQ(exec.arenaNumel(), 64);
    EXPECT_EQ(exec.run(small)[7], 6.0f);
    EXPECT_EQ(exec.cachedPlanCount(), 1u);
    EXPECT_EQ(exec.arenaNumel(), 8);
}

} // namespace
} // namespace tamres
