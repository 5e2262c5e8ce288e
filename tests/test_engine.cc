/**
 * @file
 * Tests for batched execution plans and the ServingEngine: batch-N
 * planned execution must be bit-identical per item to N batch-1 runs
 * (across architectures, SIMD levels and thread counts); prepacked
 * weights must be shared across executors and batch sizes; the
 * engine's steady-state batch path must perform zero weight packing
 * and zero heap allocation (counting global allocator, as in
 * test_graph_plan); and the engine must shed at admission, expire
 * past deadlines, survive plan invalidation while serving, and shut
 * down cleanly with requests in flight — including when its workers
 * submit conv-parallel work to the shared thread pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "nn/builders.hh"
#include "nn/conv_kernels.hh"
#include "nn/graph.hh"
#include "nn/kernel_selector.hh"
#include "nn/passes.hh"
#include "nn/quant.hh"
#include "tensor/tensor_ops.hh"
#include "tests/threads_env.hh"
#include "util/rng.hh"
#include "util/simd.hh"

// --- Counting global allocator (see test_graph_plan.cc) --------------

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
bitIdentical(const float *a, const float *b, int64_t numel)
{
    return std::memcmp(a, b, sizeof(float) * numel) == 0;
}

Tensor
randomInput(int res, uint64_t seed, int batch = 1)
{
    Tensor in({batch, 3, res, res});
    Rng rng(seed);
    fillUniform(in, rng, 0.0f, 1.0f);
    return in;
}

/** Copy item @p i of a batched [n, ...] tensor into a [1, ...] one. */
Tensor
itemOf(const Tensor &batched, int i)
{
    Shape s = batched.shape();
    const int64_t per = batched.numel() / s[0];
    s[0] = 1;
    Tensor out(s);
    std::copy_n(batched.data() + i * per, per, out.data());
    return out;
}

// --- Batched plans: per-item bit-identity ----------------------------

TEST(BatchedPlan, BitIdenticalPerItemAcrossArchLevelsAndThreads)
{
    struct ArchCase
    {
        const char *name;
        int res;
        std::unique_ptr<Graph> graph;
    };
    std::vector<ArchCase> arches;
    arches.push_back({"resnet18", 48, buildResNet18(8, 5)});
    arches.push_back({"mobilenetv2", 64, buildMobileNetV2(8, 9)});

    for (auto &arch : arches) {
        Graph &g = *arch.graph;
        const int res = arch.res;
        const Tensor batched = randomInput(res, 21, 4);
        for (const SimdLevel level :
             {SimdLevel::Scalar, simdDetected()}) {
            SimdLevelGuard guard(level);
            // Per-item references at batch 1, serial.
            std::vector<Tensor> refs;
            {
                ThreadsEnv env(1);
                for (int i = 0; i < 4; ++i)
                    refs.push_back(g.run(itemOf(batched, i)));
            }
            for (const int threads : {1, 4}) {
                ThreadsEnv env(threads);
                const Tensor out = g.run(batched);
                ASSERT_EQ(out.dim(0), 4);
                const int64_t per = out.numel() / 4;
                for (int i = 0; i < 4; ++i) {
                    EXPECT_TRUE(bitIdentical(out.data() + i * per,
                                             refs[i].data(), per))
                        << arch.name << " item " << i << " at "
                        << simdLevelName(level) << ", " << threads
                        << " threads";
                }
            }
        }
    }
}

TEST(BatchedPlan, WideTilesBatchFourEqualsFourBatchOne)
{
    if (!simdAvx512Detected())
        GTEST_SKIP() << "avx512f not detected on this host";
    // 56 px: N = 784, 196, 49 and 16 columns per image, so the merged
    // batch-4 GEMMs put 512-bit tiles across image boundaries.
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    SimdLevelGuard level(SimdLevel::Avx2);
    SimdAvx512Guard wide(true);
    const Tensor batched = randomInput(56, 23, 4);
    std::vector<Tensor> refs;
    {
        ThreadsEnv env(1);
        for (int i = 0; i < 4; ++i)
            refs.push_back(g->run(itemOf(batched, i)));
    }
    for (const int threads : {1, 4}) {
        ThreadsEnv env(threads);
        const Tensor out = g->run(batched);
        ASSERT_EQ(out.dim(0), 4);
        const int64_t per = out.numel() / 4;
        for (int i = 0; i < 4; ++i)
            EXPECT_TRUE(bitIdentical(out.data() + i * per,
                                     refs[i].data(), per))
                << "item " << i << ", " << threads << " threads";
    }
}

TEST(BatchedPlan, GroupedConvBatchMatchesReference)
{
    // The merged-column GEMM handles grouped convolutions per group;
    // check odd batch/spatial shapes directly against the reference
    // kernel, unpacked and prepacked.
    ConvProblem p;
    p.n = 3;
    p.ic = 8;
    p.ih = 11;
    p.iw = 13;
    p.oc = 12;
    p.kh = 3;
    p.kw = 3;
    p.stride = 2;
    p.pad = 1;
    p.groups = 2;

    ConvConfig cfg;
    cfg.algo = ConvAlgo::Im2col;
    cfg.mc = 8;
    cfg.kc = 7;
    cfg.nc = 16;
    cfg.mr = 2;
    cfg.nr = 4;
    ASSERT_TRUE(convConfigValid(p, cfg));

    Rng rng(33);
    const int64_t in_n = static_cast<int64_t>(p.n) * p.ic * p.ih * p.iw;
    const int64_t w_n =
        static_cast<int64_t>(p.oc) * (p.ic / p.groups) * p.kh * p.kw;
    const int64_t out_n =
        static_cast<int64_t>(p.n) * p.oc * p.oh() * p.ow();
    std::vector<float> in(in_n), w(w_n), bias(p.oc);
    for (auto &v : in)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : w)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-0.5, 0.5));

    std::vector<float> ref(out_n), got(out_n), pre(out_n);
    convReference(p, in.data(), w.data(), bias.data(), ref.data());
    convForward(p, in.data(), w.data(), bias.data(), got.data(), cfg);
    for (int64_t i = 0; i < out_n; ++i)
        ASSERT_NEAR(ref[i], got[i], 1e-4f) << "at " << i;

    PackedConvWeights packed;
    packConvWeights(p, cfg, w.data(), packed);
    ASSERT_TRUE(packed.valid);
    convForwardPrepacked(p, in.data(), packed, bias.data(), pre.data());
    EXPECT_TRUE(bitIdentical(got.data(), pre.data(), out_n))
        << "prepacked batched conv diverged from on-the-fly path";
}

// --- Shared prepacked weights ----------------------------------------

TEST(SharedPacks, SecondExecutorAndBatchPlansReusePacks)
{
    auto g = buildResNet18(8, 5);
    const Tensor in1 = randomInput(48, 31);
    const Tensor in4 = randomInput(48, 32, 4);

    Graph::Executor ex1(*g);
    Tensor out;
    ex1.runInto(in1, out);
    const uint64_t after_first = convWeightPackCount();

    // A second executor compiling the same shape must share every
    // pack instead of rebuilding them.
    Graph::Executor ex2(*g);
    Tensor out2;
    ex2.runInto(in1, out2);
    EXPECT_EQ(convWeightPackCount(), after_first)
        << "second executor repacked shared weights";
    EXPECT_TRUE(
        bitIdentical(out.data(), out2.data(), out.numel()));

    // Batched plans reuse the batch-1 packs (packs are weight-side
    // only, so they are batch-invariant).
    Tensor out4;
    ex1.runInto(in4, out4);
    EXPECT_EQ(convWeightPackCount(), after_first)
        << "batch-4 plan repacked batch-invariant weights";
}

// --- Concurrent executors --------------------------------------------

TEST(ExecutorConcurrency, ParallelExecutorsMatchSerial)
{
    ThreadsEnv env(2); // conv kernels fork into the shared pool too
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    const Tensor in = randomInput(48, 41);
    const Tensor expect = g->run(in);

    constexpr int kThreads = 4;
    constexpr int kReps = 8;
    std::vector<int> mismatches(kThreads, 0);
    {
        std::vector<std::thread> ts;
        for (int t = 0; t < kThreads; ++t) {
            ts.emplace_back([&, t] {
                Graph::Executor ex(*g);
                Tensor out;
                for (int r = 0; r < kReps; ++r) {
                    ex.runInto(in, out);
                    if (!bitIdentical(out.data(), expect.data(),
                                      expect.numel()))
                        ++mismatches[t];
                }
            });
        }
        for (auto &t : ts)
            t.join();
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "executor thread " << t;
}

// --- ServingEngine behaviour -----------------------------------------

EngineConfig
smallEngineConfig(int workers, int max_batch)
{
    EngineConfig cfg;
    cfg.workers = workers;
    cfg.max_batch = max_batch;
    cfg.max_delay_us = 500;
    cfg.queue_capacity = 32;
    return cfg;
}

TEST(ServingEngine, ServesBitIdenticalToDirectExecution)
{
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    const int res = 48;
    std::vector<Tensor> inputs;
    std::vector<Tensor> expected;
    for (int i = 0; i < 6; ++i) {
        inputs.push_back(randomInput(res, 100 + i));
        expected.push_back(g->run(inputs.back()));
    }

    ServingEngine engine(*g, smallEngineConfig(2, 4));
    std::vector<InferenceRequest> reqs(6);
    for (int i = 0; i < 6; ++i) {
        reqs[i].input = inputs[i];
        ASSERT_TRUE(engine.submit(reqs[i]));
    }
    for (int i = 0; i < 6; ++i) {
        engine.wait(reqs[i]);
        ASSERT_EQ(reqs[i].stateNow(), RequestState::Done);
        EXPECT_TRUE(bitIdentical(reqs[i].output.data(),
                                 expected[i].data(),
                                 expected[i].numel()))
            << "request " << i << " served in batch " << reqs[i].batch;
        EXPECT_GE(reqs[i].batch, 1);
        EXPECT_GT(reqs[i].latency_s, 0.0);
    }
    const EngineStats st = engine.stats();
    EXPECT_EQ(st.served, 6u);
    EXPECT_GE(st.batches, 2u); // 6 requests cannot fit one batch of 4
}

TEST(ServingEngine, QueueSaturationShedsAtAdmission)
{
    auto g = buildResNet18(8, 5);
    const int res = 48;

    EngineConfig cfg = smallEngineConfig(1, 2);
    cfg.queue_capacity = 4;
    cfg.max_delay_us = 0;
    ServingEngine engine(*g, cfg);

    // Burst far past capacity from one thread: the engine can drain
    // at most a few while we submit, so some must be shed.
    constexpr int kBurst = 64;
    std::vector<InferenceRequest> reqs(kBurst);
    const Tensor in = randomInput(res, 55);
    int admitted = 0, shed = 0;
    for (auto &r : reqs) {
        r.input = in;
        if (engine.submit(r))
            ++admitted;
        else
            ++shed;
    }
    EXPECT_GT(shed, 0) << "burst of " << kBurst
                       << " into a 4-deep queue shed nothing";
    for (auto &r : reqs)
        engine.wait(r);
    const EngineStats st = engine.stats();
    EXPECT_EQ(st.served, static_cast<uint64_t>(admitted));
    EXPECT_EQ(st.shed_admission, static_cast<uint64_t>(shed));
    for (auto &r : reqs) {
        const RequestState s = r.stateNow();
        EXPECT_TRUE(s == RequestState::Done || s == RequestState::Shed);
    }
}

TEST(ServingEngine, ExpiredRequestsAreDroppedNotServed)
{
    auto g = buildResNet18(8, 5);
    const int res = 48;

    EngineConfig cfg = smallEngineConfig(1, 1);
    cfg.max_delay_us = 0;
    ServingEngine engine(*g, cfg);

    // Head-of-line request keeps the single worker busy; the one
    // behind it carries a deadline that expires while waiting.
    InferenceRequest head, doomed;
    head.input = randomInput(res, 60);
    doomed.input = randomInput(res, 61);
    doomed.deadline_s = 1e-4;
    ASSERT_TRUE(engine.submit(head));
    ASSERT_TRUE(engine.submit(doomed));
    engine.wait(head);
    engine.wait(doomed);
    EXPECT_EQ(head.stateNow(), RequestState::Done);
    EXPECT_EQ(doomed.stateNow(), RequestState::Expired);
    EXPECT_EQ(engine.stats().expired, 1u);
}

TEST(ServingEngine, ResolutionShedLadderDropsResolutionUnderLoad)
{
    auto g = buildResNet18(8, 5);
    const int res = 64;
    const int shed_res = 32;

    EngineConfig cfg = smallEngineConfig(1, 2);
    cfg.max_delay_us = 0;
    cfg.ladder = resolutionShedLadder(/*shed_depth=*/2, shed_res);
    cfg.warm_shapes = {{1, 3, res, res}, {2, 3, res, res},
                       {1, 3, shed_res, shed_res},
                       {2, 3, shed_res, shed_res}};
    ServingEngine engine(*g, cfg);

    constexpr int kBurst = 12;
    std::vector<InferenceRequest> reqs(kBurst);
    const Tensor in = randomInput(res, 70);
    for (auto &r : reqs) {
        r.input = in;
        ASSERT_TRUE(engine.submit(r));
    }
    int shed_served = 0, native_served = 0;
    for (auto &r : reqs) {
        engine.wait(r);
        ASSERT_EQ(r.stateNow(), RequestState::Done);
        if (r.resolution == shed_res)
            ++shed_served;
        else if (r.resolution == res)
            ++native_served;
    }
    // A 12-deep burst into an idle single worker must trip the
    // depth-2 shed rule for the tail of the queue.
    EXPECT_GT(shed_served, 0) << "queue depth never tripped the ladder";
    // Classifier output shape is resolution-independent, so shed
    // requests still carry a full-sized result.
    for (auto &r : reqs)
        EXPECT_EQ(r.output.numel(), 8);
}

TEST(ServingEngine, ResolutionCapNeverUpsamples)
{
    // A cap above an input's native size is not a target: the batch
    // serves at its native resolution, bit-identical to direct
    // execution, instead of being bilinearly upsampled (which would
    // add compute exactly when the engine is shedding load).
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    const int res = 32;
    const int cap = 64;

    EngineConfig cfg = smallEngineConfig(1, 2);
    cfg.ladder = resolutionShedLadder(/*shed_depth=*/0, cap);
    ServingEngine engine(*g, cfg);

    InferenceRequest r;
    r.input = randomInput(res, 71);
    Tensor expect;
    {
        ThreadsEnv env(1);
        expect = g->run(r.input);
    }
    ASSERT_TRUE(engine.submit(r));
    engine.wait(r);
    ASSERT_EQ(r.stateNow(), RequestState::Done);
    EXPECT_EQ(r.resolution, res) << "a cap above native upsampled";
    EXPECT_TRUE(
        bitIdentical(r.output.data(), expect.data(), expect.numel()));
}

TEST(ServingEngine, CleanShutdownWithInFlightRequests)
{
    auto g = buildResNet18(8, 5);
    const int res = 48;
    ServingEngine engine(*g, smallEngineConfig(2, 4));

    std::vector<InferenceRequest> reqs(10);
    int admitted = 0;
    for (auto &r : reqs) {
        r.input = randomInput(res, 80);
        if (engine.submit(r))
            ++admitted;
    }
    engine.stop(); // must serve everything already admitted
    int done = 0;
    for (auto &r : reqs) {
        const RequestState s = r.stateNow();
        EXPECT_NE(s, RequestState::Queued)
            << "request left dangling by stop()";
        if (s == RequestState::Done)
            ++done;
    }
    EXPECT_EQ(done, admitted);
    // Submitting after stop is a shed, not a hang.
    InferenceRequest late;
    late.input = randomInput(res, 81);
    EXPECT_FALSE(engine.submit(late));
    EXPECT_EQ(late.stateNow(), RequestState::Shed);
}

TEST(ServingEngine, PlanInvalidationWhileServingStaysCorrect)
{
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    const int res = 48;
    const Tensor in = randomInput(res, 90);
    const Tensor expect = g->run(in);

    ServingEngine engine(*g, smallEngineConfig(2, 2));
    for (int round = 0; round < 3; ++round) {
        std::vector<InferenceRequest> reqs(4);
        for (auto &r : reqs) {
            r.input = in;
            ASSERT_TRUE(engine.submit(r));
        }
        for (auto &r : reqs) {
            engine.wait(r);
            ASSERT_EQ(r.stateNow(), RequestState::Done);
            EXPECT_TRUE(bitIdentical(r.output.data(), expect.data(),
                                     expect.numel()))
                << "round " << round;
        }
        // Invalidation between batches is legal while serving: the
        // workers drop their plans and recompile (sharing fresh
        // packs) on the next batch.
        g->invalidatePlans();
    }
    // Structural mutation requires quiescence: drain, mutate, resume.
    engine.drain();
    ASSERT_GT(foldBatchNorms(*g) + 1, 0); // no-op pass; graph stable
    g->invalidatePlans();
    InferenceRequest r;
    r.input = in;
    ASSERT_TRUE(engine.submit(r));
    engine.wait(r);
    EXPECT_TRUE(
        bitIdentical(r.output.data(), expect.data(), expect.numel()));
}

TEST(ServingEngine, WorkersSubmittingParallelConvsDoNotDeadlock)
{
    // Engine workers calling conv kernels that fork into the shared
    // ThreadPool must fall back serially (pool busy / reentrant)
    // instead of deadlocking. TAMRES_THREADS=4 forces the kernels to
    // request parallelism; 4 workers contend for the one pool.
    ThreadsEnv env(4);
    auto g = buildResNet18(8, 5);
    const int res = 48;
    const Tensor in = randomInput(res, 95);
    const Tensor expect = g->run(in);

    ServingEngine engine(*g, smallEngineConfig(4, 2));
    std::vector<InferenceRequest> reqs(16);
    for (auto &r : reqs) {
        r.input = in;
        ASSERT_TRUE(engine.submit(r));
    }
    for (auto &r : reqs) {
        engine.wait(r);
        ASSERT_EQ(r.stateNow(), RequestState::Done);
        EXPECT_TRUE(bitIdentical(r.output.data(), expect.data(),
                                 expect.numel()));
    }
}

// --- Batch-size histogram and latency percentile counters ------------

TEST(ServingEngineStats, BatchHistogramAccountsEveryServedRequest)
{
    auto g = buildResNet18(8, 5);
    const int res = 48;
    EngineConfig cfg = smallEngineConfig(1, 4);
    ServingEngine engine(*g, cfg);

    constexpr int kReqs = 10;
    std::vector<InferenceRequest> reqs(kReqs);
    for (auto &r : reqs) {
        r.input = randomInput(res, 71);
        ASSERT_TRUE(engine.submit(r));
    }
    for (auto &r : reqs)
        engine.wait(r);

    const EngineStats st = engine.stats();
    ASSERT_EQ(st.batch_hist.size(),
              static_cast<size_t>(cfg.max_batch) + 1);
    EXPECT_EQ(st.batch_hist[0], 0u)
        << "no batch of size zero can be formed";
    uint64_t batches = 0, served = 0;
    for (size_t b = 1; b < st.batch_hist.size(); ++b) {
        batches += st.batch_hist[b];
        served += st.batch_hist[b] * b;
    }
    // The histogram is a complete decomposition of the counters: the
    // mass sums to the batch count, the weighted mass to the served
    // count, and the mean follows.
    EXPECT_EQ(batches, st.batches);
    EXPECT_EQ(served, st.served);
    EXPECT_EQ(served, static_cast<uint64_t>(kReqs));
    EXPECT_DOUBLE_EQ(st.mean_batch,
                     static_cast<double>(served) / batches);
}

TEST(ServingEngineStats, MaxBatchOnePinsHistogramToSizeOne)
{
    auto g = buildResNet18(8, 5);
    EngineConfig cfg = smallEngineConfig(1, 1);
    cfg.max_delay_us = 0;
    ServingEngine engine(*g, cfg);

    std::vector<InferenceRequest> reqs(5);
    for (auto &r : reqs) {
        r.input = randomInput(48, 72);
        ASSERT_TRUE(engine.submit(r));
    }
    for (auto &r : reqs)
        engine.wait(r);
    const EngineStats st = engine.stats();
    EXPECT_EQ(st.batch_hist[1], 5u);
    EXPECT_EQ(st.batches, 5u);
    EXPECT_DOUBLE_EQ(st.mean_batch, 1.0);
}

TEST(ServingEngineStats, LatencyPercentilesBoundTheSample)
{
    auto g = buildResNet18(8, 5);
    ServingEngine engine(*g, smallEngineConfig(2, 2));

    constexpr int kReqs = 12;
    std::vector<InferenceRequest> reqs(kReqs);
    double max_latency = 0.0;
    for (auto &r : reqs) {
        r.input = randomInput(48, 73);
        ASSERT_TRUE(engine.submit(r));
    }
    for (auto &r : reqs) {
        engine.wait(r);
        max_latency = std::max(max_latency, r.latency_s);
    }
    // Distributional, not wall-clock: percentiles are positive,
    // ordered, and bounded by the slowest request the clients saw.
    const EngineStats st = engine.stats();
    EXPECT_GT(st.p50_latency_s, 0.0);
    EXPECT_LE(st.p50_latency_s, st.p99_latency_s);
    EXPECT_LE(st.p99_latency_s, max_latency + 1e-9);
}

// --- Zero-allocation, zero-packing steady state ----------------------

TEST(ServingEngineSteadyState, BatchPathIsAllocAndPackFree)
{
    ThreadsEnv env(1);
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    const int res = 48;

    EngineConfig cfg = smallEngineConfig(1, 4);
    cfg.max_delay_us = 100000; // let all four requests join one batch
    cfg.warm_shapes = {{1, 3, res, res}, {2, 3, res, res},
                       {3, 3, res, res}, {4, 3, res, res}};
    ServingEngine engine(*g, cfg);

    std::vector<InferenceRequest> reqs(4);
    for (auto &r : reqs)
        r.input = randomInput(res, 96);

    auto serveRound = [&] {
        for (auto &r : reqs)
            ASSERT_TRUE(engine.submit(r));
        for (auto &r : reqs) {
            engine.wait(r);
            ASSERT_EQ(r.stateNow(), RequestState::Done);
        }
    };

    // Warm every batch size the formation race can produce (1..4) and
    // the request objects' output tensors.
    for (int i = 0; i < 3; ++i)
        serveRound();

    const uint64_t packs = convWeightPackCount();
    const uint64_t allocs = g_alloc_count.load();
    for (int i = 0; i < 3; ++i)
        serveRound();
    EXPECT_EQ(convWeightPackCount(), packs)
        << "steady-state engine batches packed weights";
    EXPECT_EQ(g_alloc_count.load(), allocs)
        << (g_alloc_count.load() - allocs)
        << " heap allocations in 3 steady-state engine rounds";

    // Two resolutions: every worker's plans for both alias one arena,
    // and alternating them after warm-up stays alloc- and pack-free.
    const int res2 = 64;
    EngineConfig cfg2 = cfg;
    for (int b = 1; b <= 4; ++b)
        cfg2.warm_shapes.push_back({b, 3, res2, res2});
    ServingEngine engine2(*g, cfg2);
    std::vector<InferenceRequest> lo(4), hi(4);
    for (auto &r : lo)
        r.input = randomInput(res, 97);
    for (auto &r : hi)
        r.input = randomInput(res2, 98);
    auto serveRes = [&](std::vector<InferenceRequest> &rs) {
        for (auto &r : rs)
            ASSERT_TRUE(engine2.submit(r));
        for (auto &r : rs) {
            engine2.wait(r);
            ASSERT_EQ(r.stateNow(), RequestState::Done);
        }
    };
    for (int i = 0; i < 6; ++i)
        serveRes(i % 2 ? hi : lo);

    const uint64_t packs2 = convWeightPackCount();
    const uint64_t allocs2 = g_alloc_count.load();
    for (int i = 0; i < 6; ++i)
        serveRes(i % 2 ? hi : lo);
    EXPECT_EQ(convWeightPackCount(), packs2)
        << "steady-state engine batches packed weights across "
           "resolutions";
    EXPECT_EQ(g_alloc_count.load(), allocs2)
        << (g_alloc_count.load() - allocs2)
        << " heap allocations in 6 alternating-resolution rounds";
}

// --- Int8 precision tier ---------------------------------------------

/** The fp32 graph's calibrated int8 twin (same seed). */
std::unique_ptr<Graph>
quantTwin(uint64_t seed = 5)
{
    auto q = buildResNet18(8, seed);
    quantizeGraph(*q); // optimizeForInference + quantizeConvs
    return q;
}

TEST(QuantizedPlan, BatchBitIdenticalPerItemAcrossLevelsAndThreads)
{
    // Dynamic per-IMAGE activation scales: batch-N through the
    // planned quantized graph must be bitwise equal to N separate
    // batch-1 runs, at every dispatch level and thread count.
    auto q = quantTwin();
    const int res = 48;
    const Tensor batched = randomInput(res, 21, 4);
    for (const SimdLevel level : {SimdLevel::Scalar, simdDetected()}) {
        SimdLevelGuard guard(level);
        std::vector<Tensor> refs;
        {
            ThreadsEnv env(1);
            for (int i = 0; i < 4; ++i)
                refs.push_back(q->run(itemOf(batched, i)));
        }
        for (const int threads : {1, 4}) {
            ThreadsEnv env(threads);
            const Tensor out = q->run(batched);
            ASSERT_EQ(out.dim(0), 4);
            const int64_t per = out.numel() / 4;
            for (int i = 0; i < 4; ++i) {
                EXPECT_TRUE(bitIdentical(out.data() + i * per,
                                         refs[i].data(), per))
                    << "int8 item " << i << " at "
                    << simdLevelName(level) << ", " << threads
                    << " threads";
            }
        }
    }
}

TEST(ServingEngineInt8, WantInt8ServesOnQuantizedGraphBitIdentical)
{
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    auto q = quantTwin();
    const int res = 48;

    EngineConfig cfg = smallEngineConfig(2, 4);
    cfg.quant_graph = q.get();
    ServingEngine engine(*g, cfg);

    // Mixed traffic: int8 and fp32 requests interleaved. Each must be
    // served on its own graph — bitwise equal to that graph's direct
    // execution — and stamped accordingly.
    Tensor fp32_expect, int8_expect;
    std::vector<InferenceRequest> reqs(8);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].input = randomInput(res, 96);
        reqs[i].want_int8 = (i % 2) == 1;
    }
    {
        ThreadsEnv env(1);
        fp32_expect = g->run(reqs[0].input);
        int8_expect = q->run(reqs[1].input);
    }
    for (auto &r : reqs)
        ASSERT_TRUE(engine.submit(r));
    for (auto &r : reqs) {
        engine.wait(r);
        ASSERT_EQ(r.stateNow(), RequestState::Done);
        EXPECT_EQ(r.served_int8, r.want_int8);
        const Tensor &expect = r.want_int8 ? int8_expect : fp32_expect;
        EXPECT_TRUE(bitIdentical(r.output.data(), expect.data(),
                                 expect.numel()))
            << (r.want_int8 ? "int8" : "fp32") << " request diverged "
            << "from direct execution";
    }
    const EngineStats st = engine.stats();
    EXPECT_EQ(st.served, reqs.size());
    EXPECT_EQ(st.served_int8, reqs.size() / 2);
    EXPECT_GE(st.batches_int8, 1u);
}

TEST(ServingEngineInt8, LadderShedsToInt8UnderDepth)
{
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    auto q = quantTwin();
    const int res = 48;

    EngineConfig cfg = smallEngineConfig(1, 4);
    cfg.quant_graph = q.get();
    // int8_depth = 0: any queue at all sheds precision. Requests do
    // NOT ask for int8 — the ladder imposes it.
    cfg.ladder = precisionFirstLadder(/*int8_depth=*/0,
                                      /*shed_depth=*/1000,
                                      /*shed_resolution=*/0);
    ServingEngine engine(*g, cfg);

    Tensor expect;
    std::vector<InferenceRequest> reqs(6);
    for (auto &r : reqs)
        r.input = randomInput(res, 96);
    {
        ThreadsEnv env(1);
        expect = q->run(reqs[0].input);
    }
    for (auto &r : reqs)
        ASSERT_TRUE(engine.submit(r));
    for (auto &r : reqs) {
        engine.wait(r);
        ASSERT_EQ(r.stateNow(), RequestState::Done);
        EXPECT_TRUE(r.served_int8)
            << "ladder with int8_depth=0 must shed precision";
        EXPECT_TRUE(bitIdentical(r.output.data(), expect.data(),
                                 expect.numel()));
    }
    const EngineStats st = engine.stats();
    EXPECT_EQ(st.served_int8, reqs.size());
}

TEST(ServingEngineInt8, WithoutQuantGraphInt8DegradesToFp32)
{
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    const int res = 48;

    ServingEngine engine(*g, smallEngineConfig(1, 2));
    InferenceRequest r;
    r.input = randomInput(res, 96);
    r.want_int8 = true;
    Tensor expect;
    {
        ThreadsEnv env(1);
        expect = g->run(r.input);
    }
    ASSERT_TRUE(engine.submit(r));
    engine.wait(r);
    ASSERT_EQ(r.stateNow(), RequestState::Done);
    EXPECT_FALSE(r.served_int8);
    EXPECT_TRUE(
        bitIdentical(r.output.data(), expect.data(), expect.numel()));
    EXPECT_EQ(engine.stats().served_int8, 0u);
}

TEST(ServingEngineSteadyState, QuantizedBatchPathIsAllocAndPackFree)
{
    ThreadsEnv env(1);
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    auto q = quantTwin();
    const int res = 48;

    EngineConfig cfg = smallEngineConfig(1, 4);
    cfg.quant_graph = q.get();
    cfg.max_delay_us = 100000; // let all four requests join one batch
    cfg.warm_shapes = {{1, 3, res, res}, {2, 3, res, res},
                       {3, 3, res, res}, {4, 3, res, res}};
    ServingEngine engine(*g, cfg);

    std::vector<InferenceRequest> reqs(4);
    for (auto &r : reqs) {
        r.input = randomInput(res, 96);
        r.want_int8 = true;
    }

    auto serveRound = [&] {
        for (auto &r : reqs)
            ASSERT_TRUE(engine.submit(r));
        for (auto &r : reqs) {
            engine.wait(r);
            ASSERT_EQ(r.stateNow(), RequestState::Done);
            ASSERT_TRUE(r.served_int8);
        }
    };

    // Warm every batch size the formation race can produce (1..4) and
    // the request objects' output tensors.
    for (int i = 0; i < 3; ++i)
        serveRound();

    const uint64_t packs = convWeightPackCount();
    const uint64_t allocs = g_alloc_count.load();
    for (int i = 0; i < 3; ++i)
        serveRound();
    EXPECT_EQ(convWeightPackCount(), packs)
        << "steady-state quantized engine batches packed weights";
    EXPECT_EQ(g_alloc_count.load(), allocs)
        << (g_alloc_count.load() - allocs)
        << " heap allocations in 3 steady-state quantized rounds";
}

} // namespace
} // namespace tamres
