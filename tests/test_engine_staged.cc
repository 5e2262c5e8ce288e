/**
 * @file
 * Tests for the StagedServingEngine: a request entering as encoded
 * progressive bytes must flow through ranged preview read ->
 * resumable partial decode -> scale-model decision (capped by the
 * quality-tier ladder) -> incremental read -> batched backbone, produce
 * exactly the inference result of an inline (engine-free) pipeline,
 * meter exactly the bytes its decisions demand, and keep the
 * backbone stage's steady state pack-free.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <chrono>

#include "core/staged_engine.hh"
#include "image/synthetic.hh"
#include "nn/builders.hh"
#include "nn/conv_kernels.hh"
#include "nn/passes.hh"
#include "nn/quant.hh"
#include "sim/dataset.hh"
#include "storage/breaker.hh"
#include "storage/fault_injection.hh"
#include "tests/threads_env.hh"
#include "util/clock.hh"
#include "util/error.hh"

namespace tamres {
namespace {

DatasetSpec
tinySpec()
{
    DatasetSpec spec = imagenetLike();
    spec.mean_height = 96;
    spec.mean_width = 96;
    spec.size_jitter = 0.1;
    return spec;
}

/** Shared fixture state: dataset, trained scale model, filled store. */
class StagedEngineTest : public ::testing::Test
{
  protected:
    static constexpr int kObjects = 4;
    static constexpr int kGridLo = 48;
    static constexpr int kGridHi = 64;

    StagedEngineTest() : ds_(tinySpec(), 24, 11)
    {
        ScaleModelOptions opts;
        opts.epochs = 3;
        scale_ = std::make_unique<ScaleModel>(
            std::vector<int>{kGridLo, kGridHi}, opts);
        scale_->train(ds_, 0, 16, BackboneArch::ResNet18, {0.75}, 64);

        ProgressiveConfig cfg;
        cfg.quality = ds_.spec().encode_quality;
        cfg.entropy = EntropyCoder::Huffman;
        cfg.restart_interval = 32;
        for (int i = 0; i < kObjects; ++i)
            store_.put(static_cast<uint64_t>(i),
                       encodeProgressive(ds_.renderAt(16 + i, 96),
                                         cfg));
    }

    StagedEngineConfig
    baseConfig() const
    {
        StagedEngineConfig cfg;
        cfg.preview_scans = 2;
        cfg.crop_area = 0.75;
        cfg.decode_workers = 1;
        cfg.queue_capacity = 64;
        cfg.backbone.workers = 1;
        cfg.backbone.max_batch = 4;
        cfg.backbone.max_delay_us = 500;
        return cfg;
    }

    /** The engine-free reference for one object's staged flow. */
    struct InlineRef
    {
        int r_idx = 0;
        int scans = 0;
        size_t bytes = 0;
        Tensor input;
    };

    /** The grid index the scale model picks from @p id's preview. */
    int
    previewChoice(uint64_t id, const StagedEngineConfig &cfg) const
    {
        const Image preview = resize(
            centerCropFraction(decodeProgressive(store_.peek(id),
                                                 cfg.preview_scans),
                               cfg.crop_area),
            scale_->options().input_res, scale_->options().input_res);
        return scale_->chooseResolutionIndex(preview);
    }

    InlineRef
    inlineReference(uint64_t id, const StagedEngineConfig &cfg) const
    {
        const EncodedImage &enc = store_.peek(id);
        InlineRef ref;
        ref.r_idx = previewChoice(id, cfg);
        ref.scans = cfg.scan_depth
                        ? std::clamp(cfg.scan_depth(id, ref.r_idx),
                                     cfg.preview_scans,
                                     enc.numScans())
                        : enc.numScans();
        ref.bytes = enc.bytesForScans(ref.scans);
        const int r = scale_->resolutions()[ref.r_idx];
        const Image sized = resize(
            centerCropFraction(decodeProgressive(enc, ref.scans),
                               cfg.crop_area),
            r, r);
        ref.input = Tensor({1, 3, r, r});
        std::copy_n(sized.data(), sized.numel(), ref.input.data());
        return ref;
    }

    /**
     * The decision floor of @p id (no ladder): the fewest scans any
     * grid resolution's decision reads, which stage 1 reads at once.
     */
    int
    decisionFloor(uint64_t id, const StagedEngineConfig &cfg) const
    {
        const int n = store_.peek(id).numScans();
        if (!cfg.scan_depth)
            return n;
        int floor = n;
        for (size_t r = 0; r < scale_->resolutions().size(); ++r)
            floor = std::min(
                floor, std::clamp(cfg.scan_depth(id, static_cast<int>(r)),
                                  cfg.preview_scans, n));
        return floor;
    }

    /**
     * A scan_depth policy under which object @p id still makes a
     * resume read: every scan at the resolution its preview picks,
     * only the preview at any other. The floor is then the preview
     * and the decision reads past it.
     */
    std::function<int(uint64_t, int)>
    resumeReadDepth(uint64_t id, const StagedEngineConfig &cfg) const
    {
        const int chosen = previewChoice(id, cfg);
        const int n = store_.peek(id).numScans();
        const int kprev = cfg.preview_scans;
        return [chosen, n, kprev](uint64_t, int r_idx) {
            return r_idx == chosen ? n : kprev;
        };
    }

    SyntheticDataset ds_;
    std::unique_ptr<ScaleModel> scale_;
    ObjectStore store_;
};

TEST_F(StagedEngineTest, ServesBitIdenticalToInlinePipeline)
{
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    StagedEngineConfig cfg = baseConfig();
    cfg.scan_depth = [](uint64_t, int r_idx) { return 3 + r_idx; };

    // Inline references computed before the engine exists.
    std::vector<InlineRef> refs;
    std::vector<Tensor> expected;
    for (int i = 0; i < kObjects; ++i) {
        refs.push_back(inlineReference(i, cfg));
        expected.push_back(g->run(refs.back().input));
    }

    StagedServingEngine engine(store_, *scale_, g.get(), cfg);
    std::vector<StagedRequest> reqs(kObjects);
    for (int i = 0; i < kObjects; ++i) {
        reqs[i].id = static_cast<uint64_t>(i);
        ASSERT_TRUE(engine.submit(reqs[i]));
    }
    for (int i = 0; i < kObjects; ++i) {
        engine.wait(reqs[i]);
        ASSERT_EQ(reqs[i].stateNow(), StagedState::Done) << i;
        EXPECT_EQ(reqs[i].resolution_index, refs[i].r_idx) << i;
        EXPECT_EQ(reqs[i].resolution,
                  scale_->resolutions()[refs[i].r_idx]);
        EXPECT_EQ(reqs[i].preview_scans, cfg.preview_scans);
        EXPECT_EQ(reqs[i].scans_read, refs[i].scans) << i;
        EXPECT_EQ(reqs[i].bytes_read, refs[i].bytes) << i;
        ASSERT_EQ(reqs[i].infer.output.numel(), expected[i].numel());
        EXPECT_EQ(std::memcmp(reqs[i].infer.output.data(),
                              expected[i].data(),
                              sizeof(float) * expected[i].numel()),
                  0)
            << "request " << i << " output diverged from the inline "
            << "decode -> decide -> infer pipeline";
        EXPECT_GT(reqs[i].latency_s, 0.0);
        EXPECT_GE(reqs[i].latency_s, reqs[i].decode_s);
    }
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.decoded, static_cast<uint64_t>(kObjects));
    EXPECT_EQ(st.backbone.served, static_cast<uint64_t>(kObjects));
}

TEST_F(StagedEngineTest, DecisionOnlyModeMetersExactBytes)
{
    StagedEngineConfig cfg = baseConfig();
    cfg.scan_depth = [](uint64_t, int r_idx) { return 2 + r_idx; };

    // References computed BEFORE the engine exists: the scale model's
    // forward pass reuses internal buffers, so external inference
    // while the decision stage serves is illegal (see contract).
    std::vector<InlineRef> refs;
    for (int i = 0; i < kObjects; ++i)
        refs.push_back(inlineReference(i, cfg));
    store_.resetStats();

    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    std::vector<StagedRequest> reqs(kObjects);
    size_t want_bytes = 0;
    for (int i = 0; i < kObjects; ++i) {
        reqs[i].id = static_cast<uint64_t>(i);
        ASSERT_TRUE(engine.submit(reqs[i]));
    }
    uint64_t want_scans = 0;
    for (int i = 0; i < kObjects; ++i) {
        engine.wait(reqs[i]);
        ASSERT_EQ(reqs[i].stateNow(), StagedState::Done);
        const InlineRef &ref = refs[i];
        EXPECT_EQ(reqs[i].resolution_index, ref.r_idx);
        EXPECT_EQ(reqs[i].scans_read, ref.scans);
        EXPECT_EQ(reqs[i].bytes_read, ref.bytes);
        want_bytes += ref.bytes;
        want_scans += static_cast<uint64_t>(ref.scans);
    }
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.decoded, static_cast<uint64_t>(kObjects));
    EXPECT_EQ(st.bytes_read, want_bytes);
    EXPECT_EQ(st.scans_read, want_scans);
    EXPECT_EQ(st.backbone.served, 0u) << "no backbone stage ran";
    // The store metered exactly what the requests report.
    EXPECT_EQ(store_.stats().bytes_read, want_bytes);
    uint64_t hist_total = 0;
    for (uint64_t h : st.resolution_hist)
        hist_total += h;
    EXPECT_EQ(hist_total, st.decoded);
}

TEST_F(StagedEngineTest, LadderCapLowersExactlyTheHighDecisions)
{
    // First pass, uncapped: record how many decisions land on the
    // high resolution. Decisions are deterministic per object, so a
    // second, capped pass must lower exactly those.
    StagedEngineConfig cfg = baseConfig();
    int high = 0;
    {
        StagedServingEngine engine(store_, *scale_, nullptr, cfg);
        std::vector<StagedRequest> reqs(kObjects);
        for (int i = 0; i < kObjects; ++i) {
            reqs[i].id = static_cast<uint64_t>(i);
            ASSERT_TRUE(engine.submit(reqs[i]));
        }
        for (int i = 0; i < kObjects; ++i) {
            engine.wait(reqs[i]);
            if (reqs[i].resolution == kGridHi)
                ++high;
        }
    }

    // Cap at the low resolution whenever anything is queued (depth is
    // always >= 1 at decision time) — the Section VIII-a ladder with
    // shed_depth 0.
    cfg.ladder = resolutionShedLadder(/*shed_depth=*/0, kGridLo);
    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    std::vector<StagedRequest> reqs(kObjects);
    for (int i = 0; i < kObjects; ++i) {
        reqs[i].id = static_cast<uint64_t>(i);
        ASSERT_TRUE(engine.submit(reqs[i]));
    }
    for (int i = 0; i < kObjects; ++i) {
        engine.wait(reqs[i]);
        ASSERT_EQ(reqs[i].stateNow(), StagedState::Done);
        EXPECT_EQ(reqs[i].resolution, kGridLo)
            << "capped decision must land on the shed resolution";
    }
    EXPECT_EQ(engine.stats().tier_capped,
              static_cast<uint64_t>(high));
}

TEST_F(StagedEngineTest, FixedResolutionHonorsTheLadderCap)
{
    // The static baseline is no exemption from shedding: a tier's
    // resolution cap lowers the fixed resolution exactly as it lowers
    // a scale-model decision.
    StagedEngineConfig cfg = baseConfig();
    cfg.fixed_resolution = kGridHi;
    cfg.ladder = resolutionShedLadder(/*shed_depth=*/0, kGridLo);
    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 1;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    ASSERT_EQ(req.stateNow(), StagedState::Done);
    EXPECT_EQ(req.resolution, kGridLo)
        << "fixed-resolution mode ignored the tier's resolution cap";
    EXPECT_EQ(engine.stats().tier_capped, 1u);
}

TEST_F(StagedEngineTest, FixedResolutionIsTheStaticBaseline)
{
    StagedEngineConfig cfg = baseConfig();
    cfg.fixed_resolution = kGridHi;
    store_.resetStats();
    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 1;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    ASSERT_EQ(req.stateNow(), StagedState::Done);
    EXPECT_EQ(req.resolution, kGridHi);
    EXPECT_EQ(req.preview_scans, 0) << "static mode reads no preview";
    EXPECT_EQ(req.scans_read, store_.peek(1).numScans())
        << "static mode is a full-prefix read";
    EXPECT_EQ(req.bytes_read, store_.peek(1).totalBytes());
}

TEST_F(StagedEngineTest, ExpiredAndShedRequestsTerminate)
{
    StagedEngineConfig cfg = baseConfig();
    cfg.queue_capacity = 2;
    StagedServingEngine engine(store_, *scale_, nullptr, cfg);

    // Saturate the 2-deep decode queue from one thread: some of the
    // burst must shed at admission.
    std::vector<StagedRequest> burst(16);
    int admitted = 0, shed = 0;
    for (auto &r : burst) {
        r.id = 0;
        if (engine.submit(r))
            ++admitted;
        else
            ++shed;
    }
    for (auto &r : burst)
        engine.wait(r);
    EXPECT_GT(shed, 0);
    EXPECT_EQ(engine.stats().shed_admission,
              static_cast<uint64_t>(shed));
    for (auto &r : burst) {
        const StagedState s = r.stateNow();
        EXPECT_TRUE(s == StagedState::Done || s == StagedState::Shed);
    }

    // A request whose deadline has already passed at formation time
    // is dropped before any byte is read.
    store_.resetStats();
    StagedRequest doomed;
    doomed.id = 0;
    doomed.deadline_s = 1e-9;
    ASSERT_TRUE(engine.submit(doomed));
    engine.wait(doomed);
    EXPECT_EQ(doomed.stateNow(), StagedState::Expired);
    EXPECT_EQ(doomed.bytes_read, 0u);
    EXPECT_EQ(engine.stats().expired, 1u);
}

TEST_F(StagedEngineTest, BackboneStageSteadyStateIsPackFree)
{
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    StagedEngineConfig cfg = baseConfig();
    StagedServingEngine engine(store_, *scale_, g.get(), cfg);

    auto round = [&](std::vector<StagedRequest> &reqs) {
        for (int i = 0; i < kObjects; ++i) {
            reqs[i].id = static_cast<uint64_t>(i);
            ASSERT_TRUE(engine.submit(reqs[i]));
        }
        for (auto &r : reqs) {
            engine.wait(r);
            ASSERT_EQ(r.stateNow(), StagedState::Done);
        }
    };

    // Warm round compiles plans and builds the shared prepacks; the
    // steady state must then add ZERO weight packs no matter how many
    // staged rounds run (requests are reused, so the handoff tensors
    // recycle too).
    std::vector<StagedRequest> reqs(kObjects);
    round(reqs);
    const uint64_t packs = convWeightPackCount();
    for (int r = 0; r < 3; ++r)
        round(reqs);
    EXPECT_EQ(convWeightPackCount(), packs)
        << "staged steady state repacked conv weights";
    engine.drain();
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.decoded, static_cast<uint64_t>(4 * kObjects));
    EXPECT_EQ(st.backbone.served, static_cast<uint64_t>(4 * kObjects));
}

TEST_F(StagedEngineTest, ConcurrentDecodeWorkersMatchInline)
{
    // Two decode workers racing over the store and the scale model
    // must produce the same per-object decisions as the serial
    // inline pipeline (TSan leg covers the synchronization).
    StagedEngineConfig cfg = baseConfig();
    cfg.decode_workers = 2;
    cfg.decode_batch = 2;
    cfg.scan_depth = [](uint64_t, int r_idx) { return 3 + r_idx; };
    ThreadsEnv env(4);

    std::vector<InlineRef> refs;
    for (int i = 0; i < kObjects; ++i)
        refs.push_back(inlineReference(i, cfg));

    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    std::vector<StagedRequest> reqs(4 * kObjects);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = static_cast<uint64_t>(i % kObjects);
        ASSERT_TRUE(engine.submit(reqs[i]));
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
        engine.wait(reqs[i]);
        ASSERT_EQ(reqs[i].stateNow(), StagedState::Done);
        const InlineRef &ref = refs[i % kObjects];
        EXPECT_EQ(reqs[i].resolution_index, ref.r_idx) << i;
        EXPECT_EQ(reqs[i].scans_read, ref.scans) << i;
        EXPECT_EQ(reqs[i].bytes_read, ref.bytes) << i;
    }
}

/** Fast backoff so retry tests spend microseconds, not milliseconds. */
static StagedRetryConfig
fastRetry()
{
    StagedRetryConfig rc;
    rc.backoff_base_s = 1e-4;
    rc.backoff_max_s = 1e-3;
    return rc;
}

TEST_F(StagedEngineTest, RetryThenSucceedMatchesCleanPipeline)
{
    // Every range's FIRST delivery throws a transient fault; the
    // retry must recover and the request must then be
    // indistinguishable from a clean run: same decision, same scans,
    // and — because a transient throw delivers zero bytes — the same
    // metered byte count. A decision at the high resolution reads one
    // scan past the floor, so it runs a second fetch stage.
    StagedEngineConfig cfg = baseConfig();
    cfg.retry = fastRetry();
    cfg.scan_depth = [](uint64_t, int r_idx) { return 2 + r_idx; };

    std::vector<InlineRef> refs;
    std::vector<int> stages; // fetch stages each object runs
    int all_stages = 0;
    for (int i = 0; i < kObjects; ++i) {
        refs.push_back(inlineReference(i, cfg));
        stages.push_back(refs.back().scans > decisionFloor(i, cfg) ? 2
                                                                   : 1);
        all_stages += stages.back();
    }

    FaultPolicy policy;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        d.fail = (ctx.attempt == 0);
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    std::vector<StagedRequest> reqs(kObjects);
    for (int i = 0; i < kObjects; ++i) {
        reqs[i].id = static_cast<uint64_t>(i);
        ASSERT_TRUE(engine.submit(reqs[i]));
    }
    for (int i = 0; i < kObjects; ++i) {
        engine.wait(reqs[i]);
        ASSERT_EQ(reqs[i].stateNow(), StagedState::Done) << i;
        EXPECT_EQ(reqs[i].resolution_index, refs[i].r_idx) << i;
        EXPECT_EQ(reqs[i].scans_read, refs[i].scans) << i;
        EXPECT_EQ(reqs[i].scans_intended, refs[i].scans) << i;
        EXPECT_EQ(reqs[i].bytes_read, refs[i].bytes) << i;
        EXPECT_EQ(reqs[i].retries, stages[i])
            << "each fetch stage takes exactly one retry";
    }
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.decoded, static_cast<uint64_t>(kObjects));
    EXPECT_EQ(st.retries, static_cast<uint64_t>(all_stages));
    EXPECT_EQ(st.fetch_faults, static_cast<uint64_t>(all_stages));
    EXPECT_EQ(st.degraded, 0u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.retry_giveups, 0u);
    EXPECT_EQ(faulty.stats().faults_transient,
              static_cast<uint64_t>(all_stages));
}

TEST_F(StagedEngineTest, RetryExhaustedDegradesBitIdentically)
{
    // The resume fetch fails on every attempt; the preview is clean.
    // The request must degrade to the preview scan depth and the
    // served output must be BIT-IDENTICAL to an inline pipeline that
    // decodes exactly that prefix.
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    StagedEngineConfig cfg = baseConfig();
    cfg.retry = fastRetry();
    cfg.scan_depth = resumeReadDepth(0, cfg);

    const EncodedImage &enc = store_.peek(0);
    const Image preview = resize(
        centerCropFraction(decodeProgressive(enc, cfg.preview_scans),
                           cfg.crop_area),
        scale_->options().input_res, scale_->options().input_res);
    const int r_idx = scale_->chooseResolutionIndex(preview);
    const int r = scale_->resolutions()[r_idx];
    const Image degraded_img = resize(
        centerCropFraction(decodeProgressive(enc, cfg.preview_scans),
                           cfg.crop_area),
        r, r);
    Tensor degraded_input({1, 3, r, r});
    std::copy_n(degraded_img.data(), degraded_img.numel(),
                degraded_input.data());
    const Tensor expected = g->run(degraded_input);

    FaultPolicy policy;
    const int kprev = cfg.preview_scans;
    policy.script = [kprev](const FaultContext &ctx) {
        FaultDecision d;
        d.fail = (ctx.from_scans >= kprev);
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedServingEngine engine(faulty, *scale_, g.get(), cfg);
    StagedRequest req;
    req.id = 0;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);

    ASSERT_EQ(req.stateNow(), StagedState::Degraded);
    EXPECT_EQ(req.resolution_index, r_idx);
    EXPECT_EQ(req.scans_read, cfg.preview_scans);
    EXPECT_EQ(req.scans_intended, enc.numScans());
    EXPECT_EQ(req.retries, cfg.retry.max_attempts - 1);
    ASSERT_EQ(req.infer.output.numel(), expected.numel());
    EXPECT_EQ(std::memcmp(req.infer.output.data(), expected.data(),
                          sizeof(float) * expected.numel()),
              0)
        << "degraded response diverged from a clean decode of the "
        << "already-available scan prefix";
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.degraded, 1u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.retry_giveups, 1u);
    EXPECT_EQ(st.fetch_faults,
              static_cast<uint64_t>(cfg.retry.max_attempts));
    EXPECT_EQ(st.backbone.served, 1u)
        << "the degraded request still rode the backbone stage";
}

TEST_F(StagedEngineTest, BackoffNeverOutlivesTheDeadline)
{
    // Every fetch fails and the nominal backoff (5 s) dwarfs the
    // request deadline (250 ms): the engine must abandon the retry
    // sleep instead of serving it, so the request terminates almost
    // immediately — never 5 s later.
    StagedEngineConfig cfg = baseConfig();
    cfg.retry.max_attempts = 10;
    cfg.retry.backoff_base_s = 5.0;
    cfg.retry.backoff_max_s = 5.0;
    cfg.retry.jitter = 0.0;

    FaultPolicy policy;
    policy.script = [](const FaultContext &) {
        FaultDecision d;
        d.fail = true;
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 0;
    req.deadline_s = 0.25;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    const StagedState s = req.stateNow();
    EXPECT_TRUE(s == StagedState::Failed || s == StagedState::Expired)
        << "state " << static_cast<int>(s);
    EXPECT_LT(elapsed, 2.0)
        << "a retry backoff ran past the 250 ms deadline";
    EXPECT_GE(engine.stats().retry_giveups, 1u);
}

TEST_F(StagedEngineTest, PoisonedRequestDoesNotStallItsBatch)
{
    // One request names a missing object; it must fail as a
    // structured terminal while every other request in the same
    // decode drain completes untouched.
    StagedEngineConfig cfg = baseConfig();
    cfg.decode_batch = kObjects + 1;

    std::vector<InlineRef> refs;
    for (int i = 0; i < kObjects; ++i)
        refs.push_back(inlineReference(i, cfg));

    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    StagedRequest poisoned;
    poisoned.id = 404; // never stored
    ASSERT_TRUE(engine.submit(poisoned));
    std::vector<StagedRequest> reqs(kObjects);
    for (int i = 0; i < kObjects; ++i) {
        reqs[i].id = static_cast<uint64_t>(i);
        ASSERT_TRUE(engine.submit(reqs[i]));
    }

    engine.wait(poisoned);
    EXPECT_EQ(poisoned.stateNow(), StagedState::Failed);
    EXPECT_EQ(poisoned.bytes_read, 0u);
    for (int i = 0; i < kObjects; ++i) {
        engine.wait(reqs[i]);
        ASSERT_EQ(reqs[i].stateNow(), StagedState::Done) << i;
        EXPECT_EQ(reqs[i].resolution_index, refs[i].r_idx) << i;
        EXPECT_EQ(reqs[i].scans_read, refs[i].scans) << i;
        EXPECT_EQ(reqs[i].bytes_read, refs[i].bytes) << i;
    }
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.decoded, static_cast<uint64_t>(kObjects));

    // The worker that absorbed the poison keeps serving.
    StagedRequest again;
    again.id = 0;
    ASSERT_TRUE(engine.submit(again));
    engine.wait(again);
    EXPECT_EQ(again.stateNow(), StagedState::Done);
}

TEST_F(StagedEngineTest, ChaosRunTerminatesEveryRequest)
{
    // Seeded stochastic faults across concurrent decode workers:
    // every admitted request must reach a structured terminal, and
    // every Done request must still carry the clean decision.
    StagedEngineConfig cfg = baseConfig();
    cfg.decode_workers = 2;
    cfg.decode_batch = 2;
    cfg.retry = fastRetry();
    ThreadsEnv env(4);

    std::vector<InlineRef> refs;
    for (int i = 0; i < kObjects; ++i)
        refs.push_back(inlineReference(i, cfg));

    FaultPolicy policy;
    policy.seed = 0xC0FFEE;
    policy.transient_p = 0.05;
    policy.truncate_p = 0.04;
    policy.corrupt_p = 0.04;
    policy.latency_tail_p = 0.05;
    policy.latency_tail_scale_s = 2e-4;
    policy.latency_max_s = 2e-3;
    FaultyObjectStore faulty(store_, policy);

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    std::vector<StagedRequest> reqs(8 * kObjects);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = static_cast<uint64_t>(i % kObjects);
        ASSERT_TRUE(engine.submit(reqs[i]));
    }
    uint64_t done = 0, degraded = 0, failed = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        engine.wait(reqs[i]);
        const StagedState s = reqs[i].stateNow();
        switch (s) {
        case StagedState::Done:
            ++done;
            EXPECT_EQ(reqs[i].resolution_index,
                      refs[i % kObjects].r_idx)
                << i;
            EXPECT_EQ(reqs[i].scans_read, refs[i % kObjects].scans)
                << i;
            break;
        case StagedState::Degraded:
            ++degraded;
            EXPECT_GT(reqs[i].scans_read, 0) << i;
            EXPECT_LT(reqs[i].scans_read, reqs[i].scans_intended)
                << i;
            break;
        case StagedState::Failed:
            ++failed;
            break;
        default:
            FAIL() << "request " << i << " reached state "
                   << static_cast<int>(s)
                   << " under chaos with no deadline set";
        }
    }
    engine.drain();
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.decoded, done + degraded);
    EXPECT_EQ(st.done, done);
    EXPECT_EQ(st.degraded, degraded);
    EXPECT_EQ(st.failed, failed);
    EXPECT_GT(done, 0u) << "chaos mix was survivable by design";
    // Terminal conservation: every admitted request reached exactly
    // one terminal.
    EXPECT_EQ(st.admitted, st.done + st.degraded + st.failed +
                               st.expired + st.shed_admission +
                               st.rejected);
}

// --------------------------------------------------------------------
// Overload control plane: circuit breaker, hedged reads, brownout.
// --------------------------------------------------------------------

/**
 * A brownout ladder of @p rungs tiers past full quality: tier 1 caps
 * preview depth at 1 scan and total depth at 2, tier 2 also caps
 * resolution at @p res_floor, tier 3 also refuses admission.
 * Reached only through the outcome window (no tier engages by depth).
 */
QualityLadder
brownoutLadder(int rungs, int res_floor)
{
    QualityLadder ladder(1);
    QualityTier t;
    t.preview_cap = 1;
    t.scan_cap = 2;
    ladder.push_back(t);
    t.resolution_cap = res_floor;
    ladder.push_back(t);
    t.admit = false;
    ladder.push_back(t);
    ladder.resize(static_cast<size_t>(rungs) + 1);
    return ladder;
}

TEST_F(StagedEngineTest, BreakerStateMachineWalksDeterministically)
{
    // Scripted faults + a manual clock drive the full Closed -> Open
    // -> HalfOpen -> (probe failure) -> Open -> HalfOpen -> Closed
    // walk with zero sleeps: every transition is a pure function of
    // the fault schedule and the injected time.
    ManualClock clk;
    std::atomic<bool> failing{true};
    FaultPolicy policy;
    policy.script = [&failing](const FaultContext &) {
        FaultDecision d;
        d.fail = failing.load();
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    BreakerConfig bc;
    bc.clock = &clk;
    bc.window_s = 1.0;
    bc.min_samples = 4;
    bc.failure_threshold = 0.5;
    bc.cooldown_s = 0.5;
    bc.half_open_probes = 1;
    bc.close_after = 2;
    BreakerObjectStore breaker(faulty, bc);

    const int n = store_.peek(0).numScans();
    auto fetch = [&] {
        std::vector<uint8_t> buf;
        breaker.fetchScanRange(0, 0, n, buf, false, SIZE_MAX);
    };

    // Closed: failures accumulate until the window holds min_samples
    // of 100% badness, then the breaker trips.
    for (int i = 0; i < 4; ++i) {
        clk.advance(0.01);
        EXPECT_THROW(fetch(), Error);
        EXPECT_EQ(breaker.state(), i < 3 ? BreakerState::Closed
                                         : BreakerState::Open)
            << "failure " << i;
    }
    EXPECT_EQ(breaker.breakerStats().trips, 1u);

    // Open: fetches fail fast with the typed marker and never reach
    // the base store.
    const uint64_t base_faults = faulty.stats().faults_transient;
    clk.advance(0.01);
    try {
        fetch();
        FAIL() << "an Open breaker admitted a fetch";
    } catch (const Error &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Transient);
        EXPECT_TRUE(e.failFast());
    }
    EXPECT_EQ(faulty.stats().faults_transient, base_faults)
        << "fail-fast must not generate base-store traffic";
    EXPECT_GE(breaker.breakerStats().fast_fails, 1u);

    // Cooldown expires: the next fetch is a HalfOpen probe. The store
    // is still sick, so the probe fails and the breaker re-opens.
    clk.advance(bc.cooldown_s + 0.01);
    EXPECT_THROW(fetch(), Error);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.breakerStats().probe_failures, 1u);
    EXPECT_EQ(breaker.breakerStats().trips, 2u);

    // The store heals; after the next cooldown, close_after probe
    // successes close the breaker.
    failing.store(false);
    clk.advance(bc.cooldown_s + 0.01);
    EXPECT_NO_THROW(fetch());
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    EXPECT_NO_THROW(fetch());
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_EQ(breaker.breakerStats().closes, 1u);

    // Closed again: healthy traffic flows.
    clk.advance(0.01);
    EXPECT_NO_THROW(fetch());
    EXPECT_EQ(breaker.state(), BreakerState::Closed);

    // The merged ReadStats carry the breaker counters.
    const ReadStats rs = breaker.stats();
    EXPECT_EQ(rs.breaker_trips, 2u);
    EXPECT_GE(rs.breaker_fast_fails, 1u);
}

TEST_F(StagedEngineTest, BreakerOpenDegradesWithoutBackoffSleep)
{
    // With the breaker already Open, the engine's retry loop must
    // honor failFast(): no backoff is slept (the manual clock the
    // engine sleeps on does not move), the request terminates
    // immediately instead of burning its deadline toward a store
    // that is known-down.
    ManualClock clk;
    FaultPolicy policy;
    policy.script = [](const FaultContext &) {
        FaultDecision d;
        d.fail = true;
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    BreakerConfig bc;
    bc.clock = &clk;
    bc.min_samples = 1;
    bc.failure_threshold = 0.5;
    bc.cooldown_s = 1e9; // stays Open for the whole test
    BreakerObjectStore breaker(faulty, bc);

    // Trip it with one direct failing fetch.
    {
        std::vector<uint8_t> buf;
        EXPECT_THROW(breaker.fetchScanRange(0, 0, 1, buf, false,
                                            SIZE_MAX),
                     Error);
    }
    ASSERT_EQ(breaker.state(), BreakerState::Open);

    StagedEngineConfig cfg = baseConfig();
    cfg.retry.max_attempts = 10;
    cfg.retry.backoff_base_s = 5.0; // would dominate if ever slept
    cfg.retry.backoff_max_s = 5.0;
    cfg.overload.clock = &clk;

    StagedServingEngine engine(breaker, *scale_, nullptr, cfg);
    const double t0 = clk.now();
    StagedRequest req;
    req.id = 0;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);

    EXPECT_EQ(req.stateNow(), StagedState::Failed)
        << "nothing decodable: no prefix to degrade to";
    EXPECT_EQ(clk.now(), t0)
        << "a fail-fast fetch fault must not sleep a backoff";
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.retry_giveups, 2u)
        << "preview and resume fetches each gave up once";
    EXPECT_EQ(st.retries, 0u);
    EXPECT_GE(breaker.breakerStats().fast_fails, 2u);
    EXPECT_EQ(st.admitted, st.done + st.degraded + st.failed +
                               st.expired + st.shed_admission +
                               st.rejected);
}

/**
 * While @p failing, a store that delivers only each object's first
 * scan: a read from scan 0 is cut after it and every later read
 * fails. Every request then makes a failing resume read and degrades,
 * whatever its tier, preview depth and decision. (No scan_depth
 * policy does that here: at a resolution-capping tier every decision
 * lands on the lowest resolution, so on a two-resolution grid an
 * object whose full-quality decision is the highest cannot read past
 * the floor at both tiers.)
 */
FaultScript
firstScanOnly(const ObjectStore &store, const std::atomic<bool> &failing)
{
    return [&store, &failing](const FaultContext &ctx) {
        FaultDecision d;
        if (failing.load()) {
            d.fail = ctx.from_scans >= 1;
            d.deliver_bytes = store.peek(ctx.id).bytesForScans(1);
        }
        return d;
    };
}

TEST_F(StagedEngineTest, BrownoutTiersDropAndRecoverDeterministically)
{
    // Scripted resume-fetch failures generate Degraded pressure; the
    // controller must walk tier 0 -> 1 -> 2 -> 3 (admission
    // rejection), then — once the store heals — recover back to 0.
    // The walk is driven entirely by the manual clock and runs
    // identically at any decode worker count.
    for (int workers : {1, 2}) {
        ManualClock clk;
        std::atomic<bool> failing{true};
        FaultPolicy policy;
        policy.script = firstScanOnly(store_, failing);
        FaultyObjectStore faulty(store_, policy);

        StagedEngineConfig cfg = baseConfig();
        cfg.decode_workers = workers;
        cfg.retry = fastRetry();
        cfg.overload.clock = &clk;
        cfg.ladder = brownoutLadder(3, kGridLo);
        cfg.overload.quality_window.window_s = 1.0;
        cfg.overload.quality_window.min_samples = 4;
        cfg.overload.quality_window.high_pressure = 0.5;
        cfg.overload.quality_window.low_pressure = 0.25;
        cfg.overload.quality_window.min_dwell_s = 0.5;

        StagedServingEngine engine(faulty, *scale_, nullptr, cfg);

        // One serial submit-wait round of 4 requests; returns how
        // many were refused at admission.
        auto round = [&](std::vector<StagedState> *terminals) {
            int refused = 0;
            for (int i = 0; i < 4; ++i) {
                StagedRequest req;
                req.id = static_cast<uint64_t>(i % kObjects);
                if (!engine.submit(req))
                    ++refused;
                engine.wait(req);
                if (terminals)
                    terminals->push_back(req.stateNow());
            }
            return refused;
        };

        // Pressure rounds: tier must climb one step per round (each
        // round provides min_samples of 100% badness, and the clock
        // provides the dwell).
        for (int want_tier = 1; want_tier <= 3; ++want_tier) {
            clk.advance(1.0);
            round(nullptr);
            EXPECT_EQ(engine.stats().ladder.window_tier, want_tier)
                << "workers " << workers;
        }
        const StagedStats pressured = engine.stats();
        EXPECT_EQ(pressured.ladder.drops, 3u);
        EXPECT_GT(pressured.degraded, 0u);

        // Tier 3 refuses everything with the typed terminal.
        {
            StagedRequest req;
            req.id = 0;
            EXPECT_FALSE(engine.submit(req));
            EXPECT_EQ(req.stateNow(), StagedState::Rejected);
        }
        EXPECT_GT(engine.stats().rejected, 0u);

        // The store heals. Tier 3 sees no outcome samples (it rejects
        // everything), so idle recovery must step it down; the
        // following healthy rounds walk it back to 0.
        failing.store(false);
        int recovery_rounds = 0;
        while (engine.stats().ladder.window_tier > 0 &&
               recovery_rounds < 12) {
            clk.advance(1.5);
            round(nullptr);
            ++recovery_rounds;
        }
        EXPECT_EQ(engine.stats().ladder.window_tier, 0)
            << "workers " << workers << ": controller never recovered";

        // Healthy steady state at tier 0: full quality again.
        clk.advance(1.0);
        std::vector<StagedState> terminals;
        round(&terminals);
        for (StagedState s : terminals)
            EXPECT_EQ(s, StagedState::Done);

        const StagedStats st = engine.stats();
        EXPECT_GE(st.ladder.recoveries, 3u);
        EXPECT_EQ(st.admitted, st.done + st.degraded + st.failed +
                                   st.expired + st.shed_admission +
                                   st.rejected)
            << "workers " << workers;
    }
}

TEST_F(StagedEngineTest, BrownoutTierCapsDepthAndResolution)
{
    // At tier >= 2 a request must see the depth caps AND the
    // resolution floor, and still serve bit-identically to an inline
    // pipeline that decodes exactly the capped prefix.
    ManualClock clk;
    std::atomic<bool> failing{true};
    FaultPolicy policy;
    policy.script = firstScanOnly(store_, failing);
    FaultyObjectStore faulty(store_, policy);

    StagedEngineConfig cfg = baseConfig();
    cfg.retry = fastRetry();
    cfg.overload.clock = &clk;
    // Two rungs: no admission rejection.
    cfg.ladder = brownoutLadder(2, kGridLo);
    cfg.overload.quality_window.window_s = 1.0;
    cfg.overload.quality_window.min_samples = 4;
    cfg.overload.quality_window.high_pressure = 0.5;
    cfg.overload.quality_window.min_dwell_s = 0.5;

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    auto pressure_round = [&] {
        for (int i = 0; i < 4; ++i) {
            StagedRequest req;
            req.id = static_cast<uint64_t>(i % kObjects);
            ASSERT_TRUE(engine.submit(req));
            engine.wait(req);
        }
    };
    clk.advance(1.0);
    pressure_round();
    clk.advance(1.0);
    pressure_round();
    ASSERT_EQ(engine.stats().ladder.window_tier, 2);

    // Healthy request at tier 2: preview capped to 1 scan, total
    // capped to 2, resolution shed to the grid floor.
    failing.store(false);
    StagedRequest req;
    req.id = 1;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    ASSERT_EQ(req.stateNow(), StagedState::Done);
    EXPECT_EQ(req.preview_scans, 1);
    EXPECT_EQ(req.scans_read, 2);
    EXPECT_EQ(req.scans_intended, 2);
    EXPECT_EQ(req.resolution, kGridLo);
    EXPECT_EQ(req.bytes_read, store_.peek(1).bytesForScans(2))
        << "capped request must meter exactly the capped prefix";
    // The capped counter fires exactly when the model's (1-scan
    // preview) choice sat above the floor.
    const Image preview1 = resize(
        centerCropFraction(decodeProgressive(store_.peek(1), 1),
                           cfg.crop_area),
        scale_->options().input_res, scale_->options().input_res);
    if (scale_->resolutions()[scale_->chooseResolutionIndex(
            preview1)] > kGridLo)
        EXPECT_GT(engine.stats().tier_capped, 0u);
    // The ladder's top honored: pressure never pushed past 2.
    EXPECT_LE(engine.stats().ladder.window_tier, 2);
}

TEST_F(StagedEngineTest, BrownoutShedsToInt8BackboneTier)
{
    // Precision before resolution: with an int8 first rung the first
    // brownout step routes backbone traffic to the quantized graph.
    // Scripted faults climb the tier; once the store heals, a clean
    // request must serve Done on the int8 backbone, bit-identical to
    // the quantized graph's direct execution on the exact input the
    // engine built — and terminal conservation must hold throughout.
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    auto q = buildResNet18(8, 5);
    quantizeGraph(*q);

    ManualClock clk;
    std::atomic<bool> failing{true};
    FaultPolicy policy;
    policy.script = firstScanOnly(store_, failing);
    FaultyObjectStore faulty(store_, policy);

    StagedEngineConfig cfg = baseConfig();
    cfg.retry = fastRetry();
    cfg.backbone.quant_graph = q.get();
    cfg.overload.clock = &clk;
    // One rung, precision only: no depth or resolution caps.
    QualityTier int8;
    int8.int8 = true;
    cfg.ladder = {QualityTier{}, int8};
    cfg.overload.quality_window.window_s = 1.0;
    cfg.overload.quality_window.min_samples = 4;
    cfg.overload.quality_window.high_pressure = 0.5;
    cfg.overload.quality_window.min_dwell_s = 0.5;

    StagedServingEngine engine(faulty, *scale_, g.get(), cfg);

    // Pressure round: every request degrades, the window fills with
    // bad outcomes, the tier climbs to 1.
    clk.advance(1.0);
    for (int i = 0; i < 4; ++i) {
        StagedRequest req;
        req.id = static_cast<uint64_t>(i % kObjects);
        ASSERT_TRUE(engine.submit(req));
        engine.wait(req);
    }
    ASSERT_EQ(engine.stats().ladder.window_tier, 1);

    // Healthy request at tier 1: full scan depth and resolution (only
    // precision shed), served on the quantized backbone.
    failing.store(false);
    StagedRequest req;
    req.id = 1;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    ASSERT_EQ(req.stateNow(), StagedState::Done);
    EXPECT_TRUE(req.infer.want_int8);
    EXPECT_TRUE(req.infer.served_int8)
        << "an int8 tier must serve on the quantized graph";
    const Tensor expect = q->run(req.infer.input);
    ASSERT_EQ(req.infer.output.numel(), expect.numel());
    EXPECT_EQ(std::memcmp(req.infer.output.data(), expect.data(),
                          sizeof(float) * expect.numel()),
              0)
        << "int8-tier output diverged from the quantized graph";

    engine.drain();
    const StagedStats st = engine.stats();
    EXPECT_GE(st.tier_int8, 1u);
    EXPECT_GE(st.backbone.served_int8, 1u);
    EXPECT_EQ(st.admitted, st.done + st.degraded + st.failed +
                               st.expired + st.shed_admission +
                               st.rejected + st.cancelled)
        << "terminal conservation with the int8 tier active";
}

TEST_F(StagedEngineTest, HedgedReadCutsInjectedTailLatency)
{
    // The first delivery attempt of every range carries a large
    // injected delay; the retry-attempt draw is clean. With hedging
    // on, the backup fetch (attempt 1) must win long before the
    // primary's delay elapses — and the result must be bit-identical
    // to the clean pipeline. Hedge timing is wall-clock by design, so
    // this test injects REAL delays and bounds REAL elapsed time.
    constexpr double kSlow = 0.25;
    FaultPolicy policy;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        d.delay_s = ctx.attempt == 0 ? kSlow : 0.0;
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedEngineConfig cfg = baseConfig();
    cfg.overload.hedge.enable = true;
    cfg.overload.hedge.max_delay_s = 5e-3; // bootstrap hedge delay
    cfg.overload.hedge.min_delay_s = 1e-3;
    cfg.overload.hedge.max_per_request = 2; // both stage fetches hedge

    std::vector<InlineRef> refs;
    for (int i = 0; i < kObjects; ++i)
        refs.push_back(inlineReference(i, cfg));

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 0;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    ASSERT_EQ(req.stateNow(), StagedState::Done);
    EXPECT_EQ(req.resolution_index, refs[0].r_idx);
    EXPECT_EQ(req.scans_read, refs[0].scans);
    EXPECT_EQ(req.bytes_read, refs[0].bytes)
        << "the adopted winner delivered the exact clean range";
    EXPECT_GE(req.hedges, 1);
    EXPECT_LT(elapsed, kSlow)
        << "hedge failed to cut the injected tail";

    const StagedStats st = engine.stats();
    EXPECT_GE(st.hedges_issued, 1u);
    EXPECT_GE(st.hedge_wins, 1u);
    // Honest metering: once the loser settles, the engine has charged
    // its bytes too (the store metered both fetches all along).
    engine.stop();
    EXPECT_GE(engine.stats().bytes_read, req.bytes_read);
    EXPECT_GE(faulty.stats().requests, 2u);
}

// --------------------------------------------------------------------
// Request lifecycle supervision: cooperative cancellation, timed-fetch
// containment of hung reads, and the serving watchdog.
// --------------------------------------------------------------------

/**
 * Wait up to 10 s for a read to wedge in @p store. On timeout, release
 * every hang (so the engine can still drain) and return false.
 */
bool
awaitHungRead(FaultyObjectStore &store)
{
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (store.stats().faults_hung < 1) {
        if (std::chrono::steady_clock::now() > give_up) {
            store.releaseHangs();
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST_F(StagedEngineTest, StageTimeoutAbandonsHungReadThenRecovers)
{
    // stage_timeout_s bounds the PHYSICAL read, not just backoff (the
    // documented semantics): a preview read wedged indefinitely is
    // abandoned when its stage budget lapses and the stage gives up —
    // but the shortfall is non-fatal. The stage-4 fetch runs on a
    // FRESH budget, recovers the whole range, and the request lands
    // Done at full depth, bit-identical to the inline pipeline that
    // saw the same 0-scan (mid-gray) preview.
    FaultPolicy policy;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        d.hang = ctx.from_scans == 0 && ctx.to_scans == 2 &&
                 ctx.attempt == 0;
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedEngineConfig cfg = baseConfig();
    cfg.retry = fastRetry();
    cfg.retry.stage_timeout_s = 0.05;
    cfg.scan_depth = resumeReadDepth(0, cfg);
    StagedEngineConfig ref_cfg = cfg;
    ref_cfg.preview_scans = 0; // what the degraded decision sees
    const InlineRef ref = inlineReference(0, ref_cfg);

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    StagedRequest req;
    req.id = 0;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    ASSERT_EQ(req.stateNow(), StagedState::Done);
    EXPECT_EQ(req.resolution_index, ref.r_idx);
    EXPECT_EQ(req.scans_read, ref.scans);
    EXPECT_EQ(req.bytes_read, ref.bytes)
        << "the recovery fetch delivered the exact clean range";
    EXPECT_LT(elapsed, 2.0)
        << "a hung read must be bounded by the stage budget, "
           "not by the hang";

    const StagedStats st = engine.stats();
    EXPECT_GE(st.reads_abandoned, 1u);
    EXPECT_GE(st.retry_giveups, 1u);
    EXPECT_EQ(faulty.stats().faults_hung, 1u);
    EXPECT_EQ(st.admitted, st.done + st.degraded + st.failed +
                               st.expired + st.shed_admission +
                               st.rejected + st.cancelled);
}

TEST_F(StagedEngineTest, PermanentHangDegradesAndDrainStaysLive)
{
    // Every resume-range read wedges on every attempt. With the
    // timed-fetch bound the request must degrade to its preview
    // prefix within the stage budget, drain()/stop() must return
    // promptly (the wedged I/O-pool task is woken by the abandoned
    // fetch's token, never joined against a hang), and the abandoned
    // read's late unwind must not double-account bytes_read.
    FaultPolicy policy;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        d.hang = ctx.from_scans >= 1;
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedEngineConfig cfg = baseConfig();
    cfg.retry = fastRetry();
    cfg.retry.stage_timeout_s = 0.04;
    cfg.scan_depth = resumeReadDepth(0, cfg);
    const size_t preview_bytes =
        store_.peek(0).bytesForScans(cfg.preview_scans);

    const auto t0 = std::chrono::steady_clock::now();
    {
        StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
        StagedRequest req;
        req.id = 0;
        ASSERT_TRUE(engine.submit(req));
        engine.wait(req);

        ASSERT_EQ(req.stateNow(), StagedState::Degraded);
        EXPECT_EQ(req.scans_read, cfg.preview_scans)
            << "degrade serves the clean preview prefix";
        EXPECT_GT(req.scans_intended, cfg.preview_scans);
        EXPECT_EQ(req.bytes_read, preview_bytes);

        engine.drain(); // must not wait on the wedged read
        const StagedStats st = engine.stats();
        EXPECT_GE(st.reads_abandoned, 1u);
        EXPECT_GE(st.retry_giveups, 1u);
        EXPECT_EQ(st.bytes_read, preview_bytes)
            << "an abandoned read must not meter bytes it never "
               "delivered";
        EXPECT_EQ(st.admitted, st.done + st.degraded + st.failed +
                                   st.expired + st.shed_admission +
                                   st.rejected + st.cancelled);
        engine.stop();
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(elapsed, 5.0)
        << "drain()/stop() hung on a permanently wedged read";
}

TEST_F(StagedEngineTest, LateCompletionOfAbandonedReadMetersOnce)
{
    // An abandoned read that eventually completes (an uncancellable
    // injected delay, not a hang) must neither crash nor
    // double-account: its token fired at abandonment, so the base
    // store refuses delivery when the sleep finally ends.
    constexpr double kSlowS = 0.15;
    FaultPolicy policy;
    policy.latency_max_s = kSlowS;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        d.delay_s = ctx.from_scans == 0 && ctx.to_scans == 2 &&
                            ctx.attempt == 0
                        ? kSlowS
                        : 0.0;
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedEngineConfig cfg = baseConfig();
    cfg.retry = fastRetry();
    cfg.retry.stage_timeout_s = 0.03;
    cfg.scan_depth = resumeReadDepth(0, cfg);
    StagedEngineConfig ref_cfg = cfg;
    ref_cfg.preview_scans = 0; // the abandoned preview decodes nothing
    const InlineRef ref = inlineReference(0, ref_cfg);

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 0;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    ASSERT_EQ(req.stateNow(), StagedState::Done);
    EXPECT_EQ(req.bytes_read, ref.bytes);

    // stop() joins the I/O pool, so the late completion has settled
    // by the time stats are read.
    engine.stop();
    const StagedStats st = engine.stats();
    EXPECT_GE(st.reads_abandoned, 1u);
    EXPECT_EQ(st.bytes_read, ref.bytes)
        << "late completion double-accounted bytes_read";
    EXPECT_EQ(st.done, 1u);
}

TEST_F(StagedEngineTest, ClientCancelTerminatesCancelledAndLeavesNoTrace)
{
    // A queued request cancelled before formation must terminate
    // Cancelled without touching storage; a re-serve of the same
    // object afterwards must be bit-identical to the clean reference.
    FaultPolicy policy;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        d.delay_s = ctx.id == 0 ? 0.03 : 0.0; // occupy the worker
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedEngineConfig cfg = baseConfig();
    cfg.decode_workers = 1;
    const InlineRef ref = inlineReference(1, cfg);

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    StagedRequest busy, victim;
    busy.id = 0;
    victim.id = 1;
    ASSERT_TRUE(engine.submit(busy));
    ASSERT_TRUE(engine.submit(victim));
    engine.cancel(victim);
    engine.wait(busy);
    engine.wait(victim);

    EXPECT_EQ(busy.stateNow(), StagedState::Done);
    ASSERT_EQ(victim.stateNow(), StagedState::Cancelled);
    EXPECT_EQ(victim.bytes_read, 0u)
        << "cancelled-at-formation must not touch storage";

    // Idempotent + post-terminal cancel is a no-op.
    engine.cancel(victim);

    StagedRequest again;
    again.id = 1;
    ASSERT_TRUE(engine.submit(again));
    engine.wait(again);
    ASSERT_EQ(again.stateNow(), StagedState::Done);
    EXPECT_EQ(again.resolution_index, ref.r_idx);
    EXPECT_EQ(again.scans_read, ref.scans);
    EXPECT_EQ(again.bytes_read, ref.bytes)
        << "re-serve after cancel not bit-identical to clean run";

    const StagedStats st = engine.stats();
    EXPECT_EQ(st.cancelled, 1u);
    EXPECT_EQ(st.admitted, st.done + st.degraded + st.failed +
                               st.expired + st.shed_admission +
                               st.rejected + st.cancelled);
}

TEST_F(StagedEngineTest, ClientCancelWakesWedgedReadMidFlight)
{
    // No stage timeout, no hedge: the worker runs the synchronous
    // fetch path and wedges inside a scripted hang. cancel() must
    // wake the wedged read via the request token (polled between
    // delivery chunks / in the hang loop), and the request must
    // terminate Cancelled with its clean preview prefix metered.
    FaultPolicy policy;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        d.hang = ctx.from_scans >= 1;
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedEngineConfig cfg = baseConfig();
    cfg.scan_depth = resumeReadDepth(0, cfg);
    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 0;
    ASSERT_TRUE(engine.submit(req));
    if (!awaitHungRead(faulty)) {
        engine.wait(req);
        FAIL() << "the request never wedged in its resume read";
    }
    engine.cancel(req);
    engine.wait(req);

    ASSERT_EQ(req.stateNow(), StagedState::Cancelled);
    EXPECT_EQ(req.scans_read, cfg.preview_scans)
        << "cancellation lands on the clean preview boundary";
    EXPECT_EQ(req.bytes_read,
              store_.peek(0).bytesForScans(cfg.preview_scans))
        << "the bytes actually read are still metered";
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.cancelled, 1u);
    EXPECT_EQ(st.bytes_read, req.bytes_read);
}

/**
 * Delivers the first scan of the first multi-scan range, then cancels
 * the request and fetches the rest with the token it was handed: the
 * fetch throws after the base store appended and metered one scan.
 */
class CancelMidRangeStore : public ObjectStore
{
  public:
    explicit CancelMidRangeStore(ObjectStore &base) : base_(&base) {}

    const EncodedImage &
    peek(uint64_t id) const override
    {
        return base_->peek(id);
    }

    ReadStats stats() const override { return base_->stats(); }

    size_t
    fetchScanRange(uint64_t id, int from, int to,
                   std::vector<uint8_t> &dst, bool charge_full,
                   size_t max_bytes,
                   const CancelToken *cancel) override
    {
        if (to - from < 2 || !armed_.exchange(false))
            return base_->fetchScanRange(id, from, to, dst, charge_full,
                                         max_bytes, cancel);
        const size_t got = base_->fetchScanRange(
            id, from, from + 1, dst, charge_full, max_bytes, cancel);
        engine->cancel(*req);
        // A pooled read's token fires once the waiter sees the cancel.
        while (!cancel->fired())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return got + base_->fetchScanRange(id, from + 1, to, dst, false,
                                           max_bytes, cancel);
    }

    StagedServingEngine *engine = nullptr;
    StagedRequest *req = nullptr;

  private:
    ObjectStore *base_;
    std::atomic<bool> armed_{true};
};

class StagedEngineMeterTest : public StagedEngineTest,
                              public ::testing::WithParamInterface<bool>
{};

TEST_P(StagedEngineMeterTest, ThrowingFetchStillMetersDeliveredBytes)
{
    // The store meters the scan it appended before the cancellation
    // made it throw; the engine's meter must agree with the store's on
    // the direct path (hedging off) and the pooled path (hedging on).
    CancelMidRangeStore store(store_);
    StagedEngineConfig cfg = baseConfig();
    cfg.overload.hedge.enable = GetParam();
    StagedServingEngine engine(store, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 0;
    store.engine = &engine;
    store.req = &req;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    ASSERT_EQ(req.stateNow(), StagedState::Cancelled);

    engine.stop(); // a pooled read meters when it settles
    EXPECT_EQ(store.stats().bytes_read, store_.peek(0).bytesForScans(1));
    EXPECT_EQ(engine.stats().bytes_read, store.stats().bytes_read);
}

INSTANTIATE_TEST_SUITE_P(Hedging, StagedEngineMeterTest,
                         ::testing::Bool());

TEST_F(StagedEngineTest, WatchdogFlagsWedgedWorkerAndFailFasts)
{
    // Liveness budgets run on the injectable engine clock: the worker
    // wedges in a hung read, the ManualClock advances past the
    // budget, and the supervisor (wall-clock cadence by design) must
    // flag the silent worker, dump diagnostics, and fail-fast the
    // request — which degrades to its clean preview prefix.
    ManualClock clk;
    FaultPolicy policy;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        d.hang = ctx.from_scans >= 1;
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedEngineConfig cfg = baseConfig();
    cfg.retry = fastRetry();
    cfg.overload.clock = &clk;
    cfg.overload.watchdog.enable = true;
    cfg.overload.watchdog.liveness_budget_s = 1.0;
    cfg.overload.watchdog.poll_interval_s = 0.002;
    cfg.scan_depth = resumeReadDepth(0, cfg);

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 0;
    ASSERT_TRUE(engine.submit(req));
    // Only once the worker is provably wedged does the budget clock
    // move — a deterministic flag, not a racy one.
    if (!awaitHungRead(faulty)) {
        engine.wait(req);
        FAIL() << "the request never wedged in its resume read";
    }
    clk.advance(2.0);
    engine.wait(req);

    ASSERT_EQ(req.stateNow(), StagedState::Degraded)
        << "watchdog fail-fast degrades to the decoded prefix";
    EXPECT_EQ(req.scans_read, cfg.preview_scans);
    const StagedStats st = engine.stats();
    EXPECT_GE(st.watchdog_flags, 1u);
    EXPECT_GE(st.retry_giveups, 1u);
    EXPECT_EQ(st.admitted, st.done + st.degraded + st.failed +
                               st.expired + st.shed_admission +
                               st.rejected + st.cancelled);
}

TEST_F(StagedEngineTest, ChaosWithHangsUnderSupervisionConserves)
{
    // Acceptance: seeded chaos including wedged reads (hang_p > 0)
    // with the full supervision stack on — timed fetches + watchdog —
    // must terminate EVERY request with a structured terminal, keep
    // the extended conservation identity exact, and tear down
    // promptly.
    StagedEngineConfig cfg = baseConfig();
    cfg.decode_workers = 2;
    cfg.decode_batch = 2;
    cfg.retry = fastRetry();
    cfg.retry.stage_timeout_s = 0.02;
    cfg.overload.watchdog.enable = true;
    cfg.overload.watchdog.liveness_budget_s = 0.5;
    cfg.overload.watchdog.poll_interval_s = 0.005;
    ThreadsEnv env(4);

    FaultPolicy policy;
    policy.seed = 0xD06;
    policy.hang_p = 0.08;
    policy.transient_p = 0.05;
    policy.truncate_p = 0.04;
    policy.corrupt_p = 0.03;
    FaultyObjectStore faulty(store_, policy);

    const auto t0 = std::chrono::steady_clock::now();
    {
        StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
        std::vector<StagedRequest> reqs(8 * kObjects);
        for (size_t i = 0; i < reqs.size(); ++i) {
            reqs[i].id = static_cast<uint64_t>(i % kObjects);
            ASSERT_TRUE(engine.submit(reqs[i]));
        }
        for (size_t i = 0; i < reqs.size(); ++i) {
            engine.wait(reqs[i]);
            const StagedState s = reqs[i].stateNow();
            EXPECT_TRUE(s == StagedState::Done ||
                        s == StagedState::Degraded ||
                        s == StagedState::Failed)
                << "request " << i << " reached state "
                << static_cast<int>(s);
        }
        engine.drain();
        const StagedStats st = engine.stats();
        EXPECT_EQ(st.admitted, st.done + st.degraded + st.failed +
                                   st.expired + st.shed_admission +
                                   st.rejected + st.cancelled)
            << "conservation identity broken under hangs";
        EXPECT_GT(st.done, 0u);
        EXPECT_GE(faulty.stats().faults_hung, 1u)
            << "the seed produced no hangs; raise hang_p";
        EXPECT_GE(st.reads_abandoned, faulty.stats().faults_hung)
            << "every hang must have been contained by abandonment";
        engine.stop();
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(elapsed, 30.0) << "supervised chaos run wedged";
}

TEST_F(StagedEngineTest, HedgeBudgetZeroNeverHedges)
{
    // A global in-flight budget of zero disables backups even with
    // hedging enabled: the slow primary is simply awaited.
    FaultPolicy policy;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        d.delay_s = ctx.attempt == 0 ? 0.05 : 0.0;
        return d;
    };
    FaultyObjectStore faulty(store_, policy);

    StagedEngineConfig cfg = baseConfig();
    cfg.overload.hedge.enable = true;
    cfg.overload.hedge.max_delay_s = 2e-3;
    cfg.overload.hedge.inflight_budget = 0;

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 0;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    ASSERT_EQ(req.stateNow(), StagedState::Done);
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.hedges_issued, 0u);
    EXPECT_EQ(st.hedge_wins, 0u);
    EXPECT_EQ(req.hedges, 0);
}

TEST_F(StagedEngineTest, CacheHitSkipsStageOneFetchAndChargesZero)
{
    // Serve the same object twice with the decode cache on: the first
    // request pays the physical fetches and seeds the cache; the
    // second hits at full depth and must charge ZERO store bytes.
    StagedEngineConfig cfg = baseConfig();
    cfg.scan_depth = [](uint64_t, int) { return 4; };
    DecodeCacheConfig ccfg;
    ccfg.require_second_hit = false; // deterministic single-pass seed
    DecodeCache cache(ccfg);
    cfg.cache = &cache;
    store_.attachCache(&cache);
    store_.resetStats();
    const size_t full4 = store_.peek(0).bytesForScans(4);

    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    StagedRequest first;
    first.id = 0;
    ASSERT_TRUE(engine.submit(first));
    engine.wait(first);
    ASSERT_EQ(first.stateNow(), StagedState::Done);
    EXPECT_EQ(first.bytes_read, full4);
    EXPECT_EQ(store_.stats().bytes_read, full4);

    StagedRequest second;
    second.id = 0;
    ASSERT_TRUE(engine.submit(second));
    engine.wait(second);
    ASSERT_EQ(second.stateNow(), StagedState::Done);
    EXPECT_EQ(second.scans_read, 4);
    EXPECT_EQ(second.bytes_read, 0u)
        << "a full-depth hit must skip every physical fetch";
    EXPECT_EQ(store_.stats().bytes_read, full4)
        << "the store saw no extra bytes for the hit request";

    const StagedStats st = engine.stats();
    EXPECT_EQ(st.cache_hits, 1u);
    EXPECT_EQ(st.cache_misses, 1u);
    EXPECT_EQ(st.cache_bytes_saved, full4);
    EXPECT_EQ(st.cache.hits, st.cache_hits + st.cache_resumes)
        << "every cache-level hit is an engine hit or resume";
    engine.stop();
    store_.detachCache(&cache);
}

TEST_F(StagedEngineTest, CachePartialHitChargesOnlyTheDelta)
{
    // A cached shallow prefix (depth 2) under a deeper decision: the
    // stage-1 fetch is skipped, and the stage-4 fetch charges exactly
    // the missing scan range.
    const EncodedImage &enc = store_.peek(0);
    const int deep = std::min(5, enc.numScans());
    DecodeCacheConfig ccfg;
    ccfg.require_second_hit = false;
    DecodeCache cache(ccfg);
    store_.attachCache(&cache);

    {
        // Seed pass: decisions stop at the preview depth, so the
        // cache ends up holding depth-2 entries only.
        StagedEngineConfig cfg = baseConfig();
        cfg.scan_depth = [](uint64_t, int) { return 2; };
        cfg.cache = &cache;
        StagedServingEngine engine(store_, *scale_, nullptr, cfg);
        StagedRequest req;
        req.id = 0;
        ASSERT_TRUE(engine.submit(req));
        engine.wait(req);
        ASSERT_EQ(req.stateNow(), StagedState::Done);
    }
    store_.resetStats();

    StagedEngineConfig cfg = baseConfig();
    cfg.scan_depth = [deep](uint64_t, int) { return deep; };
    cfg.cache = &cache;
    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 0;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    ASSERT_EQ(req.stateNow(), StagedState::Done);
    EXPECT_EQ(req.scans_read, deep);
    const size_t delta =
        enc.bytesForScans(deep) - enc.bytesForScans(2);
    EXPECT_EQ(req.bytes_read, delta)
        << "a partial hit must charge only the missing range";
    EXPECT_EQ(store_.stats().bytes_read, delta);

    const StagedStats st = engine.stats();
    EXPECT_EQ(st.cache_hits, 1u);
    EXPECT_EQ(st.cache_bytes_saved, enc.bytesForScans(2));

    // The stage-4 fetch reached the new depth, so a THIRD request is
    // a full hit: zero bytes.
    StagedRequest third;
    third.id = 0;
    ASSERT_TRUE(engine.submit(third));
    engine.wait(third);
    ASSERT_EQ(third.stateNow(), StagedState::Done);
    EXPECT_EQ(third.bytes_read, 0u);
    engine.stop();
    store_.detachCache(&cache);
}

TEST_F(StagedEngineTest, CacheHitServesBitIdenticalThroughBackbone)
{
    // With preview depth == decision depth, round 2 hits the cached
    // preview entry and must produce byte-for-byte the round-1 (and
    // inline-reference) backbone output: a cache hit can change only
    // what the request paid, never what it was served.
    auto g = buildResNet18(8, 5);
    optimizeForInference(*g);
    StagedEngineConfig cfg = baseConfig();
    cfg.preview_scans = 4;
    cfg.scan_depth = [](uint64_t, int) { return 4; };
    DecodeCacheConfig ccfg;
    ccfg.require_second_hit = false;
    DecodeCache cache(ccfg);
    cfg.cache = &cache;
    store_.attachCache(&cache);

    std::vector<InlineRef> refs;
    std::vector<Tensor> expected;
    for (int i = 0; i < kObjects; ++i) {
        refs.push_back(inlineReference(i, cfg));
        expected.push_back(g->run(refs.back().input));
    }

    StagedServingEngine engine(store_, *scale_, g.get(), cfg);
    for (int round = 0; round < 2; ++round) {
        std::vector<StagedRequest> reqs(kObjects);
        for (int i = 0; i < kObjects; ++i) {
            reqs[i].id = static_cast<uint64_t>(i);
            ASSERT_TRUE(engine.submit(reqs[i]));
        }
        for (int i = 0; i < kObjects; ++i) {
            engine.wait(reqs[i]);
            ASSERT_EQ(reqs[i].stateNow(), StagedState::Done)
                << "round " << round << " object " << i;
            EXPECT_EQ(reqs[i].resolution_index, refs[i].r_idx);
            if (round == 1)
                EXPECT_EQ(reqs[i].bytes_read, 0u)
                    << "round-2 request " << i << " must be a hit";
            ASSERT_EQ(reqs[i].infer.output.numel(),
                      expected[i].numel());
            EXPECT_EQ(std::memcmp(reqs[i].infer.output.data(),
                                  expected[i].data(),
                                  sizeof(float) * expected[i].numel()),
                      0)
                << "round " << round << " object " << i
                << " output diverged";
        }
    }
    const StagedStats st = engine.stats();
    EXPECT_EQ(st.cache_hits, static_cast<uint64_t>(kObjects));
    engine.stop();
    store_.detachCache(&cache);
}

TEST_F(StagedEngineTest, CacheStageFourResumeInFixedResolutionMode)
{
    // fixed_resolution mode never fetches a preview (kprev == 0), so
    // the cache engages on the stage-4 path alone: round 2 resumes
    // from the cached full-depth snapshot and fetches nothing.
    StagedEngineConfig cfg = baseConfig();
    cfg.fixed_resolution = kGridLo;
    cfg.scan_depth = [](uint64_t, int) { return 4; };
    DecodeCacheConfig ccfg;
    ccfg.require_second_hit = false;
    DecodeCache cache(ccfg);
    cfg.cache = &cache;
    const size_t full4 = store_.peek(0).bytesForScans(4);

    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    StagedRequest first;
    first.id = 0;
    ASSERT_TRUE(engine.submit(first));
    engine.wait(first);
    ASSERT_EQ(first.stateNow(), StagedState::Done);
    EXPECT_EQ(first.bytes_read, full4);

    StagedRequest second;
    second.id = 0;
    ASSERT_TRUE(engine.submit(second));
    engine.wait(second);
    ASSERT_EQ(second.stateNow(), StagedState::Done);
    EXPECT_EQ(second.scans_read, 4);
    EXPECT_EQ(second.bytes_read, 0u);

    const StagedStats st = engine.stats();
    EXPECT_EQ(st.cache_hits, 0u) << "no stage-1 lookup without preview";
    EXPECT_EQ(st.cache_resumes, 1u);
    EXPECT_EQ(st.cache_bytes_saved, full4);
    engine.stop();
}

TEST_F(StagedEngineTest, CacheOnConservesTerminalsUnderConcurrency)
{
    // TSan-exercised: multiple workers, repeated traffic over a small
    // hot set with the cache on (second-hit admission active, small
    // capacity to force eviction churn). Terminal conservation and
    // the hit/resume accounting identity must survive the races.
    StagedEngineConfig cfg = baseConfig();
    cfg.decode_workers = 2;
    cfg.decode_batch = 2;
    cfg.scan_depth = [](uint64_t, int r_idx) { return 3 + r_idx; };
    DecodeCacheConfig ccfg;
    ccfg.capacity_bytes = 512u << 10; // small: churn admissions
    DecodeCache cache(ccfg);
    cfg.cache = &cache;
    store_.attachCache(&cache);
    store_.resetStats();

    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    constexpr int kReqs = 48;
    std::vector<StagedRequest> reqs(kReqs);
    for (int i = 0; i < kReqs; ++i) {
        reqs[i].id = static_cast<uint64_t>(i % kObjects);
        ASSERT_TRUE(engine.submit(reqs[i]));
    }
    for (int i = 0; i < kReqs; ++i)
        engine.wait(reqs[i]);
    engine.stop();

    const StagedStats st = engine.stats();
    EXPECT_EQ(st.admitted, static_cast<uint64_t>(kReqs));
    EXPECT_EQ(st.admitted,
              st.done + st.degraded + st.failed + st.expired +
                  st.shed_admission + st.rejected + st.cancelled)
        << "terminal conservation with the cache on";
    EXPECT_EQ(st.done, static_cast<uint64_t>(kReqs));
    EXPECT_EQ(st.cache.hits, st.cache_hits + st.cache_resumes);
    // Honest metering: the store's meter matches the engine's even
    // when hits skipped fetches entirely.
    EXPECT_EQ(store_.stats().bytes_read, st.bytes_read);
    EXPECT_LE(st.cache.bytes, ccfg.capacity_bytes);
    // Hot set of 4 objects over 48 requests: the cache must have
    // actually engaged.
    EXPECT_GT(st.cache_hits + st.cache_resumes, 0u);
    store_.detachCache(&cache);
}

// --------------------------------------------------------------------
// Coalesced stage-1 read: stage 1 reads up to the decision floor in
// one read but decodes only the preview; stage 4 decodes the held
// scans first and reads only what they do not cover.
// --------------------------------------------------------------------

/** Records every range a read asks the store for. */
struct RangeLog
{
    std::mutex mu;
    std::vector<std::pair<int, int>> ranges;

    void
    add(const FaultContext &ctx)
    {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(ctx.from_scans, ctx.to_scans);
    }
};

TEST_F(StagedEngineTest, CoalescedStageOneReadsOnceUpToTheFloor)
{
    // The floor is 3 scans for every object, past the 1-scan preview.
    // Even ids read 3 scans at every resolution (d == floor); odd ids
    // read 4 at the resolution their preview picks (d > floor).
    // Decisions, depths and bytes must match the inline pipeline (a
    // preview decoded from every scan read would decide on 3 scans),
    // and a decision the floor covers costs ONE store read.
    StagedEngineConfig cfg = baseConfig();
    cfg.preview_scans = 1;
    std::vector<int> chosen;
    for (int i = 0; i < kObjects; ++i)
        chosen.push_back(previewChoice(i, cfg));
    cfg.scan_depth = [chosen](uint64_t id, int r_idx) {
        return id % 2 == 1 && r_idx == chosen[id] ? 4 : 3;
    };
    std::vector<InlineRef> refs;
    for (int i = 0; i < kObjects; ++i)
        refs.push_back(inlineReference(i, cfg));
    store_.resetStats();

    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    int one_read = 0, two_reads = 0;
    size_t want_bytes = 0;
    for (int i = 0; i < kObjects; ++i) {
        const uint64_t reads0 = store_.stats().requests;
        StagedRequest req;
        req.id = static_cast<uint64_t>(i);
        ASSERT_TRUE(engine.submit(req));
        engine.wait(req);
        ASSERT_EQ(req.stateNow(), StagedState::Done) << i;
        EXPECT_EQ(req.resolution_index, refs[i].r_idx) << i;
        EXPECT_EQ(req.scans_read, refs[i].scans) << i;
        EXPECT_EQ(req.preview_scans, cfg.preview_scans)
            << "the preview decodes the preview scans only";
        EXPECT_EQ(req.bytes_read, refs[i].bytes) << i;
        const int floor = decisionFloor(i, cfg);
        const uint64_t want_reads =
            refs[i].scans == std::max(cfg.preview_scans, floor) ? 1 : 2;
        EXPECT_EQ(store_.stats().requests - reads0, want_reads) << i;
        ++(want_reads == 1 ? one_read : two_reads);
        want_bytes += refs[i].bytes;
    }
    EXPECT_EQ(one_read, kObjects / 2);
    EXPECT_EQ(two_reads, kObjects / 2);
    EXPECT_EQ(store_.stats().bytes_read, want_bytes)
        << "coalescing read no byte beyond the served depth";
    EXPECT_EQ(engine.stats().bytes_read, want_bytes);
}

TEST_F(StagedEngineTest, CoalescedReadStopsAtATierScanCap)
{
    // A tier capping depth at 3 scans caps the floor by the same rule
    // as the decision: the one coalesced read ends at the served
    // depth, though the policy asks for 4 or 5.
    StagedEngineConfig cfg = baseConfig();
    cfg.scan_depth = [](uint64_t, int r_idx) { return 4 + r_idx; };
    QualityTier capped;
    capped.scan_cap = 3;
    capped.engage_depth = 0; // depth >= 1 at every formation
    cfg.ladder = {QualityTier{}, capped};
    store_.resetStats();

    StagedServingEngine engine(store_, *scale_, nullptr, cfg);
    for (int i = 0; i < kObjects; ++i) {
        const ReadStats before = store_.stats();
        StagedRequest req;
        req.id = static_cast<uint64_t>(i);
        ASSERT_TRUE(engine.submit(req));
        engine.wait(req);
        ASSERT_EQ(req.stateNow(), StagedState::Done) << i;
        const size_t want = store_.peek(i).bytesForScans(3);
        EXPECT_EQ(req.scans_read, 3) << i;
        EXPECT_EQ(req.bytes_read, want) << i;
        EXPECT_EQ(store_.stats().bytes_read - before.bytes_read, want)
            << i;
        EXPECT_EQ(store_.stats().requests - before.requests, 1u) << i;
    }
}

TEST_F(StagedEngineTest, CacheHitTakesNoCoalescedRead)
{
    // A stage-1 hit at the preview depth skips stage 1's read, floor
    // included: the only read is stage 4's, from the hit's depth.
    DecodeCacheConfig ccfg;
    ccfg.require_second_hit = false;
    DecodeCache cache(ccfg);
    store_.attachCache(&cache);
    {
        // Seed pass: decisions stop at the preview depth, so the cache
        // holds a depth-2 entry only.
        StagedEngineConfig cfg = baseConfig();
        cfg.scan_depth = [](uint64_t, int) { return 2; };
        cfg.cache = &cache;
        StagedServingEngine engine(store_, *scale_, nullptr, cfg);
        StagedRequest req;
        req.id = 0;
        ASSERT_TRUE(engine.submit(req));
        engine.wait(req);
        ASSERT_EQ(req.stateNow(), StagedState::Done);
    }

    StagedEngineConfig cfg = baseConfig();
    cfg.scan_depth = [](uint64_t, int r_idx) { return 3 + r_idx; };
    cfg.cache = &cache;
    const InlineRef ref = inlineReference(0, cfg);
    RangeLog log;
    FaultPolicy policy;
    policy.script = [&log](const FaultContext &ctx) {
        log.add(ctx);
        return FaultDecision{};
    };
    FaultyObjectStore faulty(store_, policy);
    store_.resetStats();

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    StagedRequest req;
    req.id = 0;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    ASSERT_EQ(req.stateNow(), StagedState::Done);
    EXPECT_EQ(req.resolution_index, ref.r_idx);
    EXPECT_EQ(req.scans_read, ref.scans);
    const std::vector<std::pair<int, int>> want = {{2, ref.scans}};
    EXPECT_EQ(log.ranges, want);
    const EncodedImage &enc = store_.peek(0);
    EXPECT_EQ(req.bytes_read,
              enc.bytesForScans(ref.scans) - enc.bytesForScans(2));
    EXPECT_EQ(engine.stats().cache_hits, 1u);
    engine.stop();
    store_.detachCache(&cache);
}

TEST_F(StagedEngineTest, TruncatedCoalescedReadStillServesTheDecision)
{
    // The coalesced read [0, 4) is cut halfway through scan 3, past
    // the 2-scan preview but short of the floor. The preview decodes
    // as usual; stage 4 decodes the whole held scan 2, drops the
    // partial scan 3 and reads from it. The request serves Done with
    // the reference decision, and the engine meters what the store
    // sent.
    StagedEngineConfig cfg = baseConfig();
    cfg.scan_depth = [](uint64_t, int r_idx) { return 4 + r_idx; };
    std::vector<InlineRef> refs;
    for (int i = 0; i < kObjects; ++i)
        refs.push_back(inlineReference(i, cfg));
    RangeLog log;
    FaultPolicy policy;
    policy.script = [this, &log](const FaultContext &ctx) {
        log.add(ctx);
        FaultDecision d;
        if (ctx.from_scans == 0 && ctx.attempt == 0) {
            const EncodedImage &enc = store_.peek(ctx.id);
            d.deliver_bytes = enc.bytesForScans(3) +
                              (enc.bytesForScans(4) -
                               enc.bytesForScans(3)) / 2;
        }
        return d;
    };
    FaultyObjectStore faulty(store_, policy);
    store_.resetStats();

    StagedServingEngine engine(faulty, *scale_, nullptr, cfg);
    for (int i = 0; i < kObjects; ++i) {
        {
            std::lock_guard<std::mutex> lock(log.mu);
            log.ranges.clear();
        }
        StagedRequest req;
        req.id = static_cast<uint64_t>(i);
        ASSERT_TRUE(engine.submit(req));
        engine.wait(req);
        ASSERT_EQ(req.stateNow(), StagedState::Done) << i;
        EXPECT_EQ(req.resolution_index, refs[i].r_idx) << i;
        EXPECT_EQ(req.preview_scans, cfg.preview_scans) << i;
        EXPECT_EQ(req.scans_read, refs[i].scans) << i;
        const std::vector<std::pair<int, int>> want = {
            {0, 4}, {3, refs[i].scans}};
        EXPECT_EQ(log.ranges, want) << i;
    }
    EXPECT_EQ(engine.stats().bytes_read, faulty.stats().bytes_read);
    EXPECT_EQ(faulty.stats().faults_truncated,
              static_cast<uint64_t>(kObjects));
}

} // namespace
} // namespace tamres
