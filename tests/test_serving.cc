/**
 * @file
 * Tests for graph passes (batch-norm folding) and cost-aware
 * resolution selection.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "nn/ops.hh"
#include "nn/passes.hh"
#include "nn/quant.hh"
#include "tensor/tensor_ops.hh"
#include "util/rng.hh"

namespace tamres {
namespace {

TEST(FoldBatchNorms, PreservesResNetOutputs)
{
    auto g = buildResNet18(8, /*seed=*/5);
    Tensor in({1, 3, 64, 64});
    Rng rng(3);
    fillUniform(in, rng, 0.0f, 1.0f);
    const Tensor before = g->run(in);

    const int folded = foldBatchNorms(*g);
    // ResNet-18: stem + 16 block + 3 downsample batch norms.
    EXPECT_EQ(folded, 20);

    const Tensor after = g->run(in);
    EXPECT_LT(maxAbsDiff(before, after), 2e-3f);
}

TEST(FoldBatchNorms, PreservesMobileNetOutputs)
{
    auto g = buildMobileNetV2(8, /*seed=*/9);
    Tensor in({1, 3, 64, 64});
    Rng rng(4);
    fillUniform(in, rng, 0.0f, 1.0f);
    const Tensor before = g->run(in);
    EXPECT_GT(foldBatchNorms(*g), 30);
    const Tensor after = g->run(in);
    // 52 folded layers deep: fp32 accumulation drift is larger than
    // for ResNet-18.
    EXPECT_LT(maxAbsDiff(before, after), 2e-2f);
}

TEST(FoldBatchNorms, FoldingSpeedsUpOrMatches)
{
    // Folding removes a full feature-map traversal per conv; live-node
    // execution must shrink.
    auto g = buildResNet18(8, 5);
    const size_t live_before = g->liveNodes().size();
    foldBatchNorms(*g);
    const size_t live_after = g->liveNodes().size();
    EXPECT_EQ(live_before - live_after, 20u);
}

TEST(OptimizeForInference, ReachesFixpointWithOneInvalidation)
{
    auto g = buildResNet18(8, /*seed=*/5);
    Tensor in({1, 3, 64, 64});
    Rng rng(7);
    fillUniform(in, rng, 0.0f, 1.0f);
    const Tensor before = g->run(in);

    // Running the plan once above compiled it; the unified entry
    // point must bump the plan version EXACTLY once no matter how
    // many rewires its passes perform.
    const uint64_t v0 = g->planVersion();
    const OptimizeStats s1 = optimizeForInference(*g);
    EXPECT_EQ(s1.bn_folded, 20);
    EXPECT_GT(s1.relu_fused, 0);
    EXPECT_GE(s1.rounds, 1);
    EXPECT_EQ(g->planVersion(), v0 + 1)
        << "optimizeForInference must invalidate plans exactly once";

    const Tensor after = g->run(in);
    EXPECT_LT(maxAbsDiff(before, after), 2e-3f);

    // Pass idempotence: a second run rewrites nothing, converges in
    // one round, and still costs exactly one (harmless) bump.
    const OptimizeStats s2 = optimizeForInference(*g);
    EXPECT_EQ(s2.total(), 0);
    EXPECT_EQ(s2.rounds, 1);
    EXPECT_EQ(g->planVersion(), v0 + 2);
    const Tensor again = g->run(in);
    EXPECT_EQ(maxAbsDiff(after, again), 0.0f)
        << "idempotent rerun changed the graph";
}

TEST(QuantizeConvs, BumpsPlanVersionExactlyOnceAndIsIdempotent)
{
    auto g = buildResNet18(8, /*seed=*/5);
    Tensor in({1, 3, 64, 64});
    Rng rng(7);
    fillUniform(in, rng, 0.0f, 1.0f);
    optimizeForInference(*g);
    g->run(in); // compile a plan so the bump is observable

    // The rewrite loop runs under one PlanInvalidationDefer: however
    // many convs it replaces, the plan version moves exactly once.
    const uint64_t v0 = g->planVersion();
    const int rewritten = quantizeConvs(*g);
    EXPECT_GT(rewritten, 0);
    EXPECT_EQ(g->planVersion(), v0 + 1)
        << "quantizeConvs must invalidate plans exactly once";

    // Idempotence: nothing left to rewrite, and a no-op call must
    // not bump plan versions at all (no spurious replans while
    // executors serve).
    const int again = quantizeConvs(*g);
    EXPECT_EQ(again, 0);
    EXPECT_EQ(g->planVersion(), v0 + 1)
        << "a no-op quantizeConvs call must not invalidate plans";

    // quantizeGraph composes the passes: each bumps at most once.
    auto h = buildResNet18(8, /*seed=*/5);
    h->run(in);
    const uint64_t hv0 = h->planVersion();
    const int hq = quantizeGraph(*h);
    EXPECT_EQ(hq, rewritten);
    EXPECT_EQ(h->planVersion(), hv0 + 2)
        << "quantizeGraph = optimizeForInference (one bump) + "
           "quantizeConvs (one bump)";
    EXPECT_EQ(quantizeGraph(*h), 0);
    EXPECT_EQ(h->planVersion(), hv0 + 3)
        << "idempotent rerun: optimizeForInference's harmless bump "
           "only, no quantizeConvs bump";
}

TEST(OptimizeForInference, MatchesManualPassPipeline)
{
    // The unified entry point must produce the same graph (bitwise
    // outputs) as the historical foldBatchNorms + fuseConvRelu
    // sequence on an identically seeded twin.
    auto a = buildMobileNetV2(8, /*seed=*/9);
    auto b = buildMobileNetV2(8, /*seed=*/9);
    const OptimizeStats s = optimizeForInference(*a);
    EXPECT_EQ(s.bn_folded, foldBatchNorms(*b));
    EXPECT_EQ(s.relu_fused, fuseConvRelu(*b));

    Tensor in({1, 3, 64, 64});
    Rng rng(5);
    fillUniform(in, rng, 0.0f, 1.0f);
    const Tensor out_a = a->run(in);
    const Tensor out_b = b->run(in);
    EXPECT_EQ(maxAbsDiff(out_a, out_b), 0.0f);
}

TEST(FoldBatchNorms, IdempotentSecondPass)
{
    auto g = buildResNet18(8, 5);
    EXPECT_EQ(foldBatchNorms(*g), 20);
    EXPECT_EQ(foldBatchNorms(*g), 0);
}

TEST(FuseConvRelu, PreservesResNetOutputs)
{
    auto g = buildResNet18(8, /*seed=*/5);
    Tensor in({1, 3, 64, 64});
    Rng rng(3);
    fillUniform(in, rng, 0.0f, 1.0f);
    foldBatchNorms(*g);
    const Tensor before = g->run(in);

    const int fused = fuseConvRelu(*g);
    // Every block's first conv + the stem fuse; second-in-block convs
    // feed the residual Add pre-activation, so their ReLU follows the
    // Add and must not fuse.
    EXPECT_GT(fused, 8);

    const Tensor after = g->run(in);
    EXPECT_LT(maxAbsDiff(before, after), 1e-5f);
}

TEST(FuseConvRelu, PreservesMobileNetOutputs)
{
    auto g = buildMobileNetV2(8, /*seed=*/9);
    Tensor in({1, 3, 64, 64});
    Rng rng(4);
    fillUniform(in, rng, 0.0f, 1.0f);
    foldBatchNorms(*g);
    const Tensor before = g->run(in);
    EXPECT_GT(fuseConvRelu(*g), 20);
    const Tensor after = g->run(in);
    EXPECT_LT(maxAbsDiff(before, after), 1e-5f);
}

TEST(FuseConvRelu, ShrinksLiveGraphAndIsIdempotent)
{
    auto g = buildResNet18(8, 5);
    foldBatchNorms(*g);
    const size_t live_before = g->liveNodes().size();
    const int fused = fuseConvRelu(*g);
    EXPECT_EQ(live_before - g->liveNodes().size(),
              static_cast<size_t>(fused));
    EXPECT_EQ(fuseConvRelu(*g), 0);
}

TEST(FuseConvRelu, SharedConvOutputNotFused)
{
    // conv feeds both a ReLU and an Add (residual-style): fusing
    // would corrupt the Add's input, so the pass must skip it.
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
    const Tensor before = g.run(in);
    EXPECT_EQ(fuseConvRelu(g), 0);
    const Tensor after = g.run(in);
    EXPECT_LT(maxAbsDiff(before, after), 1e-7f);
}

TEST(GraphRewire, DeadNodesSkipped)
{
    Graph g;
    const auto r1 = g.add(std::make_unique<ReLU>("r1"), {Graph::kInput});
    const auto r2 = g.add(std::make_unique<ReLU>("r2"), {r1});
    g.setOutput(r2);
    g.rewire(r1, Graph::kInput); // r1 becomes dead
    EXPECT_EQ(g.liveNodes().size(), 2u); // input + r2
    Tensor in({1, 2}, std::vector<float>{-1, 3});
    const Tensor out = g.run(in);
    EXPECT_EQ(out[1], 3.0f);
}

TEST(CostAware, LambdaZeroMatchesPlainArgmax)
{
    SyntheticDataset ds(imagenetLike(), 40, 3);
    ScaleModelOptions opts;
    opts.epochs = 8;
    ScaleModel scale({112, 224, 448}, opts);
    scale.train(ds, 0, 30, BackboneArch::ResNet18, {0.75}, 96);
    const std::vector<double> costs = {0.5, 1.8, 7.3};
    for (int i = 30; i < 40; ++i) {
        const Image preview = ds.renderAt(i, 96);
        EXPECT_EQ(scale.chooseResolutionIndexCostAware(preview, 0.0,
                                                       costs),
                  scale.chooseResolutionIndex(preview));
    }
}

TEST(CostAware, LargeLambdaPicksCheapest)
{
    SyntheticDataset ds(imagenetLike(), 20, 3);
    ScaleModelOptions opts;
    opts.epochs = 4;
    ScaleModel scale({112, 224, 448}, opts);
    scale.train(ds, 0, 16, BackboneArch::ResNet18, {0.75}, 96);
    const std::vector<double> costs = {0.5, 1.8, 7.3};
    for (int i = 16; i < 20; ++i) {
        const Image preview = ds.renderAt(i, 96);
        EXPECT_EQ(scale.chooseResolutionIndexCostAware(preview, 100.0,
                                                       costs),
                  0);
    }
}

} // namespace
} // namespace tamres
