/**
 * @file
 * Tests for the core module: quality tables, the Section-V calibration
 * procedure, the scale model, and the pipeline evaluators.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/pipeline.hh"
#include "core/staged_engine.hh"
#include "tests/threads_env.hh"

namespace tamres {
namespace {

/** A small, cheap dataset profile for core tests. */
DatasetSpec
tinySpec()
{
    DatasetSpec spec = imagenetLike();
    spec.mean_height = 160;
    spec.mean_width = 180;
    spec.size_jitter = 0.1;
    return spec;
}

class CoreFixture : public ::testing::Test
{
  protected:
    CoreFixture()
        : ds(tinySpec(), 64, 42),
          model(BackboneArch::ResNet18, ds.spec(), 1),
          table(ds, 0, 24, {112, 168, 224})
    {}

    SyntheticDataset ds;
    BackboneAccuracyModel model;
    QualityTable table;
};

TEST_F(CoreFixture, QualityTableShapes)
{
    EXPECT_EQ(table.numImages(), 24);
    EXPECT_EQ(table.resolutions().size(), 3u);
    EXPECT_EQ(table.numScans(), 5);
}

TEST_F(CoreFixture, ReadFractionMonotone)
{
    for (int i = 0; i < table.numImages(); ++i) {
        const ImageQuality &q = table.entry(i);
        EXPECT_DOUBLE_EQ(q.read_fraction[0], 0.0);
        EXPECT_DOUBLE_EQ(q.read_fraction[q.num_scans], 1.0);
        for (int k = 1; k <= q.num_scans; ++k)
            EXPECT_GT(q.read_fraction[k], q.read_fraction[k - 1]);
    }
}

TEST_F(CoreFixture, SsimImprovesWithScans)
{
    for (int i = 0; i < table.numImages(); ++i) {
        for (int r = 0; r < 3; ++r) {
            for (int k = 1; k <= table.numScans(); ++k) {
                EXPECT_GE(table.entry(i).ssimAt(k, r, 3),
                          table.entry(i).ssimAt(k - 1, r, 3) - 1e-6);
            }
            EXPECT_NEAR(table.entry(i).ssimAt(table.numScans(), r, 3),
                        1.0, 1e-9);
        }
    }
}

TEST_F(CoreFixture, LowerResolutionNeedsFewerScansForSameSsim)
{
    // Downsampling hides missing high-frequency scans: at 112 the
    // same scan prefix scores higher SSIM than at 224 (the mechanism
    // behind the paper's Section V trend).
    double mean112 = 0.0, mean224 = 0.0;
    for (int i = 0; i < table.numImages(); ++i) {
        mean112 += table.entry(i).ssimAt(2, 0, 3);
        mean224 += table.entry(i).ssimAt(2, 2, 3);
    }
    EXPECT_GT(mean112, mean224);
}

TEST_F(CoreFixture, ScansForThreshold)
{
    const int all = table.numScans();
    for (int i = 0; i < 5; ++i) {
        // Impossible threshold -> everything.
        EXPECT_EQ(table.scansForThreshold(i, 0, 1.1), all);
        // Trivial threshold -> nothing.
        EXPECT_EQ(table.scansForThreshold(i, 0, -1.0), 0);
        // Monotone in threshold.
        EXPECT_LE(table.scansForThreshold(i, 0, 0.95),
                  table.scansForThreshold(i, 0, 0.99));
    }
}

TEST_F(CoreFixture, CalibrationRespectsAccuracyBudget)
{
    CalibrationOptions opts;
    opts.max_accuracy_loss = 0.01; // generous on a small sample
    const StoragePolicy policy = calibrate(table, ds, model, opts);
    ASSERT_EQ(policy.thresholds.size(), 3u);
    for (int r = 0; r < 3; ++r) {
        EXPECT_GE(policy.thresholds[r], opts.ssim_lo);
        EXPECT_LE(policy.thresholds[r], opts.ssim_hi);
        const PolicyEval eval = evaluateThreshold(
            table, ds, model, r, policy.thresholds[r], opts.crop_area);
        EXPECT_LE(eval.accuracy_full - eval.accuracy_policy,
                  opts.max_accuracy_loss + 1e-9);
    }
}

TEST_F(CoreFixture, LooserBudgetNeverReadsMore)
{
    CalibrationOptions strict;
    strict.max_accuracy_loss = 0.0005;
    CalibrationOptions loose;
    loose.max_accuracy_loss = 0.05;
    const StoragePolicy p_strict = calibrate(table, ds, model, strict);
    const StoragePolicy p_loose = calibrate(table, ds, model, loose);
    for (int r = 0; r < 3; ++r) {
        const double read_strict =
            evaluateThreshold(table, ds, model, r,
                              p_strict.thresholds[r], 0.75)
                .read_fraction;
        const double read_loose =
            evaluateThreshold(table, ds, model, r,
                              p_loose.thresholds[r], 0.75)
                .read_fraction;
        EXPECT_LE(read_loose, read_strict + 1e-9);
    }
}

TEST_F(CoreFixture, PopulationEvalSharpensAccuracyResolution)
{
    // With an expanded record population, the evaluator can resolve
    // accuracy losses finer than 1/n_table, and read fractions match
    // the table's (bytes come from the measured images either way).
    SyntheticDataset pop_ds(tinySpec(), 4000, 777);
    const EvalPopulation pop{&pop_ds, pop_ds.size()};
    const PolicyEval small =
        evaluateThreshold(table, ds, model, 0, 0.96, 0.75);
    const PolicyEval big =
        evaluateThreshold(table, ds, model, 0, 0.96, 0.75, pop);
    EXPECT_NEAR(big.read_fraction, small.read_fraction, 0.02);
    // Population accuracy is a valid probability and close to the
    // small-sample estimate.
    EXPECT_GT(big.accuracy_policy, 0.0);
    EXPECT_LT(big.accuracy_policy, 1.0);
    EXPECT_NEAR(big.accuracy_policy, small.accuracy_policy, 0.25);
}

TEST_F(CoreFixture, PopulationCalibrationRespectsBudget)
{
    SyntheticDataset pop_ds(tinySpec(), 4000, 778);
    const EvalPopulation pop{&pop_ds, pop_ds.size()};
    CalibrationOptions opts;
    opts.max_accuracy_loss = 0.002;
    const StoragePolicy policy =
        calibrate(table, ds, model, opts, pop);
    for (int r = 0; r < 3; ++r) {
        const PolicyEval eval =
            evaluateThreshold(table, ds, model, r,
                              policy.thresholds[r], 0.75, pop);
        EXPECT_LE(eval.accuracy_full - eval.accuracy_policy,
                  opts.max_accuracy_loss + 1e-9);
    }
}

TEST_F(CoreFixture, EvaluateThresholdSavesBytesAtLowThreshold)
{
    const PolicyEval eval =
        evaluateThreshold(table, ds, model, 0, 0.94, 0.75);
    EXPECT_LT(eval.read_fraction, 1.0);
    EXPECT_GT(eval.read_fraction, 0.0);
    EXPECT_GT(eval.savings(), 0.0);
}

TEST(ScaleFeatures, DimensionAndDeterminism)
{
    SyntheticDataset ds(tinySpec(), 2, 9);
    const Image img = ds.renderAt(0, 128);
    const auto f1 = extractScaleFeatures(img);
    const auto f2 = extractScaleFeatures(img);
    EXPECT_EQ(static_cast<int>(f1.size()), scaleFeatureDim());
    EXPECT_EQ(f1, f2);
}

TEST(ScaleFeatures, ExtentTracksObjectScale)
{
    // Bigger rendered objects must produce larger extent features.
    SyntheticImageSpec spec{.height = 128, .width = 128, .class_id = 0,
                            .seed = 4, .texture_detail = 0.3};
    spec.object_scale = 0.25;
    const auto f_small =
        extractScaleFeatures(generateSyntheticImage(spec));
    spec.object_scale = 0.95;
    const auto f_big =
        extractScaleFeatures(generateSyntheticImage(spec));
    // Feature 5 is the 90th-percentile extent.
    EXPECT_GT(f_big[5], f_small[5]);
}

TEST(ScaleModel, TrainsAndPredictsShape)
{
    SyntheticDataset ds(tinySpec(), 80, 21);
    ScaleModelOptions opts;
    opts.epochs = 10;
    ScaleModel scale({112, 224, 448}, opts);
    const double loss = scale.train(ds, 0, 64, BackboneArch::ResNet18,
                                    {0.25, 0.75}, 128);
    EXPECT_LT(loss, 1.0); // BCE below chance-ish after training
    const Image preview = ds.renderAt(70, 128);
    const Tensor logits = scale.predictLogits(preview);
    EXPECT_EQ(logits.shape(), (Shape{1, 3}));
    const int idx = scale.chooseResolutionIndex(preview);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 3);
    EXPECT_EQ(scale.chooseResolution(preview),
              scale.resolutions()[idx]);
}

TEST(ScaleModel, LearnsScaleSignal)
{
    // Train on a dataset, then check the selector prefers lower
    // resolutions for tighter crops (bigger apparent objects) on
    // average — the core competence the dynamic pipeline needs.
    SyntheticDataset ds(tinySpec(), 160, 33);
    ScaleModelOptions opts;
    opts.epochs = 25;
    ScaleModel scale({112, 224, 448}, opts);
    scale.train(ds, 0, 128, BackboneArch::ResNet18,
                {0.25, 0.56, 0.75, 1.0}, 128);

    double mean_small_crop = 0.0, mean_full = 0.0;
    const int n_eval = 24;
    for (int i = 128; i < 128 + n_eval; ++i) {
        const Image full = ds.renderAt(i, 128);
        const Image tight = centerCropFraction(full, 0.25);
        mean_small_crop += scale.chooseResolution(tight);
        mean_full += scale.chooseResolution(full);
    }
    EXPECT_LE(mean_small_crop / n_eval, mean_full / n_eval + 1e-9);
}

TEST(ScaleModel, TrainingIsThreadCountInvariant)
{
    // Features render in parallel; the crop draws, targets and SGD
    // stay serial, so the trained model must not depend on threads.
    SyntheticDataset ds(tinySpec(), 80, 21);
    ScaleModelOptions opts;
    opts.epochs = 4;
    std::vector<std::vector<float>> logits[2];
    for (int t = 0; t < 2; ++t) {
        ThreadsEnv env(t == 0 ? 1 : 4);
        ScaleModel scale({112, 224, 448}, opts);
        scale.train(ds, 0, 64, BackboneArch::ResNet18, {0.25, 0.56, 1.0},
                    128);
        for (int i = 64; i < 80; ++i) {
            const Tensor l = scale.predictLogits(ds.renderAt(i, 128));
            logits[t].emplace_back(l.data(), l.data() + l.numel());
        }
    }
    ASSERT_EQ(logits[0].size(), 16u);
    for (size_t i = 0; i < logits[0].size(); ++i) {
        ASSERT_EQ(logits[0][i].size(), logits[1][i].size());
        EXPECT_EQ(0, std::memcmp(logits[0][i].data(), logits[1][i].data(),
                                 logits[0][i].size() * sizeof(float)))
            << "preview " << i;
    }
}

TEST(QualityTable, EntriesAreThreadCountInvariant)
{
    SyntheticDataset ds(tinySpec(), 6, 5);
    std::vector<ImageQuality> entries[2];
    for (int t = 0; t < 2; ++t) {
        ThreadsEnv env(t == 0 ? 1 : 4);
        const QualityTable table(ds, 0, 6, {64, 112});
        for (int i = 0; i < table.numImages(); ++i)
            entries[t].push_back(table.entry(i));
    }
    for (size_t i = 0; i < entries[0].size(); ++i) {
        const ImageQuality &a = entries[0][i];
        const ImageQuality &b = entries[1][i];
        ASSERT_EQ(a.ssim.size(), b.ssim.size());
        EXPECT_EQ(0, std::memcmp(a.ssim.data(), b.ssim.data(),
                                 a.ssim.size() * sizeof(double)))
            << "image " << i;
        EXPECT_EQ(a.read_fraction, b.read_fraction);
    }
}

TEST(Pipeline, BackboneGflopsAnchors)
{
    EXPECT_NEAR(backboneGflops(BackboneArch::ResNet18, 224), 1.8, 0.1);
    EXPECT_NEAR(backboneGflops(BackboneArch::ResNet50, 224), 4.1, 0.2);
    EXPECT_NEAR(scaleModelGflops(), 0.08, 0.02);
}

TEST(Pipeline, EvalStaticMatchesDirectCount)
{
    SyntheticDataset ds(tinySpec(), 100, 5);
    BackboneAccuracyModel m(BackboneArch::ResNet18, ds.spec(), 1);
    const PipelineResult r = evalStatic(ds, 0, 100, m, 224, 0.75);
    int correct = 0;
    for (int i = 0; i < 100; ++i)
        correct += m.correct(ds.record(i), 0.75, 224, 1.0);
    EXPECT_DOUBLE_EQ(r.accuracy, correct / 100.0);
    EXPECT_NEAR(r.mean_gflops,
                backboneGflops(BackboneArch::ResNet18, 224), 1e-12);
}

TEST(Pipeline, EvalDynamicProducesHistogram)
{
    SyntheticDataset ds(tinySpec(), 60, 13);
    BackboneAccuracyModel m(BackboneArch::ResNet18, ds.spec(), 1);
    ScaleModelOptions opts;
    opts.epochs = 8;
    ScaleModel scale({112, 224, 448}, opts);
    scale.train(ds, 0, 40, BackboneArch::ResNet18, {0.75}, 96);
    std::vector<int> hist;
    const PipelineResult r =
        evalDynamic(ds, 40, 60, m, scale, 0.75, 96, &hist);
    ASSERT_EQ(hist.size(), 3u);
    EXPECT_EQ(hist[0] + hist[1] + hist[2], 20);
    EXPECT_GE(r.accuracy, 0.0);
    EXPECT_LE(r.accuracy, 1.0);
    // Cost must include the scale model overhead.
    EXPECT_GT(r.mean_gflops,
              backboneGflops(BackboneArch::ResNet18, 112));
}

TEST(Pipeline, DynamicPipelineProcessesStoredImage)
{
    SyntheticDataset ds(tinySpec(), 6, 3);
    ObjectStore store;
    ds.ingest(store, 0, 6);

    ScaleModelOptions opts;
    opts.epochs = 5;
    ScaleModel scale({112, 224}, opts);
    scale.train(ds, 0, 6, BackboneArch::ResNet18, {0.75}, 96);

    // Read depth per resolution: the scans that reach SSIM 0.97.
    const QualityTable table(ds, 0, 6, {112, 224});
    StagedEngineConfig cfg;
    cfg.crop_area = 0.75;
    cfg.scan_depth = [&](uint64_t id, int r_idx) {
        return table.scansForThreshold(
            static_cast<int>(id - ds.record(0).id), r_idx, 0.97);
    };
    StagedServingEngine engine(store, scale, nullptr, cfg);

    StagedRequest req;
    req.id = ds.record(0).id;
    ASSERT_TRUE(engine.submit(req));
    engine.wait(req);
    ASSERT_EQ(req.stateNow(), StagedState::Done);
    EXPECT_TRUE(req.resolution == 112 || req.resolution == 224);
    EXPECT_EQ(engine.resolutions()[req.resolution_index],
              req.resolution);
    EXPECT_GE(req.scans_read, cfg.preview_scans);
    EXPECT_GT(req.bytes_read, 0u);
    EXPECT_EQ(store.stats().bytes_read, req.bytes_read);
    EXPECT_EQ(engine.stats().bytes_read, req.bytes_read);
    EXPECT_LE(req.bytes_read, store.peek(req.id).totalBytes());
}

TEST(Pipeline, PaperResolutionGrid)
{
    const auto &res = paperResolutions();
    ASSERT_EQ(res.size(), 7u);
    EXPECT_EQ(res.front(), 112);
    EXPECT_EQ(res.back(), 448);
}

} // namespace
} // namespace tamres
