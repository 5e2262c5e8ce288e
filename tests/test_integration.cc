/**
 * @file
 * Integration tests: the full dynamic-resolution flow — dataset ->
 * progressive store -> calibration -> scale model -> staged engine —
 * exercised end to end at reduced scale, checking the paper's headline
 * claims qualitatively (dynamic near the static apex, positive read
 * savings at bounded accuracy loss).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.hh"
#include "core/staged_engine.hh"

namespace tamres {
namespace {

DatasetSpec
smallSpec()
{
    DatasetSpec spec = imagenetLike();
    spec.mean_height = 170;
    spec.mean_width = 190;
    spec.size_jitter = 0.15;
    return spec;
}

/**
 * Serve records [10, 20) of @p ds from @p store through a
 * decision-only staged engine. Each object's read depth is what its
 * calibrated threshold needs at the decided resolution, measured once
 * at ingest time (a quality table over the served records, encoded
 * with the store's @p codec). Checks that the engine's byte meter
 * agrees with the store's.
 */
std::vector<StagedRequest>
serveDecisions(ObjectStore &store, const ScaleModel &scale,
               const SyntheticDataset &ds, const StoragePolicy &policy,
               const std::vector<int> &grid,
               const ProgressiveConfig &codec)
{
    const QualityTable served(ds, 10, 20, grid, codec);
    StagedEngineConfig cfg;
    cfg.crop_area = 0.75;
    cfg.scan_depth = [&](uint64_t id, int r_idx) {
        return served.scansForThreshold(
            static_cast<int>(id - ds.record(10).id), r_idx,
            policy.thresholdFor(r_idx));
    };
    StagedServingEngine engine(store, scale, nullptr, cfg);
    const uint64_t before = store.stats().bytes_read;
    std::vector<StagedRequest> reqs(10);
    for (int i = 0; i < 10; ++i) {
        reqs[i].id = ds.record(10 + i).id;
        EXPECT_TRUE(engine.submit(reqs[i]));
    }
    for (StagedRequest &req : reqs) {
        engine.wait(req);
        EXPECT_EQ(req.stateNow(), StagedState::Done);
    }
    EXPECT_EQ(engine.stats().bytes_read,
              store.stats().bytes_read - before);
    return reqs;
}

TEST(Integration, CalibratedPolicySavesBytesWithoutAccuracyCollapse)
{
    SyntheticDataset ds(smallSpec(), 48, 77);
    BackboneAccuracyModel model(BackboneArch::ResNet18, ds.spec(), 1);
    QualityTable table(ds, 0, 48, {112, 224});

    CalibrationOptions opts;
    opts.max_accuracy_loss = 0.011; // scaled to the small sample
    const StoragePolicy policy = calibrate(table, ds, model, opts);

    double total_read = 0.0;
    for (int r = 0; r < 2; ++r) {
        const StorageRow row =
            evalStaticStorage(table, ds, model, r, policy, 0.75);
        EXPECT_GE(row.accuracy_calibrated,
                  row.accuracy_default - opts.max_accuracy_loss - 1e-9);
        total_read += row.read_fraction;
    }
    // Some savings must materialize across the two resolutions.
    EXPECT_LT(total_read / 2, 1.0);
}

TEST(Integration, DynamicNearStaticApex)
{
    // Train the scale model, then verify the dynamic pipeline's
    // accuracy is close to the best static resolution while not
    // costing more FLOPs than the most expensive static point —
    // the Figure 8/9 property.
    SyntheticDataset ds(smallSpec(), 360, 55);
    BackboneAccuracyModel model(BackboneArch::ResNet18, ds.spec(), 1);

    ScaleModelOptions opts;
    opts.epochs = 30;
    const std::vector<int> grid = {112, 168, 224, 280, 336};
    ScaleModel scale(grid, opts);
    scale.train(ds, 0, 280, BackboneArch::ResNet18,
                {0.25, 0.56, 0.75, 1.0}, 128);

    for (const double crop : {0.25, 0.75}) {
        double best_static = 0.0;
        for (int r : grid) {
            best_static = std::max(
                best_static,
                evalStatic(ds, 280, 360, model, r, crop).accuracy);
        }
        const PipelineResult dyn =
            evalDynamic(ds, 280, 360, model, scale, crop, 128);
        // Within a few points of the apex on this small sample.
        EXPECT_GT(dyn.accuracy, best_static - 0.10)
            << "crop " << crop;
        EXPECT_LT(dyn.mean_gflops,
                  backboneGflops(BackboneArch::ResNet18, 336) +
                      scaleModelGflops() + 1e-9);
    }
}

TEST(Integration, EndToEndStoreToDecision)
{
    SyntheticDataset ds(smallSpec(), 20, 99);
    ObjectStore store;
    ds.ingest(store, 0, 20);
    EXPECT_EQ(store.size(), 20u);

    // Calibrate on the first half.
    BackboneAccuracyModel model(BackboneArch::ResNet18, ds.spec(), 1);
    QualityTable table(ds, 0, 10, {112, 224});
    CalibrationOptions copts;
    copts.max_accuracy_loss = 0.02;
    const StoragePolicy policy = calibrate(table, ds, model, copts);

    ScaleModelOptions sopts;
    sopts.epochs = 10;
    ScaleModel scale({112, 224}, sopts);
    scale.train(ds, 0, 10, BackboneArch::ResNet18, {0.75}, 96);

    ProgressiveConfig plain;
    plain.quality = ds.spec().encode_quality;
    store.resetStats();
    const std::vector<StagedRequest> reqs =
        serveDecisions(store, scale, ds, policy, {112, 224}, plain);
    uint64_t bytes = 0;
    for (const StagedRequest &req : reqs) {
        bytes += req.bytes_read;
        EXPECT_GT(req.resolution, 0);
    }
    EXPECT_EQ(store.stats().bytes_read, bytes);
    // The pipeline must not read everything for every image.
    EXPECT_LT(store.stats().relativeReadSize(), 1.0 + 1e-9);
}

TEST(Integration, CodecModesComposeWithPipeline)
{
    // Ingest the same dataset under the default codec and under the
    // compact configuration (successive approximation + YCbCr 4:2:0 +
    // Huffman); both stores must drive the full calibrate -> scale
    // model -> staged serving flow, and the compact store must move
    // strictly fewer absolute bytes for the same requests.
    SyntheticDataset ds(smallSpec(), 20, 123);

    ProgressiveConfig compact;
    compact.quality = ds.spec().encode_quality;
    compact.scans = ProgressiveConfig::successiveScans();
    compact.color = ColorMode::YCbCr420;
    compact.entropy = EntropyCoder::Huffman;
    ProgressiveConfig plain;
    plain.quality = ds.spec().encode_quality;

    BackboneAccuracyModel model(BackboneArch::ResNet18, ds.spec(), 1);
    ScaleModelOptions sopts;
    sopts.epochs = 10;
    ScaleModel scale({112, 224}, sopts);
    scale.train(ds, 0, 10, BackboneArch::ResNet18, {0.75}, 96);

    uint64_t bytes[2] = {0, 0};
    for (const bool use_compact : {false, true}) {
        ObjectStore store;
        if (use_compact)
            ds.ingest(store, 0, 20, compact);
        else
            ds.ingest(store, 0, 20);

        CalibrationOptions copts;
        copts.max_accuracy_loss = 0.02;
        const StoragePolicy policy =
            use_compact
                ? calibrate(QualityTable(ds, 0, 10, {112, 224},
                                         compact),
                            ds, model, copts)
                : calibrate(QualityTable(ds, 0, 10, {112, 224}), ds,
                            model, copts);

        const std::vector<StagedRequest> reqs = serveDecisions(
            store, scale, ds, policy, {112, 224},
            use_compact ? compact : plain);
        for (const StagedRequest &req : reqs) {
            EXPECT_GT(req.resolution, 0);
            EXPECT_GT(req.bytes_read, 0u);
            bytes[use_compact] += req.bytes_read;
        }
        EXPECT_EQ(store.stats().bytes_read, bytes[use_compact]);
    }
    EXPECT_LT(bytes[1], bytes[0])
        << "compact codec config should move fewer bytes end to end";
}

TEST(Integration, DynamicStorageRowBoundedBy112Reads)
{
    // Paper Section VII-b: dynamic read savings are bounded by the
    // bytes the 112 preview needs — the preview is always fetched.
    SyntheticDataset ds(smallSpec(), 30, 31);
    BackboneAccuracyModel model(BackboneArch::ResNet18, ds.spec(), 1);
    QualityTable table(ds, 0, 30, {112, 224});
    CalibrationOptions copts;
    copts.max_accuracy_loss = 0.02;
    const StoragePolicy policy = calibrate(table, ds, model, copts);

    ScaleModelOptions sopts;
    sopts.epochs = 8;
    ScaleModel scale({112, 224}, sopts);
    scale.train(ds, 0, 30, BackboneArch::ResNet18, {0.75}, 96);

    const StorageRow dyn = evalDynamicStorage(table, ds, model, scale,
                                              policy, 0.75);

    // Mean 112-policy read fraction lower-bounds the dynamic reads.
    double read112 = 0.0;
    for (int i = 0; i < table.numImages(); ++i) {
        const int k =
            table.scansForThreshold(i, 0, policy.thresholdFor(0));
        read112 += table.entry(i).read_fraction[k];
    }
    read112 /= table.numImages();
    EXPECT_GE(dyn.read_fraction, read112 - 1e-9);
    EXPECT_LE(dyn.read_fraction, 1.0 + 1e-9);
}

} // namespace
} // namespace tamres
