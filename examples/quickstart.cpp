/**
 * @file
 * Quickstart: the complete dynamic-resolution flow on a handful of
 * images —
 *   1. generate a synthetic dataset (ImageNet-like profile),
 *   2. progressively encode it into a byte-metered object store,
 *   3. calibrate per-resolution SSIM read thresholds (paper Sec. V),
 *   4. train the scale model (paper Sec. IV, Figure-5 sharding),
 *   5. serve images through a decision-only StagedServingEngine and
 *      report choices, bytes moved, and savings.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "core/pipeline.hh"
#include "core/staged_engine.hh"

using namespace tamres;

int
main()
{
    std::printf("tamres quickstart — dynamic resolution inference\n\n");

    // 1. A small ImageNet-like synthetic dataset (smaller stored
    //    images keep this example fast).
    DatasetSpec spec = imagenetLike();
    spec.mean_height = 220;
    spec.mean_width = 260;
    const int n_cal = 24;  // calibration + training slice
    const int n_serve = 8; // served requests
    SyntheticDataset dataset(spec, n_cal + n_serve, /*seed=*/7);

    // 2. Ingest into the object store (progressive encoding).
    ObjectStore store;
    dataset.ingest(store, 0, dataset.size());
    std::printf("ingested %zu images, %.1f KiB total\n", store.size(),
                store.storedBytes() / 1024.0);

    // 3. Calibrate read thresholds against a simulated trained
    //    backbone (see DESIGN.md for the substitution rationale).
    const std::vector<int> grid = {112, 168, 224, 280};
    BackboneAccuracyModel backbone(BackboneArch::ResNet18, spec, 1);
    QualityTable table(dataset, 0, n_cal, grid);
    CalibrationOptions copts;
    copts.max_accuracy_loss = 0.02; // relaxed for the tiny sample
    const StoragePolicy policy =
        calibrate(table, dataset, backbone, copts);
    for (size_t r = 0; r < grid.size(); ++r) {
        std::printf("calibrated SSIM threshold @%d: %.4f\n", grid[r],
                    policy.thresholds[r]);
    }

    // 4. Train the scale model on the calibration slice.
    ScaleModelOptions sopts;
    sopts.epochs = 20;
    ScaleModel scale(grid, sopts);
    const double loss = scale.train(dataset, 0, n_cal,
                                    BackboneArch::ResNet18,
                                    {0.25, 0.56, 0.75, 1.0}, 192);
    std::printf("scale model trained (final BCE %.3f)\n\n", loss);

    // 5. Serve. Each object's read depth per resolution is measured
    //    once at ingest, while the original pixels are at hand: the
    //    scans that reach the calibrated threshold.
    const QualityTable served(dataset, n_cal, n_cal + n_serve, grid);
    StagedEngineConfig cfg;
    cfg.crop_area = 0.75;
    cfg.scan_depth = [&](uint64_t id, int r_idx) {
        return served.scansForThreshold(
            static_cast<int>(id - dataset.record(n_cal).id), r_idx,
            policy.thresholdFor(r_idx));
    };
    StagedServingEngine engine(store, scale, nullptr, cfg);

    store.resetStats();
    std::printf("%-6s %-10s %-6s %-10s\n", "image", "resolution",
                "scans", "bytes");
    for (int i = n_cal; i < n_cal + n_serve; ++i) {
        StagedRequest req;
        req.id = dataset.record(i).id;
        engine.submit(req);
        engine.wait(req);
        std::printf("%-6d %-10d %-6d %-10zu\n", i, req.resolution,
                    req.scans_read, req.bytes_read);
    }
    const ReadStats &stats = store.stats();
    std::printf("\nserved %d images in %llu ranged reads, read %.1f "
                "KiB of %.1f KiB (%.1f%% saved)\n",
                n_serve, static_cast<unsigned long long>(stats.requests),
                stats.bytes_read / 1024.0, stats.bytes_full / 1024.0,
                stats.savings() * 100);
    return 0;
}
