/**
 * @file
 * Dynamic-resolution serving (paper Section VIII-a): a request stream
 * served by the staged engine, with a mid-run load burst handled by
 * shrinking the crop — the scale model automatically compensates by
 * lowering chosen resolutions, cutting average compute cost without a
 * model swap. The crop is an engine setting, so one decision-only
 * engine serves each crop.
 *
 * Build & run:  ./build/examples/dynamic_serving
 */

#include <cstdio>
#include <memory>

#include "core/pipeline.hh"
#include "core/staged_engine.hh"

using namespace tamres;

int
main()
{
    std::printf("tamres example — dynamic serving with load "
                "shedding\n\n");

    DatasetSpec spec = imagenetLike();
    spec.mean_height = 200;
    spec.mean_width = 240;
    const int n_train = 24;
    const int n_requests = 30;
    SyntheticDataset dataset(spec, n_train + n_requests, 13);

    ObjectStore store;
    dataset.ingest(store, 0, dataset.size());

    const std::vector<int> grid = {112, 168, 224, 280, 336};
    ScaleModelOptions sopts;
    sopts.epochs = 20;
    ScaleModel scale(grid, sopts);
    scale.train(dataset, 0, n_train, BackboneArch::ResNet18,
                {0.25, 0.56, 0.75, 1.0}, 192);

    // Read depth per object and resolution, measured at ingest: the
    // scans whose decode reaches SSIM 0.97 against the full decode.
    const QualityTable table(dataset, n_train, n_train + n_requests,
                             grid);
    auto engineFor = [&](double crop_area) {
        StagedEngineConfig cfg;
        cfg.crop_area = crop_area;
        cfg.scan_depth = [&](uint64_t id, int r_idx) {
            return table.scansForThreshold(
                static_cast<int>(id - dataset.record(n_train).id), r_idx,
                0.97);
        };
        return std::make_unique<StagedServingEngine>(store, scale,
                                                     nullptr, cfg);
    };
    const auto normal = engineFor(0.75);
    const auto shed = engineFor(0.30);

    const BandwidthModel bw;
    double gflops_normal = 0.0, gflops_burst = 0.0;
    uint64_t bytes_normal = 0, bytes_burst = 0;
    // Store reads, not requests, pay the per-read latency: a decision
    // the coalesced stage-1 read covers costs one, others two.
    uint64_t reads_normal = 0, reads_burst = 0;
    int count_normal = 0, count_burst = 0;

    for (int i = 0; i < n_requests; ++i) {
        // A burst arrives for requests 10..19: shed load by shrinking
        // the crop (objects appear larger; the scale model then picks
        // cheaper resolutions — paper Section VIII-a).
        const bool burst = i >= 10 && i < 20;
        StagedServingEngine &engine = burst ? *shed : *normal;

        StagedRequest req;
        req.id = dataset.record(n_train + i).id;
        const uint64_t reads0 = store.stats().requests;
        engine.submit(req);
        engine.wait(req);
        const uint64_t reads = store.stats().requests - reads0;
        const double gf =
            backboneGflops(BackboneArch::ResNet18, req.resolution) +
            scaleModelGflops();
        std::printf("req %2d %s crop=%.2f -> res %3d, %5zu bytes, "
                    "%llu reads, %.2f GFLOPs\n",
                    i, burst ? "[burst]" : "        ",
                    burst ? 0.30 : 0.75, req.resolution, req.bytes_read,
                    static_cast<unsigned long long>(reads), gf);
        if (burst) {
            gflops_burst += gf;
            bytes_burst += req.bytes_read;
            reads_burst += reads;
            ++count_burst;
        } else {
            gflops_normal += gf;
            bytes_normal += req.bytes_read;
            reads_normal += reads;
            ++count_normal;
        }
    }

    std::printf("\nnormal: %.2f GFLOPs/req, %.1f KiB/req, %.2f "
                "reads/req (transfer %.2f ms/req)\n",
                gflops_normal / count_normal,
                bytes_normal / 1024.0 / count_normal,
                static_cast<double>(reads_normal) / count_normal,
                bw.transferSeconds(bytes_normal, reads_normal) * 1e3 /
                    count_normal);
    std::printf("burst:  %.2f GFLOPs/req, %.1f KiB/req, %.2f reads/req "
                "(transfer %.2f ms/req) — the tighter crop sheds "
                "compute while the scale model keeps the object scale "
                "matched\n",
                gflops_burst / count_burst,
                bytes_burst / 1024.0 / count_burst,
                static_cast<double>(reads_burst) / count_burst,
                bw.transferSeconds(bytes_burst, reads_burst) * 1e3 /
                    count_burst);
    return 0;
}
