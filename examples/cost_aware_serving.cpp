/**
 * @file
 * Cost-aware serving walk-through: the Section VIII-d and VIII-b
 * extensions working together —
 *   1. train a scale model and sweep the cost-aware selection
 *      trade-off (lambda) between predicted accuracy and backbone
 *      FLOPs,
 *   2. pipeline the scale model with the backbone and compare
 *      sustainable request rates against the sequential endpoint
 *      (Section VII-c),
 *   3. price a month of the resulting traffic with the cloud cost
 *      model.
 *
 * Build & run:  ./build/examples/cost_aware_serving
 */

#include <cstdio>

#include "core/pipeline.hh"
#include "storage/cost.hh"

using namespace tamres;

int
main()
{
    std::printf("tamres cost-aware serving example\n\n");

    // A small ImageNet-like dataset and a trained scale model.
    DatasetSpec spec = imagenetLike();
    spec.mean_height = 200;
    spec.mean_width = 240;
    SyntheticDataset dataset(spec, 400, 19);
    BackboneAccuracyModel backbone(BackboneArch::ResNet50, spec, 1);

    const std::vector<int> grid = {112, 168, 224, 280, 336};
    ScaleModelOptions sopts;
    sopts.epochs = 20;
    ScaleModel scale(grid, sopts);
    scale.train(dataset, 0, 300, BackboneArch::ResNet50,
                {0.56, 0.75, 1.0}, 192);

    // 1. Cost-aware selection: lambda trades predicted-correctness
    //    for compute (Section VIII-d). Costs are backbone GFLOPs.
    std::vector<double> costs;
    for (const int r : grid)
        costs.push_back(backboneGflops(BackboneArch::ResNet50, r));

    std::printf("lambda sweep (accuracy vs mean GFLOPs, 100 eval "
                "images):\n");
    std::printf("%-8s %-10s %-12s\n", "lambda", "accuracy",
                "mean GFLOPs");
    for (const double lambda : {0.0, 0.1, 0.3, 0.6}) {
        int correct = 0;
        double gflops = 0.0;
        for (int i = 300; i < 400; ++i) {
            const Image img = dataset.renderAt(i, 192);
            const Image preview = resize(img, 112, 112);
            const int idx = scale.chooseResolutionIndexCostAware(
                preview, lambda, costs);
            const int res = grid[idx];
            gflops += costs[idx];
            if (backbone.correct(dataset.record(i), 0.75, res))
                ++correct;
        }
        std::printf("%-8.2f %-10.1f %-12.2f\n", lambda,
                    static_cast<double>(correct),
                    gflops / 100.0);
    }

    // 2. Pipelined endpoint capacity (Section VII-c).
    const double host_gflops = 8.0;
    const double backbone_s =
        backboneGflops(BackboneArch::ResNet50, 224) / host_gflops;
    // The x4 models the untuned scale model's lower hardware
    // utilization (the paper's Section VII-c measures ~30% of a
    // tuned RN50@224 pass; ours is proportionally cheaper because
    // the backbone here is untuned too).
    const double scale_s = scaleModelGflops() * 4.0 / host_gflops;
    std::printf("\nendpoint capacity (backbone %.0f ms, scale %.1f "
                "ms):\n  sequential %.2f req/s, pipelined %.2f req/s\n",
                backbone_s * 1e3, scale_s * 1e3,
                1.0 / (backbone_s + scale_s), 1.0 / backbone_s);

    // The traffic step 3 prices: 95% of the pipelined capacity.
    const double arrival_hz = 0.95 / backbone_s;

    // 3. The monthly bill at that traffic, full reads vs the ~25%
    //    savings a calibrated dynamic policy measures on this profile.
    Workload w;
    w.corpus_images = 500000;
    w.mean_image_bytes = 150000;
    w.reads_per_month = static_cast<int64_t>(
        arrival_hz * 3600 * 24 * 30);
    const MonthlyCost full = monthlyCost(w);
    w.mean_read_fraction = 0.75;
    w.extra_requests_per_read = 0.5;
    const MonthlyCost dyn = monthlyCost(w);
    std::printf("\nmonthly bill at %.2f req/s:\n"
                "  full reads    $%.0f (storage $%.0f, egress $%.0f)\n"
                "  dynamic reads $%.0f (storage $%.0f, egress $%.0f)\n"
                "  saved         $%.0f/month\n",
                arrival_hz, full.total(), full.storage_usd,
                full.egress_usd, dyn.total(), dyn.storage_usd,
                dyn.egress_usd, full.total() - dyn.total());
    return 0;
}
