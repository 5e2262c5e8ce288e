/**
 * @file
 * Composing the efficiency levers on one endpoint:
 *   1. build ResNet-18, fold batch norms and fuse ReLUs,
 *   2. calibrate and rewrite it to int8 (nn/quant),
 *   3. measure fp32 vs int8 latency at two resolutions,
 *   4. serve the same 224 px burst of int8 requests through the real
 *      ServingEngine twice, once at a static resolution and once with
 *      a ladder that sheds to 112 when the queue grows (the paper's
 *      Section VIII-a load-adaptation story, with quantization
 *      underneath).
 *
 * Exits 1 when a burst's terminal states do not account for every
 * request, or when the shedding endpoint serves nothing at 112.
 *
 * Build & run:  ./build/examples/quantized_serving
 */

#include <cstdio>
#include <vector>

#include "core/engine.hh"
#include "nn/builders.hh"
#include "nn/passes.hh"
#include "nn/quant.hh"
#include "tensor/tensor_ops.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace tamres;

namespace {

double
latencyAt(Graph &g, int res)
{
    Tensor in({1, 3, res, res});
    Rng rng(res);
    fillUniform(in, rng, 0.0f, 1.0f);
    return medianRunSeconds([&] { g.run(in); }, 3);
}

constexpr int kRes = 224;
constexpr int kShedRes = 112;
constexpr int kBurst = 32;

struct BurstResult
{
    EngineStats stats;
    int at_shed_res = 0; //!< requests served at kShedRes
};

/**
 * Submit kBurst int8 requests at kRes back to back into a one-worker
 * engine over @p fp32 (with @p int8 as its quantized tier) and wait
 * for all of them.
 */
BurstResult
serveBurst(Graph &fp32, Graph &int8, const QualityLadder &ladder,
           const Tensor &item)
{
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.quant_graph = &int8;
    cfg.ladder = ladder;
    cfg.warm_shapes = {{1, 3, kRes, kRes}, {4, 3, kRes, kRes},
                       {1, 3, kShedRes, kShedRes},
                       {4, 3, kShedRes, kShedRes}};
    ServingEngine engine(fp32, cfg);

    std::vector<InferenceRequest> reqs(kBurst);
    for (auto &r : reqs) {
        r.input = item;
        r.want_int8 = true;
        engine.submit(r); // a refusal is counted in shed_admission
    }
    BurstResult res;
    for (auto &r : reqs) {
        engine.wait(r);
        if (r.stateNow() == RequestState::Done &&
            r.resolution == kShedRes)
            ++res.at_shed_res;
    }
    res.stats = engine.stats();
    return res;
}

} // namespace

int
main()
{
    std::printf("tamres quantized serving example\n\n");

    // 1-2. Inference-optimized fp32 and int8 builds of the same net.
    auto fp32 = buildResNet18(1000, 1);
    optimizeForInference(*fp32);

    auto int8 = buildResNet18(1000, 1);
    optimizeForInference(*int8);
    Tensor cal({1, 3, 224, 224});
    Rng cal_rng(42);
    fillUniform(cal, cal_rng, 0.0f, 1.0f);
    const QuantCalibration calib = calibrateActivations(*int8, {cal});
    const int n_quant = quantizeConvs(*int8, &calib);
    std::printf("rewrote %d convolutions to int8\n\n", n_quant);

    // 3. Measured latencies.
    std::printf("%-10s %-12s %-12s\n", "res", "fp32 ms", "int8 ms");
    for (const int res : {kRes, kShedRes}) {
        const double f = latencyAt(*fp32, res);
        const double q = latencyAt(*int8, res);
        std::printf("%-10d %-12.1f %-12.1f\n", res, f * 1e3, q * 1e3);
    }

    // 4. The same burst through the engine, static vs shedding: with
    //    more than four requests waiting, the ladder serves the batch
    //    at 112.
    Tensor item({1, 3, kRes, kRes});
    Rng item_rng(9);
    fillUniform(item, item_rng, 0.0f, 1.0f);

    std::printf("\n%d-request int8 burst at %d, one worker, batches "
                "of up to 4:\n", kBurst, kRes);
    bool ok = true;
    for (const bool shed : {false, true}) {
        const BurstResult b = serveBurst(
            *fp32, *int8,
            shed ? resolutionShedLadder(4, kShedRes) : QualityLadder{},
            item);
        const EngineStats &st = b.stats;
        std::printf("  %-12s p99 %6.0f ms, %d/%d served at %d\n",
                    shed ? "shed to 112:" : "static 224:",
                    st.p99_latency_s * 1e3, b.at_shed_res, kBurst,
                    kShedRes);
        const uint64_t terminals =
            st.served + st.shed_admission + st.expired + st.failed;
        if (terminals != kBurst) {
            std::fprintf(stderr, "terminals %llu != burst %d\n",
                         static_cast<unsigned long long>(terminals),
                         kBurst);
            ok = false;
        }
        if (shed && b.at_shed_res == 0) {
            std::fprintf(stderr, "the shedding endpoint served no "
                                 "request at %d\n", kShedRes);
            ok = false;
        }
    }
    std::printf("\nthe queue-aware ladder absorbs the burst by paying "
                "resolution, not latency — and the scale model keeps "
                "object scales matched at 112 (Section VIII-a).\n");
    return ok ? 0 : 1;
}
