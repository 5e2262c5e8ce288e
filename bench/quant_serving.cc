/**
 * @file
 * Quantized serving: fp32 vs int8 through the REAL batched engine.
 * One ServingEngine carries both graphs (EngineConfig::quant_graph);
 * the fp32 leg and the int8 leg drive the same closed loop with the
 * same clients, batch cap and workers — the only difference is the
 * want_int8 stamp on the requests, i.e. exactly what the overload
 * tier policy flips under pressure. Emits BENCH_quant.json (fields
 * documented in bench/bench_common.hh).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "core/engine.hh"
#include "nn/passes.hh"
#include "nn/quant.hh"
#include "util/thread_pool.hh"
#include "util/windowed.hh"

using namespace tamres;

namespace {

constexpr int kRes = 224;

struct LegResult
{
    double rps = 0;
    double p50_ms = 0;
    double p99_ms = 0;
};

/** Closed-loop leg: @p clients in-flight requests, all one precision. */
LegResult
runLeg(ServingEngine &engine, const Tensor &item, int clients,
       int total, bool want_int8)
{
    std::vector<double> lat;
    lat.reserve(static_cast<size_t>(total));
    std::mutex lat_mu;
    Timer t;
    std::vector<std::thread> cts;
    std::atomic<int> remaining{total};
    std::atomic<uint64_t> served{0};
    for (int c = 0; c < clients; ++c) {
        cts.emplace_back([&] {
            InferenceRequest r;
            r.input = item.clone();
            r.want_int8 = want_int8;
            std::vector<double> mine;
            while (remaining.fetch_sub(1) > 0) {
                if (engine.submit(r)) {
                    engine.wait(r);
                    ++served;
                    mine.push_back(r.latency_s);
                }
            }
            std::lock_guard<std::mutex> lock(lat_mu);
            lat.insert(lat.end(), mine.begin(), mine.end());
        });
    }
    for (auto &th : cts)
        th.join();
    const double secs = t.seconds();

    LegResult res;
    res.rps = static_cast<double>(served.load()) / secs;
    res.p50_ms = sampleQuantile(lat, 0.5) * 1e3;
    res.p99_ms = sampleQuantile(lat, 0.99) * 1e3;
    return res;
}

double
relError(const Tensor &got, const Tensor &want)
{
    double num = 0.0, den = 0.0;
    for (int64_t i = 0; i < got.numel(); ++i) {
        const double d = static_cast<double>(got.data()[i]) -
                         want.data()[i];
        num += d * d;
        den += static_cast<double>(want.data()[i]) * want.data()[i];
    }
    return std::sqrt(num / std::max(den, 1e-20));
}

} // namespace

int
main()
{
    bench::banner("quantized_serving",
                  "int8 precision tier on the measured engine "
                  "(Section II-a lever, served)");

    const int hw = ThreadPool::defaultParallelism();
    const int reqs = bench::engineRequests();
    const int mb = 4;

    // Two siblings from the same seed: the fp32 serving graph and its
    // calibrated int8 twin (static activation scales, so the engine
    // may batch int8 requests freely — batch-N is bit-identical to
    // N x batch-1).
    auto fp32 = bench::buildBackbone(BackboneArch::ResNet18);
    optimizeForInference(*fp32);
    bench::ensureTuned(*fp32, kRes);
    KernelSelector::instance().setMode(KernelMode::Tuned);

    auto int8 = bench::buildBackbone(BackboneArch::ResNet18);
    optimizeForInference(*int8);
    Tensor cal_in({1, 3, kRes, kRes});
    Rng cal_rng(99);
    fillUniform(cal_in, cal_rng, 0.0f, 1.0f);
    const QuantCalibration cal = calibrateActivations(*int8, {cal_in});
    const int rewritten = quantizeConvs(*int8, &cal);

    Tensor item({1, 3, kRes, kRes});
    Rng rng(107);
    fillUniform(item, rng, 0.0f, 1.0f);

    // Accuracy proxy: logit deviation of the int8 twin on the bench
    // input (informational; the ablation harness sweeps this across
    // resolutions).
    const double acc_err = relError(int8->run(item), fp32->run(item));

    setenv("TAMRES_THREADS", "1", 1); // workers own the cores
    EngineConfig cfg;
    cfg.workers = hw;
    cfg.max_batch = mb;
    cfg.max_delay_us = 0; // closed loop keeps the queue fed
    cfg.queue_capacity = 4 * mb * hw + 8;
    cfg.quant_graph = int8.get();
    cfg.warm_shapes.push_back(Shape{mb, 3, kRes, kRes});
    cfg.warm_shapes.push_back(Shape{1, 3, kRes, kRes});

    const int clients = std::min(16, 2 * mb * hw);
    LegResult fp32_leg, int8_leg;
    {
        ServingEngine engine(*fp32, cfg);
        fp32_leg = runLeg(engine, item, clients, reqs, false);
    }
    {
        ServingEngine engine(*fp32, cfg);
        int8_leg = runLeg(engine, item, clients, reqs, true);
        const EngineStats st = engine.stats();
        if (st.served_int8 != st.served) {
            std::fprintf(stderr,
                         "int8 leg served %llu of %llu requests on "
                         "the quantized graph\n",
                         static_cast<unsigned long long>(
                             st.served_int8),
                         static_cast<unsigned long long>(st.served));
            return 1;
        }
    }
    unsetenv("TAMRES_THREADS");

    TablePrinter tab("fp32 vs int8 leg, same engine (" +
                     std::to_string(hw) + " workers, max_batch " +
                     std::to_string(mb) + ", " +
                     std::to_string(rewritten) + " convs int8)");
    tab.setHeader({"leg", "req/s", "p50 ms", "p99 ms"});
    tab.addRow({"fp32", TablePrinter::num(fp32_leg.rps, 2),
                TablePrinter::num(fp32_leg.p50_ms, 0),
                TablePrinter::num(fp32_leg.p99_ms, 0)});
    tab.addRow({"int8", TablePrinter::num(int8_leg.rps, 2),
                TablePrinter::num(int8_leg.p50_ms, 0),
                TablePrinter::num(int8_leg.p99_ms, 0)});
    tab.print();

    const double speedup = int8_leg.rps / std::max(fp32_leg.rps, 1e-9);
    std::printf("\nint8 serving speedup: %.2fx (logit relerr %.4f)\n",
                speedup, acc_err);

    FILE *f = std::fopen("BENCH_quant.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_quant.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"workers\": %d,\n  \"requests\": %d,\n", hw,
                 reqs);
    std::fprintf(f, "  \"max_batch\": %d,\n", mb);
    std::fprintf(f, "  \"convs_quantized\": %d,\n", rewritten);
    std::fprintf(f, "  \"fp32_rps\": %.4f,\n", fp32_leg.rps);
    std::fprintf(f, "  \"fp32_p50_ms\": %.2f,\n", fp32_leg.p50_ms);
    std::fprintf(f, "  \"fp32_p99_ms\": %.2f,\n", fp32_leg.p99_ms);
    std::fprintf(f, "  \"int8_rps\": %.4f,\n", int8_leg.rps);
    std::fprintf(f, "  \"int8_p50_ms\": %.2f,\n", int8_leg.p50_ms);
    std::fprintf(f, "  \"int8_p99_ms\": %.2f,\n", int8_leg.p99_ms);
    std::fprintf(f, "  \"int8_speedup\": %.4f,\n", speedup);
    std::fprintf(f, "  \"accuracy_rel_err\": %.6f\n}\n", acc_err);
    std::fclose(f);
    std::printf("wrote BENCH_quant.json (int8 vs fp32: %.2fx at %d "
                "worker(s))\n",
                speedup, hw);
    return 0;
}
