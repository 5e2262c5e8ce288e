/**
 * @file
 * Dynamic batching on the REAL serving engine (extends the Section
 * VIII-a load study to batch formation). Stage 1 measures
 * batched planned inference latency — merged-column batch GEMMs
 * remove per-image micro-tile padding and re-stream weight panels
 * once per batch, so per-item cost falls with batch size even on one
 * core, and batched plans replay shared prepacked weights. Stage 2
 * drives the multi-worker ServingEngine closed-loop against a serial
 * batch-1 runInto() baseline and sweeps max_batch. Emits
 * BENCH_engine.json (fields documented in bench/bench_common.hh).
 */

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "core/engine.hh"
#include "nn/passes.hh"
#include "util/thread_pool.hh"
#include "util/windowed.hh"

using namespace tamres;

namespace {

constexpr int kRes = 224;

/** Closed-loop engine throughput: @p clients in-flight requests. */
double
engineRps(ServingEngine &engine, const Tensor &item, int clients,
          int total)
{
    Timer t;
    std::vector<std::thread> cts;
    std::atomic<int> remaining{total};
    for (int c = 0; c < clients; ++c) {
        cts.emplace_back([&] {
            InferenceRequest r;
            r.input = item.clone();
            while (remaining.fetch_sub(1) > 0) {
                if (engine.submit(r))
                    engine.wait(r);
            }
        });
    }
    for (auto &th : cts)
        th.join();
    return engine.stats().served / t.seconds();
}

} // namespace

int
main()
{
    bench::banner("batched_serving",
                  "dynamic batching on the measured engine (Section "
                  "VIII-a extension)");

    const std::vector<int> batches = {1, 2, 4, 8};
    const int hw = ThreadPool::defaultParallelism();
    const int reqs = bench::engineRequests();

    auto net = bench::buildBackbone(BackboneArch::ResNet18);
    optimizeForInference(*net);
    bench::ensureTuned(*net, kRes);
    KernelSelector::instance().setMode(KernelMode::Tuned);

    Tensor item({1, 3, kRes, kRes});
    Rng rng(107);
    fillUniform(item, rng, 0.0f, 1.0f);

    // ---- Stage 1: measured planned batch-latency curve ------------
    std::vector<double> batch_lat(batches.size());
    TablePrinter meas("measured ResNet-18 @224 tuned, planned batched "
                      "execution");
    meas.setHeader({"batch", "total ms", "ms/item", "item speedup"});
    for (size_t bi = 0; bi < batches.size(); ++bi) {
        const int b = batches[bi];
        Tensor in({b, 3, kRes, kRes});
        for (int i = 0; i < b; ++i)
            std::memcpy(in.data() + i * item.numel(), item.data(),
                        sizeof(float) * item.numel());
        Tensor out;
        net->runInto(in, out); // compile + warm the batched plan
        batch_lat[bi] = medianRunSeconds(
            [&] { net->runInto(in, out); },
            std::max(3, bench::latencyReps()));
        meas.addRow({std::to_string(b),
                     TablePrinter::num(batch_lat[bi] * 1e3, 1),
                     TablePrinter::num(batch_lat[bi] * 1e3 / b, 1),
                     TablePrinter::num(
                         batch_lat[0] / (batch_lat[bi] / b), 2)});
    }
    meas.print();

    // ---- Stage 2: engine closed-loop vs serial baseline -----------
    //
    // Serial baseline: one thread, batch-1 runInto, intra-op
    // parallelism at the process default. Engine: hw workers with
    // serial convolutions (inter-request parallelism instead), batch
    // formation up to max_batch. The serial rate is sampled before,
    // between and after the engine runs (median) so slow host drift
    // does not masquerade as an engine win.
    auto serialRps = [&] {
        Tensor out;
        net->runInto(item, out);
        return 1.0 / medianRunSeconds([&] { net->runInto(item, out); },
                                      bench::latencyReps());
    };

    const std::vector<int> engine_batches = {1, 4, 8};
    const int sweep_reps = std::max(2, bench::latencyReps());
    std::vector<double> serial_samples;
    std::vector<std::vector<double>> engine_samples(
        engine_batches.size());
    std::vector<EngineStats> engine_stats(engine_batches.size());

    for (int rep = 0; rep < sweep_reps; ++rep) {
        serial_samples.push_back(serialRps());
        for (size_t ei = 0; ei < engine_batches.size(); ++ei) {
            const int mb = engine_batches[ei];
            setenv("TAMRES_THREADS", "1", 1); // workers own the cores
            EngineConfig cfg;
            cfg.workers = hw;
            cfg.max_batch = mb;
            cfg.max_delay_us = 0; // closed loop keeps the queue fed
            cfg.queue_capacity = 4 * mb * hw + 8;
            cfg.warm_shapes.push_back(Shape{mb, 3, kRes, kRes});
            cfg.warm_shapes.push_back(Shape{1, 3, kRes, kRes});
            {
                ServingEngine engine(*net, cfg);
                engine_samples[ei].push_back(engineRps(
                    engine, item,
                    2 * mb * hw > 16 ? 16 : 2 * mb * hw, reqs));
                engine_stats[ei] = engine.stats();
            }
            unsetenv("TAMRES_THREADS");
        }
    }
    const double serial_rps = sampleQuantile(serial_samples, 0.5);
    std::vector<double> engine_rps(engine_batches.size());
    for (size_t ei = 0; ei < engine_batches.size(); ++ei)
        engine_rps[ei] = sampleQuantile(engine_samples[ei], 0.5);

    TablePrinter eng("engine closed-loop vs serial batch-1 runInto "
                     "(median serial baseline)");
    eng.setHeader({"config", "req/s", "vs serial", "mean batch",
                   "p50 ms", "p99 ms"});
    eng.addRow({"serial runInto", TablePrinter::num(serial_rps, 2),
                "1.00", "1.0", "-", "-"});
    for (size_t ei = 0; ei < engine_batches.size(); ++ei) {
        const EngineStats &st = engine_stats[ei];
        eng.addRow({"engine b" + std::to_string(engine_batches[ei]) +
                        " x" + std::to_string(hw),
                    TablePrinter::num(engine_rps[ei], 2),
                    TablePrinter::num(engine_rps[ei] / serial_rps, 2),
                    TablePrinter::num(st.mean_batch, 2),
                    TablePrinter::num(st.p50_latency_s * 1e3, 0),
                    TablePrinter::num(st.p99_latency_s * 1e3, 0)});
    }
    eng.print();

    // ---- BENCH_engine.json ----------------------------------------
    FILE *f = std::fopen("BENCH_engine.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_engine.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"workers\": %d,\n  \"requests\": %d,\n", hw,
                 reqs);
    std::fprintf(f, "  \"serial_rps\": %.4f,\n", serial_rps);
    std::fprintf(f, "  \"batch_item_speedup\": {");
    for (size_t bi = 0; bi < batches.size(); ++bi) {
        std::fprintf(f, "%s\"b%d\": %.4f", bi ? ", " : "", batches[bi],
                     batch_lat[0] / (batch_lat[bi] / batches[bi]));
    }
    std::fprintf(f, "},\n  \"engine\": [\n");
    for (size_t ei = 0; ei < engine_batches.size(); ++ei) {
        const EngineStats &st = engine_stats[ei];
        std::fprintf(f,
                     "    {\"max_batch\": %d, \"rps\": %.4f, "
                     "\"vs_serial\": %.4f, \"mean_batch\": %.3f, "
                     "\"p50_ms\": %.2f, \"p99_ms\": %.2f}%s\n",
                     engine_batches[ei], engine_rps[ei],
                     engine_rps[ei] / serial_rps, st.mean_batch,
                     st.p50_latency_s * 1e3, st.p99_latency_s * 1e3,
                     ei + 1 < engine_batches.size() ? "," : "");
    }
    double best_batched = 0.0;
    for (size_t ei = 0; ei < engine_batches.size(); ++ei) {
        if (engine_batches[ei] > 1)
            best_batched = std::max(best_batched, engine_rps[ei]);
    }
    std::fprintf(f, "  ],\n  \"engine_batched_vs_serial\": %.4f\n}\n",
                 best_batched / serial_rps);
    std::fclose(f);
    std::printf("\nwrote BENCH_engine.json (engine batched vs serial: "
                "%.2fx at %d worker(s))\n",
                best_batched / serial_rps, hw);
    return 0;
}
