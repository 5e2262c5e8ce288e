/**
 * @file
 * Section VIII-a serving experiment, measured: a Poisson request
 * stream is driven open-loop into the REAL ServingEngine, once with a
 * static policy and once with the dynamic load-shedding policy (queue
 * deep => serve at a shrunken crop, no model swap — the engine
 * downscales the batch and replays the cached low-resolution plan).
 * The table is the paper's static-vs-dynamic comparison at 0.7, 1.1
 * and 1.6x the batch-1 capacity: mean and p99 latency, the share
 * served at the shed crop, and the requests dropped.
 */

#include <chrono>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "core/engine.hh"
#include "nn/passes.hh"
#include "util/thread_pool.hh"

using namespace tamres;

namespace {

constexpr int kNormalRes = 224;
constexpr int kShedRes = 112;

struct LoadPoint
{
    uint64_t served = 0;
    uint64_t shed = 0;     //!< admission sheds + pool-exhausted drops
    uint64_t at_shed_res = 0;
    double mean_latency_s = 0.0;
    double p99_latency_s = 0.0;
    double mean_batch = 1.0;
};

/** Harvest a finished request's stats before the object is reused. */
void
harvest(InferenceRequest &r, LoadPoint &pt, double &lat_sum)
{
    const RequestState s = r.stateNow();
    if (s == RequestState::Done) {
        lat_sum += r.latency_s;
        if (r.resolution == kShedRes)
            ++pt.at_shed_res;
    }
    r.state.store(static_cast<int>(RequestState::Idle));
}

/** Open-loop Poisson drive at @p rate_hz for @p total requests. */
LoadPoint
drive(ServingEngine &engine, const Tensor &item, double rate_hz,
      int total, uint64_t seed)
{
    Rng rng(seed);
    LoadPoint pt;
    double lat_sum = 0.0;
    std::vector<InferenceRequest> pool(32);
    for (auto &r : pool)
        r.input = item.clone();

    const auto epoch = std::chrono::steady_clock::now();
    double next_s = 0.0;
    uint64_t dropped = 0;
    for (int i = 0; i < total; ++i) {
        double u = rng.uniform();
        if (u < 1e-12)
            u = 1e-12;
        next_s += -std::log(u) / rate_hz;
        std::this_thread::sleep_until(
            epoch + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(next_s)));
        InferenceRequest *free_req = nullptr;
        for (auto &r : pool) {
            if (r.stateNow() != RequestState::Queued) {
                harvest(r, pt, lat_sum);
                free_req = &r;
                break;
            }
        }
        if (!free_req) {
            ++dropped; // every slot in flight: the client sheds
            continue;
        }
        engine.submit(*free_req); // admission shed counted by engine
    }
    engine.drain();
    for (auto &r : pool)
        harvest(r, pt, lat_sum);

    const EngineStats st = engine.stats();
    pt.served = st.served;
    pt.shed = st.shed_admission + st.expired + dropped;
    pt.mean_latency_s = st.served ? lat_sum / st.served : 0.0;
    pt.p99_latency_s = st.p99_latency_s;
    pt.mean_batch = st.mean_batch;
    return pt;
}

} // namespace

int
main()
{
    bench::banner("serving_load",
                  "Section VIII-a measured: load shedding via dynamic "
                  "resolution on the real engine");
    const int hw = ThreadPool::defaultParallelism();
    const int total = bench::engineRequests();

    auto net = bench::buildBackbone(BackboneArch::ResNet18);
    optimizeForInference(*net);
    bench::ensureTuned(*net, kNormalRes);
    bench::ensureTuned(*net, kShedRes);
    KernelSelector::instance().setMode(KernelMode::Tuned);

    Tensor item({1, 3, kNormalRes, kNormalRes});
    Rng rng(211);
    fillUniform(item, rng, 0.0f, 1.0f);

    // Capacity anchor: serial batch-1 rate at the normal resolution.
    Tensor out;
    net->runInto(item, out);
    const double cap_hz =
        1.0 / medianRunSeconds([&] { net->runInto(item, out); },
                               bench::latencyReps());
    std::printf("capacity anchor: %.2f req/s at %d (batch-1 serial)\n",
                cap_hz, kNormalRes);

    TablePrinter table("measured engine under Poisson load: static vs "
                       "load-shedding dynamic resolution");
    table.setHeader({"load (x cap)", "policy", "mean lat(ms)",
                     "p99 lat(ms)", "shed@112 %", "dropped", "mean b"});
    for (const double load : {0.7, 1.1, 1.6}) {
        for (const bool shed : {false, true}) {
            setenv("TAMRES_THREADS", "1", 1);
            EngineConfig cfg;
            cfg.workers = hw;
            cfg.max_batch = 4;
            cfg.max_delay_us = 2000;
            cfg.queue_capacity = 16;
            if (shed)
                cfg.ladder = resolutionShedLadder(2, kShedRes);
            cfg.warm_shapes = {{1, 3, kNormalRes, kNormalRes},
                               {4, 3, kNormalRes, kNormalRes}};
            if (shed) {
                cfg.warm_shapes.push_back({1, 3, kShedRes, kShedRes});
                cfg.warm_shapes.push_back({4, 3, kShedRes, kShedRes});
            }
            LoadPoint pt;
            {
                ServingEngine engine(*net, cfg);
                pt = drive(engine, item, load * cap_hz, total,
                           17 + static_cast<uint64_t>(load * 10));
            }
            unsetenv("TAMRES_THREADS");
            table.addRow(
                {TablePrinter::num(load, 1),
                 shed ? "dynamic-shed" : "static-224",
                 TablePrinter::num(pt.mean_latency_s * 1e3, 0),
                 TablePrinter::num(pt.p99_latency_s * 1e3, 0),
                 TablePrinter::num(
                     pt.served ? 100.0 * pt.at_shed_res / pt.served
                               : 0.0,
                     0),
                 std::to_string(pt.shed),
                 TablePrinter::num(pt.mean_batch, 1)});
        }
    }
    table.print();

    std::printf(
        "\nexpected shape: past the static policy's capacity the "
        "queue-depth trigger moves traffic to the %d crop, bounding "
        "p99 while the static endpoint's tail diverges or drops "
        "requests — the paper's no-model-swap shedding knob.\n",
        kShedRes);
    return 0;
}
