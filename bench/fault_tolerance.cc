/**
 * @file
 * Goodput under injected storage faults — the chaos harness for the
 * staged serving pipeline's fault tolerance, emitted as
 * machine-readable BENCH_faults.json (fields documented in
 * bench/bench_common.hh) and gated by tools/bench_gate.py.
 *
 * A decision-only staged engine (the fetch / decode / decide path is
 * where the storage tier can hurt; backbone inference is orthogonal)
 * serves the same closed-loop request mix through a FaultyObjectStore
 * under three legs:
 *
 *   clean       no injection — the goodput baseline;
 *   acceptance  the ISSUE acceptance mix: 1% transient failures,
 *               0.5% truncated deliveries, a 2% heavy-tail latency
 *               draw — the fleet-realistic operating point;
 *   heavy       5% transient + 3% truncation + 3% corruption + 5%
 *               tail — well past the retry budget's comfort zone, so
 *               degradation and structured failures become visible.
 *
 * Every fault draw is a pure function of the fixed seed, so a leg's
 * fault schedule replays identically across runs and hosts; only the
 * wall-clock numbers are host-dependent. The harness hard-fails if
 * any request ends in a non-terminal or unexpected state, or if the
 * clean leg sees any fault or non-Done terminal — the bench doubles
 * as an end-to-end liveness check under chaos.
 *
 * Budget knobs: TAMRES_ENGINE_REQS (closed-loop requests per leg).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hh"
#include "codec/progressive.hh"
#include "core/staged_engine.hh"
#include "image/synthetic.hh"
#include "storage/fault_injection.hh"
#include "util/windowed.hh"

using namespace tamres;

namespace {

struct Leg
{
    const char *name;
    FaultPolicy policy;
};

struct LegResult
{
    uint64_t done = 0;
    uint64_t degraded = 0;
    uint64_t failed = 0;
    double goodput_rps = 0.0;
    double p99_ms = 0.0;
    StagedStats stats;
    ReadStats store_stats;
};

} // namespace

int
main()
{
    bench::banner("fault_tolerance",
                  "staged-pipeline goodput under injected storage "
                  "faults: retries, degradation, containment");
    const int requests = bench::engineRequests();

    // --- Stored objects + trained scale model ----------------------
    DatasetSpec spec = imagenetLike();
    spec.mean_height = 224;
    spec.mean_width = 224;
    SyntheticDataset ds(spec, 48, 7);
    ScaleModelOptions sopts;
    sopts.epochs = 6;
    ScaleModel scale({112, 168, 224}, sopts);
    scale.train(ds, 0, 32, BackboneArch::ResNet18, {0.75}, 96);

    constexpr int kObjects = 6;
    ObjectStore store;
    ProgressiveConfig ccfg;
    ccfg.entropy = EntropyCoder::Huffman;
    ccfg.restart_interval = 64;
    for (int i = 0; i < kObjects; ++i)
        store.put(static_cast<uint64_t>(i),
                  encodeProgressive(ds.renderAt(i, 256), ccfg));
    const int num_scans = store.peek(0).numScans();

    // --- Injection legs (fixed seed: schedules replay exactly) -----
    std::vector<Leg> legs(3);
    legs[0].name = "clean";
    legs[1].name = "acceptance";
    legs[1].policy.seed = 0xFA5EED;
    legs[1].policy.transient_p = 0.01;
    legs[1].policy.truncate_p = 0.005;
    legs[1].policy.latency_tail_p = 0.02;
    legs[1].policy.latency_tail_scale_s = 2e-4;
    legs[1].policy.latency_max_s = 2e-3;
    legs[2].name = "heavy";
    legs[2].policy.seed = 0xFA5EED;
    legs[2].policy.transient_p = 0.05;
    legs[2].policy.truncate_p = 0.03;
    legs[2].policy.corrupt_p = 0.03;
    legs[2].policy.latency_tail_p = 0.05;
    legs[2].policy.latency_tail_scale_s = 5e-4;
    legs[2].policy.latency_max_s = 5e-3;

    auto run_leg = [&](const Leg &leg) {
        FaultyObjectStore faulty(store, leg.policy);
        StagedEngineConfig cfg;
        cfg.preview_scans = 2;
        cfg.crop_area = 0.75;
        cfg.decode_workers = 2;
        cfg.decode_batch = 2;
        cfg.queue_capacity = std::max(64, requests + kObjects);
        cfg.scan_depth = [&](uint64_t, int r_idx) {
            return std::min(num_scans, 2 + r_idx);
        };
        cfg.retry.backoff_base_s = 0.5e-3;
        cfg.retry.backoff_max_s = 5e-3;
        StagedServingEngine engine(faulty, scale, nullptr, cfg);

        std::vector<StagedRequest> reqs(
            static_cast<size_t>(requests));
        Timer t;
        for (int i = 0; i < requests; ++i) {
            reqs[i].id = static_cast<uint64_t>(i % kObjects);
            engine.submit(reqs[i]);
        }
        for (auto &r : reqs)
            engine.wait(r);
        const double elapsed = t.seconds();

        LegResult res;
        std::vector<double> served_lat;
        for (auto &r : reqs) {
            switch (r.stateNow()) {
            case StagedState::Done:
                ++res.done;
                served_lat.push_back(r.latency_s);
                break;
            case StagedState::Degraded:
                ++res.degraded;
                served_lat.push_back(r.latency_s);
                break;
            case StagedState::Failed:
                ++res.failed;
                break;
            default:
                std::fprintf(stderr,
                             "FAIL: leg %s request ended in state %d "
                             "(no deadline was set)\n",
                             leg.name,
                             static_cast<int>(r.stateNow()));
                std::exit(1);
            }
        }
        res.goodput_rps =
            elapsed > 0
                ? static_cast<double>(res.done + res.degraded) /
                      elapsed
                : 0.0;
        res.p99_ms = sampleQuantile(served_lat, 0.99) * 1e3;
        res.stats = engine.stats();
        res.store_stats = faulty.stats();
        return res;
    };

    std::vector<LegResult> results;
    for (const Leg &leg : legs) {
        const LegResult r = run_leg(leg);
        std::printf("%-10s goodput %.2f req/s  done %llu  degraded "
                    "%llu  failed %llu  p99 %.2f ms  retries %llu  "
                    "faults %llu  giveups %llu\n",
                    leg.name, r.goodput_rps,
                    static_cast<unsigned long long>(r.done),
                    static_cast<unsigned long long>(r.degraded),
                    static_cast<unsigned long long>(r.failed), r.p99_ms,
                    static_cast<unsigned long long>(r.stats.retries),
                    static_cast<unsigned long long>(
                        r.stats.fetch_faults),
                    static_cast<unsigned long long>(
                        r.stats.retry_giveups));
        results.push_back(r);
    }

    // The clean leg is the liveness reference: zero injection must
    // mean zero faults observed and every request served intact.
    if (results[0].done != static_cast<uint64_t>(requests) ||
        results[0].stats.fetch_faults != 0) {
        std::fprintf(stderr,
                     "FAIL: clean leg saw faults or losses (done "
                     "%llu/%d, faults %llu)\n",
                     static_cast<unsigned long long>(results[0].done),
                     requests,
                     static_cast<unsigned long long>(
                         results[0].stats.fetch_faults));
        return 1;
    }
    // The acceptance mix is survivable by construction: the retry
    // budget must keep goodput losses to failures, not hangs.
    if (results[1].done + results[1].degraded + results[1].failed !=
        static_cast<uint64_t>(requests)) {
        std::fprintf(stderr, "FAIL: acceptance leg lost requests\n");
        return 1;
    }

    const double retention =
        results[0].goodput_rps > 0
            ? results[1].goodput_rps / results[0].goodput_rps
            : 0.0;
    std::printf("acceptance-mix goodput retention: %.3f of clean\n",
                retention);

    FILE *f = std::fopen("BENCH_faults.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_faults.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"requests\": %d,\n  \"legs\": [\n",
                 requests);
    for (size_t i = 0; i < results.size(); ++i) {
        const Leg &leg = legs[i];
        const LegResult &r = results[i];
        const double n = static_cast<double>(requests);
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"transient_p\": %.4f, "
            "\"truncate_p\": %.4f, \"corrupt_p\": %.4f, "
            "\"latency_tail_p\": %.4f,\n"
            "     \"goodput_rps\": %.4f, \"done_fraction\": %.4f, "
            "\"degraded_fraction\": %.4f, \"failed_fraction\": %.4f, "
            "\"p99_ms\": %.4f,\n"
            "     \"retries\": %llu, \"fetch_faults\": %llu, "
            "\"retry_giveups\": %llu, \"faults_transient\": %llu, "
            "\"faults_truncated\": %llu, \"faults_corrupted\": %llu, "
            "\"faults_delayed\": %llu}%s\n",
            leg.name, leg.policy.transient_p, leg.policy.truncate_p,
            leg.policy.corrupt_p, leg.policy.latency_tail_p,
            r.goodput_rps, r.done / n, r.degraded / n, r.failed / n,
            r.p99_ms,
            static_cast<unsigned long long>(r.stats.retries),
            static_cast<unsigned long long>(r.stats.fetch_faults),
            static_cast<unsigned long long>(r.stats.retry_giveups),
            static_cast<unsigned long long>(
                r.store_stats.faults_transient),
            static_cast<unsigned long long>(
                r.store_stats.faults_truncated),
            static_cast<unsigned long long>(
                r.store_stats.faults_corrupted),
            static_cast<unsigned long long>(
                r.store_stats.faults_delayed),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"acceptance_goodput_retention_gain\": "
                 "%.4f\n}\n",
                 retention);
    std::fclose(f);
    std::printf("\nwrote BENCH_faults.json\n");
    return 0;
}
