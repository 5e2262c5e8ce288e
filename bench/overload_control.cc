/**
 * @file
 * Goodput and tail latency under the overload control plane — the
 * chaos harness for PR 7's breaker + hedged-read + brownout stack,
 * emitted as machine-readable BENCH_overload.json (fields documented
 * in bench/bench_common.hh) and gated by tools/bench_gate.py, which
 * gates the per-leg p99 lower-is-better.
 *
 * A decision-only staged engine serves the same closed-loop request
 * mix through a FaultyObjectStore under four legs, two comparisons:
 *
 *   tail_base    latency-tail-only injection, retries only — the
 *                fetch-bound tail baseline;
 *   tail_hedge   same injection + hedged stage-1/4 reads — the
 *                backup fetch redraws the latency fault, so the
 *                hedge should cut the fetch-bound p99;
 *   retry_only   the HEAVY mix (transients + truncation + corruption
 *                + tails, well past the retry budget) with only the
 *                PR 6 defenses: bounded retries with backoff;
 *   full         the same heavy mix with the whole control plane:
 *                BreakerObjectStore (fail-fast instead of hopeless
 *                backoff), hedged reads, and a two-rung brownout
 *                ladder shedding scan depth / resolution under
 *                pressure (no non-admitting rung: the bench measures
 *                quality shedding, not admission rejection, so every
 *                request is served).
 *
 * Headline ratios (both higher-is-better, CI-gated):
 *   overload_goodput_gain   full goodput / retry_only goodput —
 *                           the ISSUE acceptance target is >= 2;
 *   hedge_p99_gain          tail_base p99 / tail_hedge p99 — > 1
 *                           means hedging cut the fetch-bound tail.
 *
 * Every leg hard-checks terminal conservation (admitted == done +
 * degraded + failed + expired + shed + rejected) — the bench doubles
 * as an end-to-end liveness check for the control plane.
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
#include "storage/breaker.hh"
#include "storage/fault_injection.hh"
#include "util/windowed.hh"

using namespace tamres;

namespace {

struct Leg
{
    const char *name;
    FaultPolicy policy;
    bool hedge = false;
    bool breaker = false;
    bool brownout = false;
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
    bench::banner("overload_control",
                  "staged-pipeline goodput and tail latency under "
                  "the breaker + hedge + brownout control plane");
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
    FaultPolicy tail_mix; // fetch-bound latency tail, nothing else
    tail_mix.seed = 0x0EED;
    tail_mix.latency_tail_p = 0.35;
    tail_mix.latency_tail_scale_s = 0.02;
    tail_mix.latency_max_s = 0.08;

    FaultPolicy heavy_mix; // well past the retry budget's comfort
    heavy_mix.seed = 0x0EED;
    heavy_mix.transient_p = 0.5;
    heavy_mix.truncate_p = 0.15;
    heavy_mix.corrupt_p = 0.15;
    heavy_mix.latency_tail_p = 0.35;
    heavy_mix.latency_tail_scale_s = 0.02;
    heavy_mix.latency_max_s = 0.08;

    std::vector<Leg> legs(4);
    legs[0] = {"tail_base", tail_mix, false, false, false};
    legs[1] = {"tail_hedge", tail_mix, true, false, false};
    legs[2] = {"retry_only", heavy_mix, false, false, false};
    legs[3] = {"full", heavy_mix, true, true, true};

    auto run_leg = [&](const Leg &leg) {
        FaultyObjectStore faulty(store, leg.policy);
        // The breaker must ride along without firing on this mix: a
        // 50% transient rate is still survivable by retry, and
        // tripping would convert retryable requests into fast
        // failures. It trips only past 80% — a store that is
        // effectively down (examples/brownout_serving drives that
        // regime; here the breaker's cost must be zero).
        BreakerConfig bcfg;
        bcfg.window_s = 0.5;
        bcfg.min_samples = 32;
        bcfg.failure_threshold = 0.8;
        bcfg.cooldown_s = 0.05;
        BreakerObjectStore breaker(faulty, bcfg);
        ObjectStore &tier =
            leg.breaker ? static_cast<ObjectStore &>(breaker)
                        : static_cast<ObjectStore &>(faulty);

        StagedEngineConfig cfg;
        cfg.preview_scans = 2;
        cfg.crop_area = 0.75;
        cfg.decode_workers = 2;
        cfg.decode_batch = 2;
        cfg.queue_capacity = std::max(64, requests + kObjects);
        cfg.scan_depth = [&](uint64_t, int r_idx) {
            return std::min(num_scans, 2 + r_idx);
        };
        // PR 6 retry defaults: bounded attempts, exponential backoff.
        if (leg.hedge) {
            cfg.overload.hedge.enable = true;
            cfg.overload.hedge.min_delay_s = 1e-3;
            // The injected tail's floor is 20 ms: any fetch still in
            // flight at 4 ms drew a delay, so hedge early.
            cfg.overload.hedge.max_delay_s = 4e-3;
            cfg.overload.hedge.max_per_request = 2;
            cfg.overload.hedge.inflight_budget = 8;
            // Injected delays sleep for tens of ms while holding a
            // pool slot; the default pool (decode_workers + 2) would
            // queue fresh fetches behind sleeping losers.
            cfg.overload.hedge.pool_threads = 12;
        }
        if (leg.brownout) {
            // Shed to a single-scan, single-fetch request: with
            // scan_cap == preview_cap the resume fetch disappears,
            // halving the request's exposure to transient and tail
            // draws — the biggest quality/latency lever this mix has.
            // The second rung also floors resolution at the grid's
            // lowest.
            QualityTier shallow;
            shallow.preview_cap = 1;
            shallow.scan_cap = 1;
            QualityTier floored = shallow;
            floored.resolution_cap = scale.resolutions().front();
            cfg.ladder = {QualityTier{}, shallow, floored};
            QualityWindowConfig &w = cfg.overload.quality_window;
            w.window_s = 0.5;
            w.min_samples = 6;
            w.high_pressure = 0.15;
            // Recovery threshold well under the shed steady-state's
            // residual bad fraction (~2% retry give-ups), so the tier
            // holds for the whole storm instead of flapping.
            w.low_pressure = 0.005;
            w.min_dwell_s = 0.12;
            // Engage fast, recover only on sustained health: the
            // 0.5 s window cannot accumulate 64 samples at this
            // service rate, so the tier holds for the whole storm
            // instead of flapping on lucky streaks.
            w.recovery_samples = 64;
            w.recovery_dwell_s = 0.6;
        }
        StagedServingEngine engine(tier, scale, nullptr, cfg);

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
        res.store_stats = tier.stats();

        // Terminal conservation is a hard invariant of the control
        // plane — check it on every leg, not just in unit tests.
        const StagedStats &s = res.stats;
        if (s.admitted != s.done + s.degraded + s.failed + s.expired +
                              s.shed_admission + s.rejected) {
            std::fprintf(
                stderr,
                "FAIL: leg %s breaks terminal conservation "
                "(admitted %llu != %llu)\n",
                leg.name, static_cast<unsigned long long>(s.admitted),
                static_cast<unsigned long long>(
                    s.done + s.degraded + s.failed + s.expired +
                    s.shed_admission + s.rejected));
            std::exit(1);
        }
        return res;
    };

    std::vector<LegResult> results;
    for (const Leg &leg : legs) {
        const LegResult r = run_leg(leg);
        std::printf(
            "%-10s goodput %.2f req/s  done %llu  degraded %llu  "
            "failed %llu  p99 %.2f ms  hedges %llu/%llu  trips %llu  "
            "tier %d (drops %llu)\n",
            leg.name, r.goodput_rps,
            static_cast<unsigned long long>(r.done),
            static_cast<unsigned long long>(r.degraded),
            static_cast<unsigned long long>(r.failed), r.p99_ms,
            static_cast<unsigned long long>(r.stats.hedge_wins),
            static_cast<unsigned long long>(r.stats.hedges_issued),
            static_cast<unsigned long long>(
                r.store_stats.breaker_trips),
            r.stats.ladder.window_tier,
            static_cast<unsigned long long>(r.stats.ladder.drops));
        results.push_back(r);
    }

    const double hedge_p99_gain =
        results[1].p99_ms > 0 ? results[0].p99_ms / results[1].p99_ms
                              : 0.0;
    const double goodput_gain =
        results[2].goodput_rps > 0
            ? results[3].goodput_rps / results[2].goodput_rps
            : 0.0;
    std::printf("hedge p99 gain (tail_base/tail_hedge): %.3f\n",
                hedge_p99_gain);
    std::printf("overload goodput gain (full/retry_only): %.3f\n",
                goodput_gain);

    FILE *f = std::fopen("BENCH_overload.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_overload.json\n");
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
            "    {\"name\": \"%s\", \"hedge\": %s, \"breaker\": %s, "
            "\"brownout\": %s,\n"
            "     \"goodput_rps\": %.4f, \"done_fraction\": %.4f, "
            "\"degraded_fraction\": %.4f, \"failed_fraction\": %.4f, "
            "\"p99_ms\": %.4f,\n"
            "     \"retries\": %llu, \"retry_giveups\": %llu, "
            "\"hedges_issued\": %llu, \"hedge_wins\": %llu, "
            "\"breaker_trips\": %llu, \"breaker_fast_fails\": %llu, "
            "\"tier_drops\": %llu, \"tier_recoveries\": %llu, "
            "\"brownout_capped\": %llu}%s\n",
            leg.name, leg.hedge ? "true" : "false",
            leg.breaker ? "true" : "false",
            leg.brownout ? "true" : "false", r.goodput_rps, r.done / n,
            r.degraded / n, r.failed / n, r.p99_ms,
            static_cast<unsigned long long>(r.stats.retries),
            static_cast<unsigned long long>(r.stats.retry_giveups),
            static_cast<unsigned long long>(r.stats.hedges_issued),
            static_cast<unsigned long long>(r.stats.hedge_wins),
            static_cast<unsigned long long>(
                r.store_stats.breaker_trips),
            static_cast<unsigned long long>(
                r.store_stats.breaker_fast_fails),
            static_cast<unsigned long long>(r.stats.ladder.drops),
            static_cast<unsigned long long>(r.stats.ladder.recoveries),
            static_cast<unsigned long long>(r.stats.tier_capped),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"hedge_p99_gain\": %.4f,\n"
                 "  \"overload_goodput_gain\": %.4f\n}\n",
                 hedge_p99_gain, goodput_gain);
    std::fclose(f);
    std::printf("\nwrote BENCH_overload.json\n");
    return 0;
}
