/**
 * @file
 * Goodput and liveness under WEDGED reads — the chaos harness for the
 * request-lifecycle supervision stack (timed fetches + serving
 * watchdog), emitted as machine-readable BENCH_watchdog.json (fields
 * documented in bench/bench_common.hh) and gated by
 * tools/bench_gate.py (goodput/gain up, p99/stall down).
 *
 * A decision-only staged engine serves the same closed-loop request
 * mix through a FaultyObjectStore whose hang_p wedges a fraction of
 * reads INDEFINITELY (not a tail — the read never returns), under
 * four legs:
 *
 *   clean            supervision on, no faults — the goodput
 *                    baseline;
 *   hang_timed       hangs + the timed-fetch bound (stage_timeout_s):
 *                    wedged reads are abandoned at the stage budget
 *                    and the ladder degrades or recovers — the
 *                    acceptance leg (goodput within 2x of clean);
 *   hang_watchdog    hangs + the watchdog ONLY (no stage timeout):
 *                    the supervisor flags the silent worker at the
 *                    liveness budget and fail-fasts the stuck
 *                    request — slower than the timed bound, but the
 *                    fleet stays live;
 *   hang_unsup       hangs, supervision OFF — the collapse control.
 *                    Workers wedge permanently, so this leg is
 *                    measured over a fixed observation window and
 *                    the wedge is released afterwards (the injector's
 *                    releaseHangs()) purely so teardown can complete.
 *
 * Headline ratio (higher-is-better, CI-gated):
 *   containment_goodput_gain   hang_timed goodput / hang_unsup
 *                              served-rate — supervision holds
 *                              goodput where the control collapses.
 *
 * Every leg hard-checks the EXTENDED terminal conservation identity
 * (admitted == done + degraded + failed + expired + shed + rejected
 * + cancelled) and that drain()/stop() return promptly — the bench
 * doubles as an end-to-end liveness check for the supervision stack.
 *
 * Budget knobs: TAMRES_ENGINE_REQS (closed-loop requests per leg).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
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
    double hang_p = 0.0;
    bool timed = false;    //!< stage_timeout_s bound on reads
    bool watchdog = false; //!< supervisor thread + liveness budget
};

struct LegResult
{
    uint64_t done = 0;
    uint64_t degraded = 0;
    uint64_t failed = 0;
    double goodput_rps = 0.0;     //!< served-good per second
    double p99_ms = 0.0;          //!< latency p99 over served
    double stalled_fraction = 0.0; //!< not terminal at window close
    double drain_s = 0.0;          //!< drain() + stop() wall time
    StagedStats stats;
    uint64_t faults_hung = 0;
};

} // namespace

int
main()
{
    bench::banner("watchdog_containment",
                  "serving goodput and liveness under wedged reads: "
                  "timed-fetch abandonment + watchdog supervision");
    const int requests = bench::engineRequests();
    // The collapse control is measured over this fixed window; the
    // supervised legs must finish their whole mix well inside it.
    constexpr double kWindowS = 6.0;

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

    std::vector<Leg> legs(4);
    legs[0] = {"clean", 0.0, true, true};
    legs[1] = {"hang_timed", 0.08, true, true};
    legs[2] = {"hang_watchdog", 0.08, false, true};
    legs[3] = {"hang_unsup", 0.08, false, false};

    auto run_leg = [&](const Leg &leg) {
        FaultPolicy policy;
        policy.seed = 0x5AFE;
        policy.hang_p = leg.hang_p;
        FaultyObjectStore faulty(store, policy);

        StagedEngineConfig cfg;
        cfg.preview_scans = 2;
        cfg.crop_area = 0.75;
        cfg.decode_workers = 2;
        cfg.decode_batch = 2;
        cfg.queue_capacity = std::max(64, requests + kObjects);
        cfg.scan_depth = [&](uint64_t, int r_idx) {
            return std::min(num_scans, 2 + r_idx);
        };
        // Tight next to the ~5 ms service time: each wedged read
        // costs at most one stage budget of one worker's capacity,
        // which is what keeps the hang leg within 2x of clean.
        if (leg.timed)
            cfg.retry.stage_timeout_s = 0.02;
        if (leg.watchdog) {
            cfg.overload.watchdog.enable = true;
            // Generous next to the 50 ms timed bound so the watchdog
            // is the SECOND line of defense on hang_timed and the
            // only one on hang_watchdog.
            cfg.overload.watchdog.liveness_budget_s = 0.25;
            cfg.overload.watchdog.poll_interval_s = 0.01;
        }
        LegResult res;
        {
            StagedServingEngine engine(faulty, scale, nullptr, cfg);

            std::vector<StagedRequest> reqs(
                static_cast<size_t>(requests));
            Timer t;
            for (int i = 0; i < requests; ++i) {
                reqs[i].id = static_cast<uint64_t>(i % kObjects);
                engine.submit(reqs[i]);
            }
            // Poll instead of wait(): an unsupervised leg with wedged
            // workers would block wait() forever. The window is the
            // measurement for the collapse control and a generous
            // ceiling for the supervised legs.
            auto terminal = [](const StagedRequest &r) {
                const StagedState s = r.stateNow();
                return s != StagedState::Idle &&
                       s != StagedState::Queued &&
                       s != StagedState::Submitted;
            };
            size_t done_n = 0;
            double elapsed = 0.0;
            while (elapsed < kWindowS) {
                done_n = 0;
                for (const auto &r : reqs)
                    done_n += terminal(r) ? 1 : 0;
                if (done_n == reqs.size())
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                elapsed = t.seconds();
            }
            const double measured =
                done_n == reqs.size() ? t.seconds() : kWindowS;
            res.stalled_fraction =
                static_cast<double>(reqs.size() - done_n) /
                static_cast<double>(reqs.size());

            // Release the wedge so the unsupervised leg can tear
            // down; the supervised legs have nothing left to release.
            faulty.releaseHangs();
            for (auto &r : reqs)
                engine.wait(r);

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
                    std::fprintf(
                        stderr,
                        "FAIL: leg %s request ended in state %d "
                        "(no deadline or cancel was issued)\n",
                        leg.name, static_cast<int>(r.stateNow()));
                    std::exit(1);
                }
            }
            // Goodput counts only what was served INSIDE the window
            // (everything, for a supervised leg that finished early).
            const uint64_t served_in_window =
                done_n == reqs.size()
                    ? res.done + res.degraded
                    : static_cast<uint64_t>(done_n);
            res.goodput_rps =
                measured > 0
                    ? static_cast<double>(served_in_window) / measured
                    : 0.0;
            res.p99_ms = sampleQuantile(served_lat, 0.99) * 1e3;

            Timer td;
            engine.drain();
            engine.stop();
            res.drain_s = td.seconds();
            res.stats = engine.stats();
            res.faults_hung = faulty.stats().faults_hung;
        }

        // The extended terminal conservation identity is a hard
        // invariant of the supervision stack — every admitted request
        // ends in exactly one terminal even when its reads wedge.
        const StagedStats &s = res.stats;
        if (s.admitted != s.done + s.degraded + s.failed + s.expired +
                              s.shed_admission + s.rejected +
                              s.cancelled) {
            std::fprintf(
                stderr,
                "FAIL: leg %s breaks terminal conservation "
                "(admitted %llu != %llu)\n",
                leg.name, static_cast<unsigned long long>(s.admitted),
                static_cast<unsigned long long>(
                    s.done + s.degraded + s.failed + s.expired +
                    s.shed_admission + s.rejected + s.cancelled));
            std::exit(1);
        }
        if (res.drain_s > 5.0) {
            std::fprintf(stderr,
                         "FAIL: leg %s drain()/stop() took %.2fs — "
                         "teardown is not live under wedged reads\n",
                         leg.name, res.drain_s);
            std::exit(1);
        }
        return res;
    };

    std::vector<LegResult> results;
    for (const Leg &leg : legs) {
        const LegResult r = run_leg(leg);
        std::printf(
            "%-14s goodput %.2f req/s  done %llu  degraded %llu  "
            "failed %llu  p99 %.2f ms  stalled %.0f%%  hung %llu  "
            "abandoned %llu  wd flags %llu  drain %.3fs\n",
            leg.name, r.goodput_rps,
            static_cast<unsigned long long>(r.done),
            static_cast<unsigned long long>(r.degraded),
            static_cast<unsigned long long>(r.failed), r.p99_ms,
            r.stalled_fraction * 100.0,
            static_cast<unsigned long long>(r.faults_hung),
            static_cast<unsigned long long>(r.stats.reads_abandoned),
            static_cast<unsigned long long>(r.stats.watchdog_flags),
            r.drain_s);
        results.push_back(r);
    }

    // hang_unsup goodput measures served-within-window over the fixed
    // window — the collapse number the gain divides by.
    const double unsup_rate = results[3].goodput_rps;
    const double containment_gain =
        unsup_rate > 0 ? results[1].goodput_rps / unsup_rate : 0.0;
    std::printf(
        "containment goodput gain (hang_timed/hang_unsup): %.3f\n",
        containment_gain);

    // --- Acceptance hard-checks (the gate catches drift; these catch
    // outright failure of the containment story) -------------------
    if (results[1].goodput_rps < 0.5 * results[0].goodput_rps) {
        std::fprintf(stderr,
                     "FAIL: hang_timed goodput %.2f fell below half "
                     "of clean %.2f — hangs are not contained\n",
                     results[1].goodput_rps, results[0].goodput_rps);
        return 1;
    }
    if (containment_gain <= 1.0) {
        std::fprintf(stderr,
                     "FAIL: containment gain %.3f <= 1 — supervision "
                     "did not beat the unsupervised collapse\n",
                     containment_gain);
        return 1;
    }
    if (results[3].stalled_fraction == 0.0 &&
        results[3].faults_hung > 0) {
        std::fprintf(stderr,
                     "FAIL: the unsupervised leg did not stall — the "
                     "collapse control is not exercising the wedge\n");
        return 1;
    }
    if (results[1].stalled_fraction > 0.0 ||
        results[2].stalled_fraction > 0.0) {
        std::fprintf(stderr,
                     "FAIL: a supervised leg left requests unfinished "
                     "inside the %.1fs window\n",
                     kWindowS);
        return 1;
    }

    FILE *f = std::fopen("BENCH_watchdog.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_watchdog.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"requests\": %d,\n  \"window_s\": %.1f,\n"
                 "  \"legs\": [\n",
                 requests, kWindowS);
    for (size_t i = 0; i < results.size(); ++i) {
        const Leg &leg = legs[i];
        const LegResult &r = results[i];
        const double n = static_cast<double>(requests);
        // The collapse control's served rate deliberately avoids the
        // gated key patterns: its near-zero value is the POINT, and
        // gating it would reward further collapse.
        const bool supervised = leg.timed || leg.watchdog;
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"hang_p\": %.2f, "
            "\"timed\": %s, \"watchdog\": %s,\n"
            "     \"%s\": %.4f, \"done_fraction\": %.4f, "
            "\"degraded_fraction\": %.4f, \"failed_fraction\": %.4f,"
            "\n     \"%s\": %.4f, \"stalled_fraction\": %.4f, "
            "\"drain_s\": %.4f,\n"
            "     \"reads_abandoned\": %llu, \"watchdog_flags\": %llu,"
            " \"retry_giveups\": %llu, \"faults_hung\": %llu}%s\n",
            leg.name, leg.hang_p, leg.timed ? "true" : "false",
            leg.watchdog ? "true" : "false",
            supervised ? "goodput_rps" : "served_per_window_s",
            r.goodput_rps, r.done / n, r.degraded / n, r.failed / n,
            supervised ? "p99_ms" : "served_window_p99",
            r.p99_ms, r.stalled_fraction, r.drain_s,
            static_cast<unsigned long long>(r.stats.reads_abandoned),
            static_cast<unsigned long long>(r.stats.watchdog_flags),
            static_cast<unsigned long long>(r.stats.retry_giveups),
            static_cast<unsigned long long>(r.faults_hung),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"containment_goodput_gain\": %.4f\n}\n",
                 containment_gain);
    std::fclose(f);
    std::printf("\nwrote BENCH_watchdog.json\n");
    return 0;
}
