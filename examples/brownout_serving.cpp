/**
 * @file
 * Overload control plane walkthrough: the staged serving engine rides
 * through a storage storm and back out, with every defense visible —
 * the circuit breaker trips and heals, hedged reads race the injected
 * latency tail, and a brownout ladder sheds quality (scan depth,
 * then resolution, then admission) and recovers.
 *
 * Waves of requests are served across three phases:
 *
 *   clean     the store behaves; everything is Done at full quality;
 *   storm     ~60% of fetches fail and the rest drag a latency tail:
 *             the breaker opens (fail-fast instead of backoff), the
 *             ladder climbs to its non-admitting rung;
 *   recovery  the store heals: half-open probes close the breaker,
 *             the tier steps back down, terminals return to Done.
 *
 * The printed per-wave table shows the ladder tier, breaker state,
 * and terminal mix shifting as the control plane reacts. Terminal
 * conservation (admitted == done + degraded + failed + expired +
 * shed + rejected + cancelled) is checked at the end; the program
 * exits 1 when it breaks.
 *
 * Build & run:  ./build/examples/brownout_serving
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "codec/progressive.hh"
#include "core/staged_engine.hh"
#include "image/synthetic.hh"
#include "storage/breaker.hh"
#include "storage/fault_injection.hh"

using namespace tamres;

int
main()
{
    std::printf("tamres example — brownout serving through a storage "
                "storm\n\n");

    // --- Stored objects + trained scale model ----------------------
    DatasetSpec spec = imagenetLike();
    spec.mean_height = 192;
    spec.mean_width = 192;
    SyntheticDataset ds(spec, 32, 17);
    ScaleModelOptions sopts;
    sopts.epochs = 8;
    ScaleModel scale({112, 168, 224}, sopts);
    scale.train(ds, 0, 24, BackboneArch::ResNet18, {0.75}, 96);

    constexpr int kObjects = 6;
    ObjectStore store;
    for (int i = 0; i < kObjects; ++i)
        store.put(static_cast<uint64_t>(i),
                  encodeProgressive(ds.renderAt(i, 224)));
    const int num_scans = store.peek(0).numScans();

    // --- Phase-switching fault script ------------------------------
    // 0 = clean, 1 = storm. The schedule is a pure function of the
    // fetch context, so within a phase it replays deterministically.
    std::atomic<int> phase{0};
    FaultPolicy policy;
    policy.script = [&phase](const FaultContext &ctx) {
        FaultDecision d;
        if (phase.load(std::memory_order_relaxed) != 1)
            return d; // clean phases are fully transparent
        const uint64_t h = ctx.id * 2654435761ull +
                           static_cast<uint64_t>(ctx.attempt) * 40503ull +
                           static_cast<uint64_t>(ctx.from_scans) * 97ull;
        const uint64_t roll = h % 10;
        if (roll < 6)
            d.fail = true; // transient failure, nothing delivered
        else if (roll < 8)
            d.delay_s = 8e-3; // the tail the hedge races
        return d;
    };
    FaultyObjectStore faulty(store, policy);

    BreakerConfig bcfg;
    bcfg.window_s = 0.3;
    bcfg.min_samples = 6;
    bcfg.failure_threshold = 0.5;
    bcfg.cooldown_s = 0.15;
    bcfg.half_open_probes = 2;
    bcfg.close_after = 2;
    BreakerObjectStore breaker(faulty, bcfg);

    StagedEngineConfig cfg;
    cfg.preview_scans = 2;
    cfg.crop_area = 0.75;
    cfg.decode_workers = 2;
    cfg.decode_batch = 2;
    cfg.queue_capacity = 64;
    cfg.scan_depth = [&](uint64_t, int r_idx) {
        return std::min(num_scans, 2 + r_idx);
    };
    cfg.overload.hedge.enable = true;
    cfg.overload.hedge.min_delay_s = 1e-3;
    cfg.overload.hedge.max_delay_s = 5e-3;
    // The brownout ladder: shallower reads, then the lowest
    // resolution, then admission refusal. Every rung is reached
    // through the outcome window, none by queue depth.
    QualityTier shallow;
    shallow.preview_cap = 1;
    shallow.scan_cap = 2;
    QualityTier floored = shallow;
    floored.resolution_cap = scale.resolutions().front();
    QualityTier refusing = floored;
    refusing.admit = false;
    cfg.ladder = {QualityTier{}, shallow, floored, refusing};
    cfg.overload.quality_window.window_s = 0.4;
    cfg.overload.quality_window.min_samples = 6;
    cfg.overload.quality_window.high_pressure = 0.5;
    cfg.overload.quality_window.low_pressure = 0.1;
    cfg.overload.quality_window.min_dwell_s = 0.15;
    StagedServingEngine engine(breaker, scale, nullptr, cfg);

    // --- Waves across clean -> storm -> recovery -------------------
    constexpr int kWave = 12;
    std::printf("%-4s %-9s %5s %-10s %5s %5s %5s %5s %5s\n", "wave",
                "phase", "tier", "breaker", "done", "degr", "fail",
                "rej", "shed");
    uint64_t next_id = 0;
    for (int wave = 0; wave < 24; ++wave) {
        const bool storm = wave >= 6 && wave < 14;
        const char *phase_name = wave < 6      ? "clean"
                                 : storm       ? "storm"
                                               : "recovery";
        phase.store(storm ? 1 : 0, std::memory_order_relaxed);

        std::vector<StagedRequest> reqs(kWave);
        for (auto &r : reqs) {
            r.id = next_id++ % kObjects;
            engine.submit(r);
        }
        int done = 0, degraded = 0, failed = 0, rejected = 0,
            shed = 0;
        for (auto &r : reqs) {
            engine.wait(r);
            switch (r.stateNow()) {
            case StagedState::Done: ++done; break;
            case StagedState::Degraded: ++degraded; break;
            case StagedState::Failed: ++failed; break;
            case StagedState::Rejected: ++rejected; break;
            default: ++shed; break;
            }
        }
        const StagedStats st = engine.stats();
        std::printf("%-4d %-9s %5d %-10s %5d %5d %5d %5d %5d\n", wave,
                    phase_name, st.ladder.window_tier,
                    breakerStateName(breaker.state()), done, degraded,
                    failed, rejected, shed);
        // Give the controllers wall-clock room: the breaker cooldown
        // and the ladder dwell/idle-recovery are time-based.
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }

    const StagedStats st = engine.stats();
    const ReadStats rs = breaker.stats();
    std::printf("\ntotals: admitted %llu  done %llu  degraded %llu  "
                "failed %llu  expired %llu  shed %llu  rejected %llu  "
                "cancelled %llu\n",
                static_cast<unsigned long long>(st.admitted),
                static_cast<unsigned long long>(st.done),
                static_cast<unsigned long long>(st.degraded),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(st.expired),
                static_cast<unsigned long long>(st.shed_admission),
                static_cast<unsigned long long>(st.rejected),
                static_cast<unsigned long long>(st.cancelled));
    std::printf("breaker: trips %llu  fast-fails %llu   hedges: "
                "issued %llu  wins %llu   ladder: drops %llu  "
                "recoveries %llu\n",
                static_cast<unsigned long long>(rs.breaker_trips),
                static_cast<unsigned long long>(rs.breaker_fast_fails),
                static_cast<unsigned long long>(st.hedges_issued),
                static_cast<unsigned long long>(st.hedge_wins),
                static_cast<unsigned long long>(st.ladder.drops),
                static_cast<unsigned long long>(st.ladder.recoveries));
    std::printf("supervision: reads abandoned %llu  watchdog flags "
                "%llu\n",
                static_cast<unsigned long long>(st.reads_abandoned),
                static_cast<unsigned long long>(st.watchdog_flags));

    const uint64_t sum = st.done + st.degraded + st.failed +
                         st.expired + st.shed_admission + st.rejected +
                         st.cancelled;
    if (st.admitted != sum) {
        std::printf("TERMINAL CONSERVATION VIOLATED: admitted %llu != "
                    "%llu\n",
                    static_cast<unsigned long long>(st.admitted),
                    static_cast<unsigned long long>(sum));
        return 1;
    }
    std::printf("terminal conservation holds: admitted == sum of "
                "terminals (%llu)\n",
                static_cast<unsigned long long>(sum));
    return 0;
}
