/**
 * @file
 * Shared helpers for the experiment harnesses: environment-tunable
 * budgets, network latency measurement under a kernel mode, and
 * network tuning with a persistent config cache.
 *
 * Budgets (override via environment):
 *   TAMRES_EVAL_IMAGES       pixel-free accuracy sample size
 *   TAMRES_EVAL_IMAGES_PIX   pixel-rendering eval sample size
 *   TAMRES_CAL_IMAGES        images per storage-calibration table
 *   TAMRES_TRAIN_IMAGES      scale-model training images
 *   TAMRES_TUNING_TRIALS     autotuner candidates per conv shape
 *   TAMRES_TUNING_BUDGET_S   autotuner wall-clock budget per shape
 *   TAMRES_LATENCY_REPS      timed repetitions per latency point
 *   TAMRES_ENGINE_REQS       requests per engine closed-loop point
 *   TAMRES_CACHE             tuning-cache path
 *
 * BENCH_kernels.json (written by bench/parallel_speedup, gated by
 * tools/bench_gate.py against bench/baselines/). Every *_gflops field
 * is a multiply-accumulate rate in GMAC/s (ConvProblem::macs() / 1e9
 * per second, the paper's "FLOPs" convention): half the GFLOP/s that
 * counts 2 FLOPs per MAC, as perfbench's nn.conv_gflops and
 * microbench_kernels' GFLOP/s counter do. The names are kept for
 * baseline continuity; hold them against a roofline in MACs.
 *   threads                  threaded-variant worker count
 *   kernels[]                one conv algorithm at a ResNet/MobileNet
 *                            shape per entry:
 *     serial_gflops,         GMAC/s at 1 thread and at `threads`
 *     threaded_gflops
 *     speedup                threaded / serial
 *   simd                     detected level, "+avx512f" when the
 *                            512-bit GEMM tiles are available
 *   micro[]                  one (mr x nr) serial GEMM per entry:
 *     scalar_gflops          GMAC/s at the scalar level
 *     simd_gflops            GMAC/s at the detected level with its
 *                            sub-features on (512-bit tiles included)
 *     avx2_gflops            GMAC/s at the detected level with the
 *                            512-bit tiles off (equals simd_gflops on
 *                            hosts without AVX-512F)
 *     speedup                simd_gflops / scalar_gflops
 *   prepack, dct8x8, codec   req/s, blocks/s and Mpix/s throughputs
 *
 * BENCH_engine.json (written by bench/batched_serving, gated by
 * tools/bench_gate.py against bench/baselines/):
 *   workers                  engine worker threads (host parallelism)
 *   requests                 closed-loop requests per measured point
 *   serial_rps               batch-1 runInto() closed-loop rate, the
 *                            baseline (median of samples interleaved
 *                            with the engine runs to cancel drift)
 *   batch_item_speedup.bN    per-item planned-execution speedup of a
 *                            batch-N runInto over batch-1 (merged-
 *                            column GEMM + shared prepack effect)
 *   engine[]                 one point per max_batch sweep entry:
 *     max_batch, rps         formed-batch cap and measured rate
 *     vs_serial              rps / serial_rps
 *     mean_batch             served / batches (formation efficiency)
 *     p50_ms, p99_ms         closed-loop request latency percentiles
 *   engine_batched_vs_serial best batched engine rate / serial_rps —
 *                            the headline "real engine beats serial
 *                            batch-1" ratio the CI gate watches
 *
 * BENCH_faults.json (written by bench/fault_tolerance, gated by
 * tools/bench_gate.py with a wider built-in margin — chaos legs
 * inject latency on purpose):
 *   requests                 closed-loop requests per injection leg
 *   legs[]                   one point per leg (clean / acceptance /
 *                            heavy), in that fixed order:
 *     name, *_p              leg name and its injection rates
 *     goodput_rps            (Done + Degraded) per wall-clock second
 *                            — the gated useful-work rate
 *     done_fraction          served at the intended scan depth
 *     degraded_fraction      served at a reduced depth after retry
 *                            exhaustion (graceful degradation)
 *     failed_fraction        structured per-request failures
 *     p99_ms                 latency p99 over served requests
 *     retries, fetch_faults, engine retry-path counters
 *     retry_giveups          (see StagedStats)
 *     faults_*               what the FaultyObjectStore actually
 *                            injected (delayed / transient /
 *                            truncated / corrupted)
 *   acceptance_goodput_retention_gain
 *                            acceptance-leg goodput / clean goodput —
 *                            the gated "faults cost latency, not
 *                            liveness" headline ratio
 *
 * BENCH_overload.json (written by bench/overload_control, gated by
 * tools/bench_gate.py; p99_ms fields gate lower-is-better via the
 * gate's per-file direction map):
 *   requests                 closed-loop requests per leg
 *   legs[]                   one point per leg, in this fixed order:
 *                            tail_base / tail_hedge (latency-tail
 *                            injection, hedging off/on) and
 *                            retry_only / full (heavy fault mix,
 *                            PR 6 retries only vs the whole breaker
 *                            + hedge + brownout control plane):
 *     name, hedge, breaker,  leg name and which defenses are on
 *     brownout
 *     goodput_rps            (Done + Degraded) per wall-clock second
 *     done_/degraded_/       terminal mix over the leg's requests
 *     failed_fraction
 *     p99_ms                 latency p99 over served requests —
 *                            lower-is-better gated
 *     retries, retry_giveups engine retry-path counters
 *     hedges_issued,         backup fetches launched / adopted over
 *     hedge_wins             their primary
 *     breaker_trips,         circuit-breaker transitions to Open and
 *     breaker_fast_fails     fetches it rejected while Open
 *     tier_drops,            ladder window-tier shifts and decisions
 *     tier_recoveries,       a tier's resolution cap lowered
 *     brownout_capped        (StagedStats ladder.drops /
 *                            ladder.recoveries / tier_capped)
 *   hedge_p99_gain           tail_base p99 / tail_hedge p99 — the
 *                            gated "hedging cuts the fetch-bound
 *                            tail" headline ratio
 *   overload_goodput_gain    full goodput / retry_only goodput — the
 *                            gated "the control plane keeps goodput
 *                            under the heavy mix" headline ratio
 *                            (acceptance target: >= 2)
 *
 * BENCH_watchdog.json (written by bench/watchdog_containment, gated
 * by tools/bench_gate.py; p99_ms and stall* fields gate
 * lower-is-better via the gate's per-file direction map):
 *   requests                 closed-loop requests per leg
 *   window_s                 fixed observation window the collapse
 *                            control is measured over
 *   legs[]                   one point per leg, in this fixed order:
 *                            clean (supervised, no faults),
 *                            hang_timed (wedged reads + timed-fetch
 *                            bound), hang_watchdog (wedged reads +
 *                            watchdog only), hang_unsup (wedged
 *                            reads, supervision off — the collapse
 *                            control):
 *     name, hang_p, timed,   leg name, wedge probability, and which
 *     watchdog               supervision mechanisms are on
 *     goodput_rps            (Done + Degraded) per second inside the
 *                            window — gated up on supervised legs;
 *                            the collapse control emits
 *                            served_per_window_s instead, an
 *                            UNGATED key (its near-zero value is the
 *                            point; gating would reward collapse)
 *     done_/degraded_/       terminal mix over the leg's requests
 *     failed_fraction        (measured after the wedge is released)
 *     p99_ms                 latency p99 over served requests —
 *                            lower-is-better gated on supervised
 *                            legs (served_window_p99, ungated, on
 *                            the collapse control)
 *     stalled_fraction       requests not yet terminal when the
 *                            window closed — lower-is-better gated
 *                            (identically 0 on supervised legs, so
 *                            the gate skips them until one drifts)
 *     drain_s                drain() + stop() wall time — the bench
 *                            hard-fails if teardown is not prompt
 *     reads_abandoned,       supervision counters: timed-fetch
 *     watchdog_flags,        abandonments, watchdog firings, retry
 *     retry_giveups,         budget give-ups, and reads the injector
 *     faults_hung            actually wedged
 *   containment_goodput_gain hang_timed goodput / hang_unsup served
 *                            rate — the gated "supervision holds
 *                            goodput where the control collapses"
 *                            headline ratio
 *
 * BENCH_cache.json (written by bench/decode_cache, gated by
 * tools/bench_gate.py; bytes_read and p99_ms fields gate
 * lower-is-better via the gate's per-file direction map):
 *   requests                 Zipf draws served per leg (same fixed
 *                            sequence in every leg)
 *   objects                  hot-set size the Zipf draw ranges over
 *   zipf_alpha               popularity skew (1.0 = classic Zipf)
 *   entry_bytes              measured footprint of one full-depth
 *                            cache entry (preview + snapshot +
 *                            overhead) — capacities are multiples
 *   legs[]                   one point per leg, in ascending
 *                            capacity order: off / small / medium /
 *                            large:
 *     name, capacity_entries leg name and capacity in entry units
 *     bytes_read             store bytes the engine actually fetched
 *                            — lower-is-better gated; hits charge
 *                            zero, partial hits charge the delta
 *     p99_ms                 latency p99 over served requests —
 *                            lower-is-better gated (every physical
 *                            fetch pays an injected latency tail, so
 *                            this is the fetches-avoided dividend)
 *     goodput_rps            (Done + Degraded) per wall-clock second
 *     done_/degraded_        terminal mix over the leg's requests
 *     fraction
 *     cache_hits             stage-1 fetches skipped entirely
 *     cache_resumes          stage-4 deep fetches resumed partway
 *     cache_misses           stage-1 lookups that found nothing
 *     cache_bytes_saved      store bytes the cache made unnecessary
 *     evictions, entries     LRU evictions and resident entries
 *   cache_bytes_gain         off-leg bytes_read / large-leg
 *                            bytes_read — the gated ">= 2x bytes
 *                            cut on the Zipf mix" headline ratio
 *                            (named so the lower-is-better
 *                            "bytes_read" key pattern cannot claim
 *                            a higher-is-better ratio)
 *   cache_p99_gain           off-leg p99 / large-leg p99 — the gated
 *                            "hits skip the latency tail" headline
 *
 * BENCH_quant.json (written by bench/quantized_serving, gated by
 * tools/bench_gate.py; p99_ms fields gate lower-is-better via the
 * gate's per-file direction map):
 *   workers                  engine worker threads (host parallelism)
 *   requests                 closed-loop requests per leg
 *   max_batch                formed-batch cap both legs run under
 *   convs_quantized          Conv2d ops rewritten to QuantConv2d
 *   fp32_rps, int8_rps       closed-loop request rate of each leg on
 *                            the SAME engine (two graphs, two
 *                            executors per worker; the int8 leg
 *                            stamps want_int8 on every request) —
 *                            both higher-is-better gated
 *   fp32_p50_ms, fp32_p99_ms closed-loop latency percentiles of the
 *   int8_p50_ms, int8_p99_ms two legs — p99s lower-is-better gated
 *   int8_speedup             int8_rps / fp32_rps — the gated "the
 *                            quantized tier buys real headroom"
 *                            headline ratio (acceptance target: the
 *                            int8 leg serves strictly more than fp32)
 *   accuracy_rel_err         mean relative logit error of the int8
 *                            graph vs its fp32 sibling over a sample
 *                            batch — informational (ungated): the
 *                            accuracy cost of the precision tier
 */

#ifndef TAMRES_BENCH_BENCH_COMMON_HH
#define TAMRES_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <memory>
#include <string>

#include "core/pipeline.hh"
#include "nn/kernel_selector.hh"
#include "tensor/tensor_ops.hh"
#include "tuning/tuner.hh"
#include "util/rng.hh"
#include "util/env.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace tamres {
namespace bench {

inline int evalImages() { return static_cast<int>(envInt("TAMRES_EVAL_IMAGES", 20000)); }
inline int evalImagesPix() { return static_cast<int>(envInt("TAMRES_EVAL_IMAGES_PIX", 400)); }
inline int calImages() { return static_cast<int>(envInt("TAMRES_CAL_IMAGES", 42)); }
inline int trainImages() { return static_cast<int>(envInt("TAMRES_TRAIN_IMAGES", 480)); }
inline int latencyReps() { return static_cast<int>(envInt("TAMRES_LATENCY_REPS", 2)); }
inline int engineRequests() { return static_cast<int>(envInt("TAMRES_ENGINE_REQS", 48)); }

inline std::string
cachePath()
{
    return envString("TAMRES_CACHE", "tamres_tuning_cache.txt");
}

inline TuneOptions
tuneOptions()
{
    TuneOptions opts;
    opts.trials = static_cast<int>(envInt("TAMRES_TUNING_TRIALS", 10));
    opts.reps = 2;
    opts.time_budget_s = envDouble("TAMRES_TUNING_BUDGET_S", 1.2);
    return opts;
}

/** The shared persistent tuning cache. */
inline ConfigCache &
tuningCache()
{
    static ConfigCache cache(cachePath());
    return cache;
}

/**
 * Tune every conv of @p graph at @p resolution (cache-backed) and
 * register the winners with the KernelSelector.
 */
inline void
ensureTuned(Graph &graph, int resolution)
{
    AutoTuner tuner(&tuningCache());
    tuner.tuneNetwork(graph, {1, 3, resolution, resolution},
                      tuneOptions());
}

/** Build a backbone graph for an arch. */
inline std::unique_ptr<Graph>
buildBackbone(BackboneArch arch, uint64_t seed = 1)
{
    return arch == BackboneArch::ResNet18 ? buildResNet18(1000, seed)
                                          : buildResNet50(1000, seed);
}

/**
 * Median wall-clock seconds of one batch-1 forward pass at
 * @p resolution under @p mode.
 */
inline double
networkLatency(Graph &graph, int resolution, KernelMode mode)
{
    KernelSelector::instance().setMode(mode);
    Tensor in({1, 3, resolution, resolution});
    Rng rng(resolution);
    fillUniform(in, rng, 0.0f, 1.0f);
    const double s = medianRunSeconds([&] { graph.run(in); },
                                      latencyReps());
    KernelSelector::instance().setMode(KernelMode::Library);
    return s;
}

/** Print a standard header naming the experiment and the host. */
inline void
banner(const char *experiment, const char *paper_ref)
{
    std::printf("================================================\n");
    std::printf("tamres experiment: %s\n", experiment);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("note: single-host CPU substitutes for the paper's "
                "4790K/2990WX testbeds (see EXPERIMENTS.md)\n");
    std::printf("================================================\n");
}

} // namespace bench
} // namespace tamres

#endif // TAMRES_BENCH_BENCH_COMMON_HH
