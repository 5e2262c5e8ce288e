/**
 * @file
 * Hot-object decode cache under Zipf popularity — the bytes-read and
 * tail-latency economics of caching decoded previews + resumable
 * decoder snapshots, emitted as machine-readable BENCH_cache.json
 * (fields documented in bench/bench_common.hh) and gated by
 * tools/bench_gate.py.
 *
 * A decision-only staged engine (the fetch / decode / decide path is
 * what the cache short-circuits; backbone inference is orthogonal)
 * serves ONE fixed Zipf(alpha = 1.0) request sequence over a hot set
 * of stored objects, through a FaultyObjectStore that injects a
 * heavy latency tail on every physical fetch. Legs differ only in
 * the DecodeCache capacity:
 *
 *   off     no cache — every request fetches and decodes cold;
 *   small   a few entries: the hot head fits, the tail churns;
 *   medium  the working set mostly fits;
 *   large   everything fits — steady state is all hits.
 *
 * The request sequence, the Zipf draw, and the fault schedule are
 * pure functions of fixed seeds, so legs are byte-comparable: any
 * bytes_read difference is the cache, not the workload. The harness
 * hard-fails if (a) any cached entry's resumed decode is not
 * bit-identical to a cold decodeProgressive() at the same depth,
 * (b) terminal or cache conservation breaks in any leg, or (c) the
 * engine's bytes_read disagrees with what the store itself metered —
 * the "hits charge zero, partial hits charge the delta" contract.
 *
 * Budget knobs: TAMRES_ENGINE_REQS (scaled x8 for the Zipf mix).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_common.hh"
#include "codec/progressive.hh"
#include "core/staged_engine.hh"
#include "image/synthetic.hh"
#include "storage/decode_cache.hh"
#include "storage/fault_injection.hh"
#include "util/windowed.hh"

using namespace tamres;

namespace {

struct Leg
{
    const char *name;
    size_t capacity_entries; //!< 0 = cache off
};

struct LegResult
{
    uint64_t done = 0;
    uint64_t degraded = 0;
    double goodput_rps = 0.0;
    double p99_ms = 0.0;
    StagedStats stats;
    ReadStats store_stats;
};

/** Inverse-CDF Zipf(alpha) sampler over [0, n) with a fixed seed. */
std::vector<uint64_t>
zipfSequence(int n, double alpha, int draws, uint64_t seed)
{
    std::vector<double> cdf(static_cast<size_t>(n));
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf[static_cast<size_t>(i)] = sum;
    }
    Rng rng(seed);
    std::vector<uint64_t> seq(static_cast<size_t>(draws));
    for (auto &s : seq) {
        const double u = rng.uniform() * sum;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        s = static_cast<uint64_t>(it - cdf.begin());
    }
    return seq;
}

} // namespace

int
main()
{
    bench::banner("decode_cache",
                  "hot-object preview/snapshot cache under Zipf "
                  "popularity: bytes-read and p99 vs capacity");
    const int requests = bench::engineRequests() * 8;
    constexpr int kObjects = 48;
    constexpr double kAlpha = 1.0;

    // --- Stored objects + trained scale model ----------------------
    DatasetSpec spec = imagenetLike();
    spec.mean_height = 160;
    spec.mean_width = 160;
    SyntheticDataset ds(spec, kObjects, 7);
    ScaleModelOptions sopts;
    sopts.epochs = 6;
    ScaleModel scale({96, 128, 160}, sopts);
    scale.train(ds, 0, 32, BackboneArch::ResNet18, {0.75}, 96);

    ObjectStore store;
    ProgressiveConfig ccfg;
    ccfg.entropy = EntropyCoder::Huffman;
    ccfg.restart_interval = 64;
    std::vector<EncodedImage> encs;
    encs.reserve(kObjects);
    for (int i = 0; i < kObjects; ++i) {
        encs.push_back(encodeProgressive(ds.renderAt(i, 176), ccfg));
        store.put(static_cast<uint64_t>(i), encs.back());
    }
    const int num_scans = store.peek(0).numScans();

    // One fixed request sequence shared by every leg.
    const std::vector<uint64_t> seq =
        zipfSequence(kObjects, kAlpha, requests, 0x21Fu);

    // Per-entry footprint, measured rather than assumed: one
    // full-depth entry in a throwaway cache (admission gate off).
    size_t per_entry = 0;
    {
        DecodeCacheConfig probe_cfg;
        probe_cfg.require_second_hit = false;
        DecodeCache probe(probe_cfg);
        EncodedImage d = encs[0].headerCopy();
        ProgressiveDecoder dec(d);
        d.bytes = encs[0].bytes;
        dec.advanceTo(num_scans);
        probe.insert(0, num_scans, dec.image(), dec.snapshot());
        per_entry = static_cast<size_t>(probe.stats().bytes);
    }

    // Every physical fetch pays a latency-tail draw: the cache's p99
    // win is exactly the fetches it never issues.
    FaultPolicy policy;
    policy.seed = 0xCAC4Eu;
    policy.latency_tail_p = 0.5;
    policy.latency_tail_scale_s = 4e-3;
    policy.latency_max_s = 20e-3;

    const std::vector<Leg> legs = {{"off", 0},
                                   {"small", 6},
                                   {"medium", 24},
                                   {"large", 160}};

    auto run_leg = [&](const Leg &leg, DecodeCache *cache) {
        FaultyObjectStore faulty(store, policy);
        faulty.resetStats(); // per-leg metering on the shared base
        if (cache)
            faulty.attachCache(cache); // lands on root() == store
        StagedEngineConfig cfg;
        cfg.preview_scans = 2;
        cfg.crop_area = 0.75;
        cfg.decode_workers = 2;
        cfg.decode_batch = 2;
        cfg.queue_capacity = std::max(64, requests + kObjects);
        cfg.scan_depth = [&](uint64_t, int r_idx) {
            return std::min(num_scans, 2 + r_idx);
        };
        cfg.cache = cache;
        StagedServingEngine engine(faulty, scale, nullptr, cfg);

        std::vector<StagedRequest> reqs(
            static_cast<size_t>(requests));
        Timer t;
        for (int i = 0; i < requests; ++i) {
            reqs[static_cast<size_t>(i)].id =
                seq[static_cast<size_t>(i)];
            engine.submit(reqs[static_cast<size_t>(i)]);
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
            default:
                std::fprintf(stderr,
                             "FAIL: leg %s request ended in state %d "
                             "(no faults were injected)\n",
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
        engine.stop();
        if (cache)
            faulty.detachCache(cache);

        // Hard checks, every leg. Terminal conservation:
        const StagedStats &st = res.stats;
        const uint64_t sum = st.done + st.degraded + st.failed +
                             st.expired + st.shed_admission +
                             st.rejected + st.cancelled;
        if (st.admitted != sum) {
            std::fprintf(stderr,
                         "FAIL: leg %s terminal conservation "
                         "(admitted %llu != %llu)\n",
                         leg.name,
                         static_cast<unsigned long long>(st.admitted),
                         static_cast<unsigned long long>(sum));
            std::exit(1);
        }
        // Honest metering: the engine's bytes_read must be exactly
        // what the store delivered — hits charge zero because no
        // fetch happened, not because the meter looked away.
        if (st.bytes_read != res.store_stats.bytes_read) {
            std::fprintf(
                stderr,
                "FAIL: leg %s engine bytes_read %llu != store "
                "bytes_read %llu\n",
                leg.name,
                static_cast<unsigned long long>(st.bytes_read),
                static_cast<unsigned long long>(
                    res.store_stats.bytes_read));
            std::exit(1);
        }
        // Cache-internal conservation + engine/cache hit agreement.
        if (cache) {
            const DecodeCacheStats cs = st.cache;
            if (cs.insertions !=
                cs.entries + cs.evictions + cs.invalidations) {
                std::fprintf(stderr,
                             "FAIL: leg %s cache conservation\n",
                             leg.name);
                std::exit(1);
            }
            if (cs.hits != st.cache_hits + st.cache_resumes) {
                std::fprintf(stderr,
                             "FAIL: leg %s cache hits %llu != engine "
                             "hits %llu + resumes %llu\n",
                             leg.name,
                             static_cast<unsigned long long>(cs.hits),
                             static_cast<unsigned long long>(
                                 st.cache_hits),
                             static_cast<unsigned long long>(
                                 st.cache_resumes));
                std::exit(1);
            }
        }
        return res;
    };

    std::vector<LegResult> results;
    DecodeCache *largest_cache = nullptr;
    std::vector<std::unique_ptr<DecodeCache>> caches;
    for (const Leg &leg : legs) {
        DecodeCache *cache = nullptr;
        if (leg.capacity_entries > 0) {
            DecodeCacheConfig dcfg;
            dcfg.capacity_bytes = leg.capacity_entries * per_entry;
            caches.push_back(std::make_unique<DecodeCache>(dcfg));
            cache = caches.back().get();
        }
        const LegResult r = run_leg(leg, cache);
        if (cache)
            largest_cache = cache; // legs run in ascending capacity
        std::printf(
            "%-7s cap %3zu entries  bytes_read %9llu  p99 %6.2f ms  "
            "goodput %7.1f req/s  hits %llu  resumes %llu  saved "
            "%llu  evictions %llu\n",
            leg.name, leg.capacity_entries,
            static_cast<unsigned long long>(r.stats.bytes_read),
            r.p99_ms, r.goodput_rps,
            static_cast<unsigned long long>(r.stats.cache_hits),
            static_cast<unsigned long long>(r.stats.cache_resumes),
            static_cast<unsigned long long>(
                r.stats.cache_bytes_saved),
            static_cast<unsigned long long>(
                r.stats.cache.evictions));
        results.push_back(r);
    }

    // Bit-identity hard check: every entry still resident in the
    // largest cache must resume to the exact pixels a cold decode
    // produces at the same depth.
    int verified = 0;
    for (int i = 0; i < kObjects; ++i) {
        const DecodeCache::EntryPtr e = largest_cache->lookup(
            static_cast<uint64_t>(i), 1, num_scans);
        if (!e)
            continue;
        EncodedImage d = encs[static_cast<size_t>(i)].headerCopy();
        d.bytes.assign(
            static_cast<size_t>(d.scan_offsets[e->depth]), 0);
        ProgressiveDecoder dec(d, e->snap);
        const Image warm = dec.image();
        const Image cold =
            decodeProgressive(encs[static_cast<size_t>(i)], e->depth);
        const bool same =
            warm.numel() == cold.numel() &&
            std::memcmp(warm.data(), cold.data(),
                        warm.numel() * sizeof(float)) == 0;
        const bool preview_same =
            e->preview.empty() ||
            (e->preview.numel() == cold.numel() &&
             std::memcmp(e->preview.data(), cold.data(),
                         cold.numel() * sizeof(float)) == 0);
        if (!same || !preview_same) {
            std::fprintf(stderr,
                         "FAIL: cached entry (id %d, depth %d) is "
                         "not bit-identical to a cold decode\n",
                         i, e->depth);
            return 1;
        }
        ++verified;
    }
    if (verified == 0) {
        std::fprintf(stderr,
                     "FAIL: largest cache held no entries to verify\n");
        return 1;
    }
    std::printf("bit-identity: %d cached entries match their cold "
                "decodes exactly\n",
                verified);

    const LegResult &off = results.front();
    const LegResult &big = results.back();
    const double bytes_gain =
        big.stats.bytes_read > 0
            ? static_cast<double>(off.stats.bytes_read) /
                  static_cast<double>(big.stats.bytes_read)
            : 0.0;
    const double p99_gain =
        big.p99_ms > 0 ? off.p99_ms / big.p99_ms : 0.0;
    std::printf("cache bytes-read gain (off / large): %.2fx   p99 "
                "gain: %.2fx\n",
                bytes_gain, p99_gain);

    FILE *f = std::fopen("BENCH_cache.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_cache.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"requests\": %d,\n  \"objects\": %d,\n"
                 "  \"zipf_alpha\": %.2f,\n"
                 "  \"entry_bytes\": %zu,\n  \"legs\": [\n",
                 requests, kObjects, kAlpha, per_entry);
    for (size_t i = 0; i < results.size(); ++i) {
        const Leg &leg = legs[i];
        const LegResult &r = results[i];
        const double n = static_cast<double>(requests);
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"capacity_entries\": %zu,\n"
            "     \"bytes_read\": %llu, \"p99_ms\": %.4f, "
            "\"goodput_rps\": %.4f, \"done_fraction\": %.4f, "
            "\"degraded_fraction\": %.4f,\n"
            "     \"cache_hits\": %llu, \"cache_resumes\": %llu, "
            "\"cache_misses\": %llu, \"cache_bytes_saved\": %llu, "
            "\"evictions\": %llu, \"entries\": %llu}%s\n",
            leg.name, leg.capacity_entries,
            static_cast<unsigned long long>(r.stats.bytes_read),
            r.p99_ms, r.goodput_rps, r.done / n, r.degraded / n,
            static_cast<unsigned long long>(r.stats.cache_hits),
            static_cast<unsigned long long>(r.stats.cache_resumes),
            static_cast<unsigned long long>(r.stats.cache_misses),
            static_cast<unsigned long long>(
                r.stats.cache_bytes_saved),
            static_cast<unsigned long long>(r.stats.cache.evictions),
            static_cast<unsigned long long>(r.stats.cache.entries),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"cache_bytes_gain\": %.4f,\n"
                 "  \"cache_p99_gain\": %.4f\n}\n",
                 bytes_gain, p99_gain);
    std::fclose(f);
    std::printf("\nwrote BENCH_cache.json\n");
    return 0;
}
