#include "tuning/tuner.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "nn/kernel_selector.hh"
#include "tuning/cost_model.hh"
#include "tuning/strategies.hh"
#include "nn/ops.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/rng.hh"
#include "util/timer.hh"

namespace tamres {

MeasureResult
measureConv(const ConvProblem &p, const ConvConfig &cfg, int reps)
{
    tamres_assert(convConfigValid(p, cfg),
                  "cannot measure invalid config %s",
                  cfg.toString().c_str());
    std::vector<float> in(static_cast<size_t>(p.n) * p.ic * p.ih * p.iw);
    std::vector<float> w(static_cast<size_t>(p.oc) * (p.ic / p.groups) *
                         p.kh * p.kw);
    std::vector<float> bias(p.oc);
    std::vector<float> out(static_cast<size_t>(p.n) * p.oc * p.oh() *
                           p.ow());
    Rng rng(0x5eedull);
    for (auto &v : in)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : w)
        v = static_cast<float>(rng.uniform(-0.5, 0.5));

    MeasureResult res;
    res.config = cfg;
    res.seconds = medianRunSeconds(
        [&] {
            convForward(p, in.data(), w.data(), bias.data(), out.data(),
                        cfg);
        },
        reps);
    return res;
}

// ---------------------------------------------------------------------
// ConfigCache
// ---------------------------------------------------------------------

ConfigCache::ConfigCache(std::string path) : path_(std::move(path))
{
    load();
}

namespace {

int
algoToInt(ConvAlgo a)
{
    return static_cast<int>(a);
}

ConvAlgo
algoFromInt(int v)
{
    switch (v) {
      case 1: return ConvAlgo::Direct;
      case 2: return ConvAlgo::Im2col;
      case 3: return ConvAlgo::Winograd;
      case 4: return ConvAlgo::Depthwise;
      default: return ConvAlgo::Reference;
    }
}

} // namespace

namespace {

/**
 * On-disk cache format tag. v2 added the threads column; v3 added the
 * simd column (the dispatch the config was measured under, see
 * dispatchDescriptor — a blocking tuned for AVX2 micro-kernels is not
 * evidence for the scalar fallback, so entries measured under another
 * dispatch are skipped at load). Unversioned (v1) files would
 * otherwise misparse silently, so anything without the tag is
 * discarded and rebuilt.
 */
const char *const kCacheVersion = "tamres-cache-v3";

/**
 * The active kernel dispatch as one token: the SIMD level, plus
 * "+avx512f" and "+vnni" for the Avx2 level's sub-feature switches
 * that are on (e.g. "avx2+avx512f+vnni"). The 512-bit GEMM tiles
 * change which blocking wins, so a config timed with them off is no
 * evidence for running with them on, and the reverse.
 */
std::string
dispatchDescriptor()
{
    const SimdLevel level = simdLevel();
    std::string out = simdLevelName(level);
    if (level == SimdLevel::Avx2) {
        if (simdAvx512())
            out += "+avx512f";
        if (simdVnni())
            out += "+vnni";
    }
    return out;
}

} // namespace

void
ConfigCache::load()
{
    FILE *f = std::fopen(path_.c_str(), "r");
    if (!f)
        return; // absent cache file is fine — will be created on store
    char header[32];
    if (std::fscanf(f, "%31s", header) != 1 ||
        std::strcmp(header, kCacheVersion) != 0) {
        warn("ConfigCache: %s has no '%s' header; discarding stale "
             "cache", path_.c_str(), kCacheVersion);
        std::fclose(f);
        // Truncate so future appends land in a well-formed file (an
        // ignored-but-kept file would collect unreadable entries).
        f = std::fopen(path_.c_str(), "w");
        if (f) {
            std::fprintf(f, "%s\n", kCacheVersion);
            std::fclose(f);
        }
        return;
    }
    char key[128];
    char simd[32];
    int algo, oc_tile, ow_tile, mc, kc, nc, mr, nr, wino_tb, threads;
    double gf;
    size_t other_level = 0;
    const std::string dispatch = dispatchDescriptor();
    while (std::fscanf(f, "%127s %31s %d %d %d %d %d %d %d %d %d %d %lf",
                       key, simd, &algo, &oc_tile, &ow_tile, &mc, &kc,
                       &nc, &mr, &nr, &wino_tb, &threads, &gf) == 13) {
        if (dispatch != simd) {
            ++other_level;
            continue;
        }
        Entry e;
        e.config.algo = algoFromInt(algo);
        e.config.oc_tile = oc_tile;
        e.config.ow_tile = ow_tile;
        e.config.mc = mc;
        e.config.kc = kc;
        e.config.nc = nc;
        e.config.mr = mr;
        e.config.nr = nr;
        e.config.wino_tile_block = wino_tb;
        e.config.threads = threads;
        e.gflops = gf;
        entries_[key] = e;
    }
    std::fclose(f);
    if (!entries_.empty() || other_level > 0) {
        inform("ConfigCache: loaded %zu tuned configs from %s "
               "(%zu skipped: measured under another simd dispatch)",
               entries_.size(), path_.c_str(), other_level);
    }
}

void
ConfigCache::appendToFile(const std::string &key, const Entry &e) const
{
    if (path_.empty())
        return;
    FILE *f = std::fopen(path_.c_str(), "a");
    if (!f) {
        warn("ConfigCache: cannot append to %s", path_.c_str());
        return;
    }
    std::fseek(f, 0, SEEK_END);
    if (std::ftell(f) == 0)
        std::fprintf(f, "%s\n", kCacheVersion);
    std::fprintf(f, "%s %s %d %d %d %d %d %d %d %d %d %d %.4f\n",
                 key.c_str(), dispatchDescriptor().c_str(),
                 algoToInt(e.config.algo), e.config.oc_tile,
                 e.config.ow_tile, e.config.mc, e.config.kc, e.config.nc,
                 e.config.mr, e.config.nr, e.config.wino_tile_block,
                 e.config.threads, e.gflops);
    std::fclose(f);
}

bool
ConfigCache::lookup(const ConvProblem &p, ConvConfig &cfg,
                    double *gflops) const
{
    auto it = entries_.find(p.key());
    if (it == entries_.end())
        return false;
    cfg = it->second.config;
    if (gflops)
        *gflops = it->second.gflops;
    return true;
}

void
ConfigCache::store(const ConvProblem &p, const ConvConfig &cfg,
                   double gflops)
{
    const std::string key = p.key();
    entries_[key] = Entry{cfg, gflops};
    appendToFile(key, Entry{cfg, gflops});
}

std::vector<ConvConfig>
ConfigCache::siblings(const ConvProblem &p) const
{
    std::vector<ConvConfig> out;
    for (const auto &[key, entry] : entries_) {
        ConvProblem q;
        if (std::sscanf(key.c_str(),
                        "%dx%dx%dx%d_oc%d_k%dx%d_s%d_p%d_g%d", &q.n,
                        &q.ic, &q.ih, &q.iw, &q.oc, &q.kh, &q.kw,
                        &q.stride, &q.pad, &q.groups) != 10)
            continue;
        const bool same_layer = q.n == p.n && q.ic == p.ic &&
                                q.oc == p.oc && q.kh == p.kh &&
                                q.kw == p.kw && q.stride == p.stride &&
                                q.pad == p.pad && q.groups == p.groups;
        const bool different_extent = q.ih != p.ih || q.iw != p.iw;
        if (same_layer && different_extent &&
            convConfigValid(p, entry.config))
            out.push_back(entry.config);
    }
    return out;
}

// ---------------------------------------------------------------------
// AutoTuner
// ---------------------------------------------------------------------

std::vector<ConvConfig>
AutoTuner::candidates(const ConvProblem &p, const TuneOptions &opts) const
{
    std::vector<ConvConfig> out;
    // Deterministic seeds first: the generic default and the library
    // config, so the tuner never regresses below either.
    out.push_back(KernelSelector::defaultConfig(p));
    out.push_back(KernelSelector::libraryConfig(p));
    // Transfer seeds: cached winners of the same layer at other
    // resolutions.
    if (opts.transfer && cache_) {
        for (const ConvConfig &c : cache_->siblings(p))
            out.push_back(c);
    }

    Rng rng(opts.seed ^ std::hash<std::string>{}(p.key()));
    std::set<std::string> seen;
    std::vector<ConvConfig> unique;
    for (const auto &c : out)
        if (seen.insert(c.toString()).second)
            unique.push_back(c);
    out = unique;

    int attempts = 0;
    while (static_cast<int>(out.size()) < opts.trials &&
           attempts < opts.trials * 10) {
        ++attempts;
        const ConvConfig c = randomConvConfig(p, rng);
        if (seen.insert(c.toString()).second)
            out.push_back(c);
    }
    return out;
}

MeasureResult
AutoTuner::tune(const ConvProblem &p, const TuneOptions &opts)
{
    if (cache_) {
        ConvConfig cached;
        double gf = 0.0;
        if (cache_->lookup(p, cached, &gf)) {
            MeasureResult res;
            res.config = cached;
            res.seconds = gf > 0
                              ? static_cast<double>(p.macs()) / gf / 1e9
                              : 0.0;
            return res;
        }
    }

    MeasureResult best;
    if (opts.strategy == SearchStrategy::Random) {
        best = tuneRandom(p, opts);
    } else {
        // Seed the local searches with the deterministic baselines
        // (plus transfer seeds when enabled).
        std::vector<ConvConfig> seeds = {
            KernelSelector::defaultConfig(p),
            KernelSelector::libraryConfig(p)};
        if (opts.transfer && cache_) {
            for (const ConvConfig &c : cache_->siblings(p))
                seeds.push_back(c);
        }
        StrategyBudget budget;
        budget.measurements = opts.trials;
        budget.time_budget_s = opts.time_budget_s;
        budget.seed = opts.seed;
        const MeasureFn measure = [&](const ConvConfig &c) {
            return measureConv(p, c, opts.reps).seconds;
        };
        const StrategyResult r =
            opts.strategy == SearchStrategy::Anneal
                ? annealSearch(p, seeds, measure, budget)
                : geneticSearch(p, seeds, measure, budget);
        best.config = r.best;
        best.seconds = r.best_seconds;
    }
    tamres_assert(best.seconds < 1e30, "no candidate measured");
    if (cache_)
        cache_->store(p, best.config, best.gflops(p));
    return best;
}

MeasureResult
AutoTuner::tuneRandom(const ConvProblem &p, const TuneOptions &opts)
{
    std::vector<ConvConfig> cands = candidates(p, opts);
    int limit = static_cast<int>(cands.size());
    if (opts.use_cost_model) {
        // Measure only the top-K by predicted cost; the deterministic
        // seeds stay in front so the tuner never regresses below the
        // library baseline.
        const std::vector<int> order = rankByPredictedCost(p, cands);
        std::vector<ConvConfig> picked = {cands[0], cands[1]};
        for (int idx : order) {
            if (static_cast<int>(picked.size()) >=
                opts.cost_model_top_k + 2)
                break;
            if (idx != 0 && idx != 1)
                picked.push_back(cands[idx]);
        }
        cands = std::move(picked);
        limit = static_cast<int>(cands.size());
    }

    MeasureResult best;
    best.seconds = 1e30;
    Timer budget;
    int measured = 0;
    for (int i = 0; i < limit; ++i) {
        const ConvConfig &c = cands[i];
        const MeasureResult r = measureConv(p, c, opts.reps);
        ++measured;
        if (opts.verbose) {
            inform("tune %s: %-40s %.3f ms (%.2f GFLOP/s)",
                   p.key().c_str(), c.toString().c_str(),
                   r.seconds * 1e3, r.gflops(p));
        }
        if (r.seconds < best.seconds)
            best = r;
        // Respect the time budget, but always measure the two seeds.
        if (measured >= 2 && budget.seconds() > opts.time_budget_s)
            break;
    }
    return best;
}

std::vector<ConvProblem>
AutoTuner::convProblems(Graph &graph, const Shape &shape)
{
    // Walk the graph once, collecting each Conv2d's problem at the
    // shapes induced by this input resolution.
    std::vector<ConvProblem> out;
    std::set<std::string> seen;

    // Shape propagation happens inside Graph; replay it via profile on
    // shapes only. Simplest correct approach: run shape inference via
    // outputShape per op while tracking shapes — Graph::flops already
    // does this internally, so reuse by temporarily visiting ops with
    // their input shapes through a dedicated traversal.
    graph.visitShapes(shape, [&](Op &op, const std::vector<Shape> &ins) {
        auto *conv = dynamic_cast<Conv2d *>(&op);
        if (!conv)
            return;
        const ConvProblem p = conv->problemFor(ins[0]);
        if (seen.insert(p.key()).second)
            out.push_back(p);
    });
    return out;
}

void
AutoTuner::tuneNetworkGrid(Graph &graph,
                           const std::vector<int> &resolutions,
                           const TuneOptions &opts)
{
    tamres_assert(cache_, "grid tuning needs a persistent cache for "
                          "transfer seeds");
    TuneOptions per_res = opts;
    per_res.transfer = true;
    for (const int r : resolutions)
        tuneNetwork(graph, {1, 3, r, r}, per_res);
}

void
AutoTuner::tuneNetwork(Graph &graph, const Shape &shape,
                       const TuneOptions &opts)
{
    for (const ConvProblem &p : convProblems(graph, shape)) {
        const MeasureResult best = tune(p, opts);
        KernelSelector::instance().registerTuned(p, best.config);
        if (opts.verbose) {
            inform("tuned %-36s -> %-40s %.2f GFLOP/s", p.key().c_str(),
                   best.config.toString().c_str(), best.gflops(p));
        }
    }
}

} // namespace tamres
