/**
 * @file
 * Tests for the tuning search strategies (mutation/crossover
 * primitives, annealing, genetic), the analytic cost model, and
 * transfer-tuning seed extraction from the config cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "tuning/cost_model.hh"
#include "tuning/strategies.hh"
#include "nn/builders.hh"
#include "tuning/tuner.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace tamres {
namespace {

const ConvProblem kDense{1, 16, 28, 28, 16, 3, 3, 1, 1, 1};
const ConvProblem kDepthwise{1, 16, 28, 28, 16, 3, 3, 1, 1, 16};
const ConvProblem kPointwise{1, 32, 14, 14, 64, 1, 1, 1, 0, 1};

TEST(RandomConfig, AlwaysValidAndCoversFamilies)
{
    Rng rng(1);
    std::map<ConvAlgo, int> seen;
    for (int i = 0; i < 200; ++i) {
        const ConvConfig c = randomConvConfig(kDense, rng);
        ASSERT_TRUE(convConfigValid(kDense, c)) << c.toString();
        ++seen[c.algo];
    }
    // Dense 3x3/stride-1 is eligible for direct, im2col and winograd;
    // a uniform draw must hit all three.
    EXPECT_GT(seen[ConvAlgo::Direct], 0);
    EXPECT_GT(seen[ConvAlgo::Im2col], 0);
    EXPECT_GT(seen[ConvAlgo::Winograd], 0);
    EXPECT_EQ(seen[ConvAlgo::Depthwise], 0);
}

TEST(RandomConfig, DepthwiseProblemDrawsDepthwiseFamily)
{
    Rng rng(2);
    std::map<ConvAlgo, int> seen;
    for (int i = 0; i < 100; ++i)
        ++seen[randomConvConfig(kDepthwise, rng).algo];
    EXPECT_GT(seen[ConvAlgo::Depthwise], 0);
    EXPECT_GT(seen[ConvAlgo::Direct], 0);
    EXPECT_EQ(seen[ConvAlgo::Im2col], 0);
    EXPECT_EQ(seen[ConvAlgo::Winograd], 0);
}

TEST(RandomConfig, PointwiseProblemNeverDrawsWinograd)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_NE(randomConvConfig(kPointwise, rng).algo,
                  ConvAlgo::Winograd);
}

TEST(MutateConfig, StaysValidAndUsuallyLocal)
{
    Rng rng(4);
    ConvConfig cfg = randomConvConfig(kDense, rng);
    int family_jumps = 0;
    for (int i = 0; i < 300; ++i) {
        const ConvConfig next = mutateConvConfig(kDense, cfg, rng);
        ASSERT_TRUE(convConfigValid(kDense, next)) << next.toString();
        if (next.algo != cfg.algo)
            ++family_jumps;
        cfg = next;
    }
    // Family jumps are the exploration escape hatch: present but rare.
    EXPECT_GT(family_jumps, 0);
    EXPECT_LT(family_jumps, 150);
}

TEST(MutateConfig, ProducesDifferentConfigsOverTime)
{
    Rng rng(5);
    const ConvConfig base = randomConvConfig(kDense, rng);
    int changed = 0;
    for (int i = 0; i < 50; ++i) {
        if (!(mutateConvConfig(kDense, base, rng) == base))
            ++changed;
    }
    EXPECT_GT(changed, 25);
}

TEST(CrossoverConfig, ChildIsValidAndInheritsKnobs)
{
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        const ConvConfig a = randomConvConfig(kDense, rng);
        const ConvConfig b = randomConvConfig(kDense, rng);
        const ConvConfig child = crossoverConvConfig(kDense, a, b, rng);
        ASSERT_TRUE(convConfigValid(kDense, child));
        EXPECT_TRUE(child.algo == a.algo || child.algo == b.algo);
    }
}

/**
 * Synthetic fitness landscape so strategy tests need no wall-clock
 * measurement: a deterministic "runtime" per config with a unique
 * basin (im2col, mc=64, kc=128, nc=512, mr=4, nr=8 is the optimum).
 */
double
syntheticFitness(const ConvConfig &c)
{
    double s = 1.0;
    if (c.algo != ConvAlgo::Im2col)
        s += 0.5;
    s += 0.01 * std::abs(c.mc - 64);
    s += 0.004 * std::abs(c.kc - 128);
    s += 0.0005 * std::abs(c.nc - 512);
    s += 0.05 * std::abs(c.mr - 4);
    s += 0.05 * std::abs(c.nr - 8);
    return s;
}

TEST(AnnealSearch, ImprovesOnSeedsUnderSyntheticLandscape)
{
    std::vector<ConvConfig> seeds;
    ConvConfig bad;
    bad.algo = ConvAlgo::Direct;
    bad.oc_tile = 1;
    bad.ow_tile = 4;
    seeds.push_back(bad);

    StrategyBudget budget;
    budget.measurements = 120;
    budget.seed = 17;
    int calls = 0;
    const StrategyResult r = annealSearch(
        kDense, seeds,
        [&](const ConvConfig &c) {
            ++calls;
            return syntheticFitness(c);
        },
        budget);
    EXPECT_EQ(calls, r.measured);
    EXPECT_LE(r.measured, budget.measurements);
    EXPECT_LT(r.best_seconds, syntheticFitness(bad));
    // The basin should be found: im2col family at least.
    EXPECT_EQ(r.best.algo, ConvAlgo::Im2col);
}

TEST(GeneticSearch, ImprovesOnSeedsUnderSyntheticLandscape)
{
    std::vector<ConvConfig> seeds;
    ConvConfig bad;
    bad.algo = ConvAlgo::Direct;
    bad.oc_tile = 1;
    bad.ow_tile = 4;
    seeds.push_back(bad);

    StrategyBudget budget;
    budget.measurements = 120;
    budget.seed = 23;
    const StrategyResult r = geneticSearch(
        kDense, seeds,
        [](const ConvConfig &c) { return syntheticFitness(c); },
        budget);
    EXPECT_LE(r.measured, budget.measurements);
    EXPECT_LT(r.best_seconds, syntheticFitness(bad));
    EXPECT_EQ(r.best.algo, ConvAlgo::Im2col);
}

// Local helper giving the budget test a deterministic seed config.
ConvConfig
KernelSelector_defaultSeed()
{
    ConvConfig c;
    c.algo = ConvAlgo::Im2col;
    return c;
}

TEST(StrategyBudgets, MeasurementCountRespected)
{
    for (int budget_n : {1, 3, 10}) {
        StrategyBudget budget;
        budget.measurements = budget_n;
        int calls = 0;
        annealSearch(
            kDense, {KernelSelector_defaultSeed()},
            [&](const ConvConfig &) {
                ++calls;
                return 1.0;
            },
            budget);
        EXPECT_LE(calls, budget_n);
    }
}

TEST(TuneNetworkGrid, TunesEveryResolutionWithTransferSeeds)
{
    const std::string path = "/tmp/tamres_test_grid_cache.txt";
    std::remove(path.c_str());
    {
        ConfigCache cache(path);
        AutoTuner tuner(&cache);
        auto g = buildResNet18(4, 3);
        TuneOptions opts;
        opts.trials = 3;
        opts.reps = 1;
        opts.time_budget_s = 60.0;
        // Two tiny resolutions keep the measurement cost trivial.
        tuner.tuneNetworkGrid(*g, {32, 48}, opts);
        // Every conv problem at both resolutions must now be cached.
        for (const int r : {32, 48}) {
            for (const ConvProblem &p : AutoTuner::convProblems(
                     *g, {1, 3, r, r})) {
                ConvConfig cfg;
                EXPECT_TRUE(cache.lookup(p, cfg)) << p.key();
            }
        }
    }
    std::remove(path.c_str());
}

TEST(TuneNetworkGridDeath, RequiresCache)
{
    AutoTuner tuner; // no cache
    auto g = buildResNet18(4, 3);
    TuneOptions opts;
    EXPECT_DEATH(tuner.tuneNetworkGrid(*g, {32}, opts), "cache");
}

// --- Cost model ---

TEST(CostModel, PredictionsPositiveAndFinite)
{
    Rng rng(8);
    for (int i = 0; i < 100; ++i) {
        const ConvConfig c = randomConvConfig(kDense, rng);
        const double s = predictConvSeconds(kDense, c);
        EXPECT_GT(s, 0.0) << c.toString();
        EXPECT_LT(s, 1e3) << c.toString();
    }
}

TEST(CostModel, ReferenceAlgoPredictedSlowest)
{
    ConvConfig ref;
    ref.algo = ConvAlgo::Reference;
    ConvConfig im2col;
    im2col.algo = ConvAlgo::Im2col;
    EXPECT_GT(predictConvSeconds(kDense, ref),
              predictConvSeconds(kDense, im2col));
}

TEST(CostModel, BiggerProblemPredictedSlower)
{
    ConvConfig c;
    c.algo = ConvAlgo::Im2col;
    ConvProblem small = kDense;
    ConvProblem big = kDense;
    big.ih = big.iw = 112;
    EXPECT_GT(predictConvSeconds(big, c), predictConvSeconds(small, c));
}

TEST(CostModel, PoorMicroKernelPredictedSlower)
{
    ConvProblem p{1, 64, 56, 56, 64, 3, 3, 1, 1, 1};
    ConvConfig good;
    good.algo = ConvAlgo::Im2col;
    good.mr = 4;
    good.nr = 16;
    ConvConfig poor = good;
    poor.mr = 2;
    poor.nr = 4;
    EXPECT_GT(predictConvSeconds(p, poor), predictConvSeconds(p, good));
}

TEST(CostModel, OversizedCacheBlocksPenalized)
{
    ConvProblem p{1, 64, 56, 56, 64, 3, 3, 1, 1, 1};
    ConvConfig fits;
    fits.algo = ConvAlgo::Im2col;
    fits.mc = 64;
    fits.kc = 128;
    ConvConfig spills = fits;
    spills.mc = 128;
    spills.kc = 512; // A block = 256 KiB > typical L2 share
    MachineModel mm;
    mm.l2_bytes = 128 * 1024;
    EXPECT_GT(predictConvSeconds(p, spills, mm),
              predictConvSeconds(p, fits, mm));
}

TEST(CostModel, ConvCostsWhatItsGemmCosts)
{
    // B panels are packed straight from the input, so a 3x3 conv
    // predicts the same seconds as the pointwise conv that poses the
    // same (M, N, K) GEMM: no im2col matrix is written or read back.
    const ConvProblem spatial{1, 16, 28, 28, 32, 3, 3, 1, 1, 1};
    const ConvProblem pointwise{1, 16 * 9, 28, 28, 32, 1, 1, 1, 0, 1};
    ConvConfig cfg;
    cfg.algo = ConvAlgo::Im2col;
    EXPECT_EQ(predictConvSeconds(spatial, cfg),
              predictConvSeconds(pointwise, cfg));
}

TEST(CostModel, RankOrdersInvalidLast)
{
    std::vector<ConvConfig> configs(3);
    configs[0].algo = ConvAlgo::Im2col;
    configs[1].algo = ConvAlgo::Winograd; // invalid for pointwise
    configs[2].algo = ConvAlgo::Direct;
    const std::vector<int> order =
        rankByPredictedCost(kPointwise, configs);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order.back(), 1);
}

TEST(CostModel, RankingCorrelatesWithMeasurementOnSmallShape)
{
    // Structural sanity: the model's top pick from a diverse set must
    // measure within a small factor of the measured best. (Loose: the
    // model is a pre-ranker, not an oracle.)
    const ConvProblem p{1, 32, 28, 28, 32, 3, 3, 1, 1, 1};
    Rng rng(9);
    std::vector<ConvConfig> configs;
    for (int i = 0; i < 10; ++i)
        configs.push_back(randomConvConfig(p, rng));
    const std::vector<int> order = rankByPredictedCost(p, configs);

    // Time the configs round-robin and keep each one's fastest run:
    // a load spike then lands on every config alike instead of
    // deciding the comparison for the one it happened to hit.
    constexpr int kRounds = 5;
    std::vector<double> fastest(configs.size(), 1e30);
    for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < configs.size(); ++i)
            fastest[i] = std::min(fastest[i],
                                  measureConv(p, configs[i], 1).seconds);
    }
    const double best_measured =
        *std::min_element(fastest.begin(), fastest.end());
    EXPECT_LT(fastest[order[0]], 6.0 * best_measured);
}

// --- Transfer seeds ---

TEST(TransferSeeds, SiblingsMatchLayerAcrossResolutions)
{
    const std::string path = "/tmp/tamres_test_cache_siblings.txt";
    std::remove(path.c_str());
    ConfigCache cache(path);

    const ConvProblem at224{1, 64, 56, 56, 64, 3, 3, 1, 1, 1};
    const ConvProblem at280{1, 64, 70, 70, 64, 3, 3, 1, 1, 1};
    const ConvProblem other_layer{1, 128, 56, 56, 128, 3, 3, 1, 1, 1};

    ConvConfig cfg;
    cfg.algo = ConvAlgo::Im2col;
    cfg.nc = 1024;
    cache.store(at224, cfg, 5.0);
    cache.store(other_layer, cfg, 5.0);

    const auto seeds = cache.siblings(at280);
    ASSERT_EQ(seeds.size(), 1u);
    EXPECT_EQ(seeds[0].nc, 1024);

    // The problem itself is not its own sibling.
    EXPECT_TRUE(cache.siblings(at224).empty());
    std::remove(path.c_str());
}

TEST(TransferSeeds, PersistAcrossReload)
{
    const std::string path = "/tmp/tamres_test_cache_reload.txt";
    std::remove(path.c_str());
    {
        ConfigCache cache(path);
        ConvConfig cfg;
        cfg.algo = ConvAlgo::Winograd;
        cfg.wino_tile_block = 512;
        cache.store(ConvProblem{1, 64, 56, 56, 64, 3, 3, 1, 1, 1}, cfg,
                    7.5);
    }
    ConfigCache reloaded(path);
    const ConvProblem sibling{1, 64, 84, 84, 64, 3, 3, 1, 1, 1};
    const auto seeds = reloaded.siblings(sibling);
    ASSERT_EQ(seeds.size(), 1u);
    EXPECT_EQ(seeds[0].algo, ConvAlgo::Winograd);
    EXPECT_EQ(seeds[0].wino_tile_block, 512);
    std::remove(path.c_str());
}

TEST(CacheFormat, WinogradRoundTripsThroughFile)
{
    const std::string path = "/tmp/tamres_test_cache_wino.txt";
    std::remove(path.c_str());
    const ConvProblem p{1, 16, 28, 28, 16, 3, 3, 1, 1, 1};
    ConvConfig cfg;
    cfg.algo = ConvAlgo::Winograd;
    cfg.wino_tile_block = 128;
    cfg.mr = 8;
    cfg.nr = 16;
    {
        ConfigCache cache(path);
        cache.store(p, cfg, 3.25);
    }
    ConfigCache reloaded(path);
    ConvConfig back;
    double gf = 0.0;
    ASSERT_TRUE(reloaded.lookup(p, back, &gf));
    EXPECT_TRUE(back == cfg);
    EXPECT_NEAR(gf, 3.25, 1e-6);
    std::remove(path.c_str());
}


TEST(CacheFormat, EntriesLoadOnlyUnderTheDispatchTheyWereTimedUnder)
{
    // The 512-bit GEMM tiles change which blocking wins: an entry timed
    // with them off must not load with them on, and the reverse.
    if (!simdAvx512Detected())
        GTEST_SKIP() << "avx512f not detected on this host";
    SimdLevelGuard level(SimdLevel::Avx2);
    const std::string path = "/tmp/tamres_test_cache_dispatch.txt";
    std::remove(path.c_str());
    const ConvProblem narrow{1, 16, 28, 28, 16, 3, 3, 1, 1, 1};
    const ConvProblem wide{1, 32, 14, 14, 32, 3, 3, 1, 1, 1};
    ConvConfig cfg;
    cfg.nr = 16;
    {
        SimdAvx512Guard off(false);
        ConfigCache(path).store(narrow, cfg, 2.0);
    }
    {
        SimdAvx512Guard on(true);
        ConfigCache(path).store(wide, cfg, 4.0);
    }
    ConvConfig back;
    {
        SimdAvx512Guard on(true);
        ConfigCache reloaded(path);
        EXPECT_FALSE(reloaded.lookup(narrow, back));
        EXPECT_TRUE(reloaded.lookup(wide, back));
    }
    {
        SimdAvx512Guard off(false);
        ConfigCache reloaded(path);
        EXPECT_TRUE(reloaded.lookup(narrow, back));
        EXPECT_FALSE(reloaded.lookup(wide, back));
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace tamres
