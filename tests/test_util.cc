/**
 * @file
 * Unit tests for the util module: Rng, Timer, the percentile rule
 * (sampleQuantile, QuantileWindow), TablePrinter, ThreadPool, env
 * helpers, CancelToken, Watchdog.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "util/cancel.hh"
#include "util/clock.hh"
#include "util/env.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"
#include "util/watchdog.hh"
#include "util/windowed.hh"

namespace tamres {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double acc = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        acc += rng.uniform();
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(3);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(static_cast<int64_t>(-2), 5);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 5);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 8u); // all values hit
}

TEST(Rng, NormalMoments)
{
    Rng rng(5);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sum_sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(9);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, LogisticSymmetric)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.logistic();
    EXPECT_NEAR(sum / n, 0.0, 0.05);
}

TEST(Timer, MeasuresElapsed)
{
    Timer t;
    volatile double x = 0.0;
    for (int i = 0; i < 2000000; ++i)
        x += i;
    EXPECT_GT(t.seconds(), 0.0);
    EXPECT_GE(t.millis(), t.seconds() * 1e3); // monotone between calls
}

TEST(Timer, MedianRunSeconds)
{
    int calls = 0;
    const double m = medianRunSeconds([&] { ++calls; }, 3);
    EXPECT_EQ(calls, 4); // 1 warmup + 3 timed
    EXPECT_GE(m, 0.0);
}

/** @p n distinct samples in a seeded shuffled order. */
std::vector<double>
shuffledSamples(int n, uint64_t seed)
{
    std::vector<double> v(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        v[static_cast<size_t>(i)] = 0.5 + 3.0 * i;
    Rng rng(seed);
    for (int i = n - 1; i > 0; --i)
        std::swap(v[static_cast<size_t>(i)],
                  v[static_cast<size_t>(rng.uniformInt(0, i))]);
    return v;
}

TEST(Quantile, EmptyIsZeroAndSingletonIsItsSample)
{
    std::vector<double> empty;
    EXPECT_EQ(sampleQuantile(empty, 0.5), 0.0);
    EXPECT_EQ(QuantileWindow(8).quantile(0.99), 0.0);
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
        std::vector<double> one{7.25};
        EXPECT_EQ(sampleQuantile(one, q), 7.25);
    }
}

TEST(Quantile, MedianIsElementNOverTwo)
{
    // round(0.5 * (n - 1)) == n / 2 for every n: the old n / 2
    // medians are unchanged.
    for (int n = 1; n <= 8; ++n) {
        std::vector<double> v = shuffledSamples(n, 100 + n);
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sampleQuantile(v, 0.5), sorted[sorted.size() / 2])
            << "n = " << n;
    }
}

TEST(Quantile, P99MatchesTheChaosBenchRule)
{
    // The chaos benches' former rule, at their CI request counts.
    for (int n : {32, 48, 64, 192}) {
        std::vector<double> v = shuffledSamples(n, 200 + n);
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        const size_t old_idx =
            std::min(sorted.size() - 1,
                     static_cast<size_t>(0.99 * (sorted.size() - 1) +
                                         0.5));
        EXPECT_EQ(sampleQuantile(v, 0.99), sorted[old_idx])
            << "n = " << n;
    }
}

TEST(Quantile, EndpointsAreMinAndMax)
{
    const std::vector<double> base = shuffledSamples(37, 300);
    const double lo = *std::min_element(base.begin(), base.end());
    const double hi = *std::max_element(base.begin(), base.end());
    std::vector<double> v = base;
    EXPECT_EQ(sampleQuantile(v, 0.0), lo);
    v = base;
    EXPECT_EQ(sampleQuantile(v, 1.0), hi);
    // Out-of-range q clamps to the ends.
    v = base;
    EXPECT_EQ(sampleQuantile(v, -0.5), lo);
    v = base;
    EXPECT_EQ(sampleQuantile(v, 1.5), hi);
}

TEST(Quantile, WindowAnswersFromTheLastCapacitySamples)
{
    QuantileWindow w(4);
    for (double x : {100.0, 200.0, 1.0, 2.0, 3.0, 4.0})
        w.record(x);
    EXPECT_EQ(w.count(), 4);
    EXPECT_EQ(w.quantile(0.0), 1.0);
    EXPECT_EQ(w.quantile(1.0), 4.0);
    EXPECT_EQ(w.quantile(0.5), 3.0);
    w.reset();
    EXPECT_EQ(w.count(), 0);
    EXPECT_EQ(w.quantile(0.5), 0.0);

    // The hedge delay's rank: 0.95 of a full 64-sample window is the
    // element of rank round(0.95 * 63) = 60.
    QuantileWindow hedge(64);
    for (int i = 63; i >= 0; --i)
        hedge.record(i);
    EXPECT_EQ(hedge.quantile(0.95), 60.0);
}

TEST(TablePrinter, RendersHeaderAndRows)
{
    TablePrinter t("demo");
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    const std::string s = t.render();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("bb"), std::string::npos);
}

TEST(TablePrinter, CsvOutput)
{
    TablePrinter t("demo");
    t.setHeader({"x", "y"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.renderCsv(), "x,y\n1,2\n");
}

TEST(TablePrinter, NumFormatting)
{
    EXPECT_EQ(TablePrinter::num(1.2345, 2), "1.23");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(ThreadPool, SerialFallback)
{
    ThreadPool pool(1);
    std::atomic<int64_t> sum{0};
    pool.parallelFor(100, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            sum += i;
    });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            ++hits[i];
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SmallRangeFewerThanThreads)
{
    ThreadPool pool(8);
    std::atomic<int> count{0};
    pool.parallelFor(3, [&](int64_t b, int64_t e) {
        count += static_cast<int>(e - b);
    });
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, EmptyRangeIsNoop)
{
    ThreadPool pool(4);
    bool called = false;
    pool.parallelFor(0, [&](int64_t, int64_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(3);
    for (int round = 0; round < 10; ++round) {
        std::atomic<int64_t> sum{0};
        pool.parallelFor(50, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i)
                sum += 1;
        });
        EXPECT_EQ(sum.load(), 50);
    }
}

TEST(Env, IntDefaultAndParse)
{
    unsetenv("TAMRES_TEST_INT");
    EXPECT_EQ(envInt("TAMRES_TEST_INT", 5), 5);
    setenv("TAMRES_TEST_INT", "42", 1);
    EXPECT_EQ(envInt("TAMRES_TEST_INT", 5), 42);
    unsetenv("TAMRES_TEST_INT");
}

TEST(Env, DoubleAndString)
{
    setenv("TAMRES_TEST_D", "2.5", 1);
    EXPECT_DOUBLE_EQ(envDouble("TAMRES_TEST_D", 1.0), 2.5);
    unsetenv("TAMRES_TEST_D");
    EXPECT_DOUBLE_EQ(envDouble("TAMRES_TEST_D", 1.0), 1.0);
    EXPECT_EQ(envString("TAMRES_TEST_S", "dflt"), "dflt");
}

TEST(CancelToken, DefaultIsUnfired)
{
    CancelToken tok;
    EXPECT_FALSE(tok.fired());
    EXPECT_FALSE(tok.cancelled());
    EXPECT_EQ(tok.reason(), CancelReason::None);
    EXPECT_NO_THROW(tok.throwIfFired());
}

TEST(CancelToken, FirstReasonWins)
{
    CancelToken tok;
    tok.cancel(CancelReason::Client);
    tok.cancel(CancelReason::Watchdog);
    EXPECT_TRUE(tok.cancelled());
    EXPECT_EQ(tok.reason(), CancelReason::Client);
}

TEST(CancelToken, DeadlineFiresLazilyOnManualClock)
{
    ManualClock clk;
    CancelToken tok;
    tok.armDeadline(clk, clk.now() + 1.0);
    EXPECT_FALSE(tok.fired());
    clk.advance(0.5);
    EXPECT_FALSE(tok.fired());
    clk.advance(0.6);
    EXPECT_TRUE(tok.fired());
    EXPECT_EQ(tok.reason(), CancelReason::Deadline);
    // Lazy expiry never set the explicit flag.
    EXPECT_FALSE(tok.cancelled());
}

TEST(CancelToken, ExplicitReasonWinsOverExpiredDeadline)
{
    ManualClock clk;
    CancelToken tok;
    tok.armDeadline(clk, clk.now() + 1.0);
    tok.cancel(CancelReason::Client);
    clk.advance(2.0); // deadline also past now
    EXPECT_EQ(tok.reason(), CancelReason::Client);
}

TEST(CancelToken, ThrowMappingByReason)
{
    // Client/Deadline end the REQUEST: ErrorKind::Cancelled, never
    // retried. Watchdog/Abandoned end the OPERATION: a fail-fast
    // Transient that drops into the retry/degrade ladder and counts
    // as a breaker failure.
    for (CancelReason r :
         {CancelReason::Client, CancelReason::Deadline}) {
        CancelToken tok;
        tok.cancel(r);
        try {
            tok.throwIfFired();
            FAIL() << "token fired but did not throw";
        } catch (const Error &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Cancelled);
            EXPECT_FALSE(e.failFast());
        }
    }
    for (CancelReason r :
         {CancelReason::Watchdog, CancelReason::Abandoned}) {
        CancelToken tok;
        tok.cancel(r);
        try {
            tok.throwIfFired();
            FAIL() << "token fired but did not throw";
        } catch (const Error &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Transient);
            EXPECT_TRUE(e.failFast());
        }
    }
}

TEST(CancelToken, ResetDisarmsForResubmission)
{
    ManualClock clk;
    CancelToken tok;
    tok.armDeadline(clk, clk.now() + 0.1);
    tok.cancel(CancelReason::Client);
    clk.advance(1.0);
    tok.reset();
    EXPECT_FALSE(tok.fired());
    EXPECT_EQ(tok.reason(), CancelReason::None)
        << "reset must drop both the flag and the armed deadline";
}

TEST(CancelToken, ConcurrentCancelKeepsExactlyOneReason)
{
    CancelToken tok;
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back([&tok, i] {
            tok.cancel(i % 2 == 0 ? CancelReason::Client
                                  : CancelReason::Watchdog);
        });
    for (auto &t : threads)
        t.join();
    const CancelReason r = tok.reason();
    EXPECT_TRUE(r == CancelReason::Client ||
                r == CancelReason::Watchdog);
    EXPECT_EQ(tok.reason(), r) << "reason must be stable once set";
}

TEST(Watchdog, FlagsOnlySilentBusyWorkers)
{
    ManualClock clk;
    Watchdog::Config cfg;
    cfg.liveness_budget_s = 1.0;
    cfg.clock = &clk;
    cfg.supervise = false; // tests drive poll() by hand
    std::vector<WatchdogReport> reports;
    Watchdog wd(cfg, [&](const WatchdogReport &r) {
        reports.push_back(r);
    });

    const int a = wd.registerWorker();
    const int b = wd.registerWorker();
    wd.beat(a, "fetch", 41);
    wd.beat(b, "decode", 42);
    wd.idle(b); // b finished: an empty queue is not a liveness failure

    clk.advance(0.5);
    EXPECT_EQ(wd.poll(), 0) << "within budget: no flag";

    clk.advance(0.6); // a silent 1.1s now, past the 1.0s budget
    EXPECT_EQ(wd.poll(), 1);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].worker, a);
    EXPECT_STREQ(reports[0].phase, "fetch");
    EXPECT_EQ(reports[0].request_id, 41u);
    EXPECT_GE(reports[0].silent_s, 1.0);

    // Once per silent episode: the same silence never re-flags.
    clk.advance(5.0);
    EXPECT_EQ(wd.poll(), 0);
    EXPECT_EQ(wd.flags(), 1u);

    // A beat re-arms the flag; fresh silence flags again.
    wd.beat(a, "fetch", 43);
    clk.advance(1.5);
    EXPECT_EQ(wd.poll(), 1);
    EXPECT_EQ(wd.flags(), 2u);
    EXPECT_EQ(reports[1].request_id, 43u);
}

TEST(Watchdog, IdleAndFreshlyBeatenWorkersNeverFlag)
{
    ManualClock clk;
    Watchdog::Config cfg;
    cfg.liveness_budget_s = 0.1;
    cfg.clock = &clk;
    cfg.supervise = false;
    Watchdog wd(cfg, [](const WatchdogReport &) {
        FAIL() << "no worker should ever be flagged here";
    });
    const int w = wd.registerWorker();
    for (int i = 0; i < 20; ++i) {
        wd.beat(w, "loop", 1);
        clk.advance(0.05); // always beats within half the budget
        EXPECT_EQ(wd.poll(), 0);
    }
    wd.idle(w);
    clk.advance(100.0);
    EXPECT_EQ(wd.poll(), 0) << "idle workers are never flagged";
    EXPECT_EQ(wd.flags(), 0u);
}

TEST(Watchdog, CallbackMayReenterRegistryWithoutDeadlock)
{
    ManualClock clk;
    Watchdog::Config cfg;
    cfg.liveness_budget_s = 0.1;
    cfg.clock = &clk;
    cfg.supervise = false;
    Watchdog *self = nullptr;
    int reentered = 0;
    Watchdog wd(cfg, [&](const WatchdogReport &r) {
        // The callback contract: no watchdog lock is held, so it may
        // call back into beat()/idle() (the engine's flag handler
        // takes its own locks and cancels request tokens).
        self->beat(r.worker, "recovered", 7);
        ++reentered;
    });
    self = &wd;
    const int w = wd.registerWorker();
    wd.beat(w, "stuck", 6);
    clk.advance(1.0);
    EXPECT_EQ(wd.poll(), 1);
    EXPECT_EQ(reentered, 1);
    // The re-entrant beat re-armed the worker at the advanced time.
    clk.advance(0.05);
    EXPECT_EQ(wd.poll(), 0);
}

TEST(Watchdog, SupervisorThreadFlagsWithoutManualPolls)
{
    // Wall-clock smoke test for the supervised mode: the background
    // thread must flag a silent busy worker on its own. Generous
    // bounds — cadence is wall-clock by design (see watchdog.hh).
    Watchdog::Config cfg;
    cfg.liveness_budget_s = 0.02;
    cfg.poll_interval_s = 0.005;
    std::atomic<int> flagged{0};
    Watchdog wd(cfg, [&](const WatchdogReport &) { ++flagged; });
    const int w = wd.registerWorker();
    wd.beat(w, "wedged", 9);
    for (int i = 0; i < 400 && flagged.load() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(flagged.load(), 1)
        << "supervisor thread never flagged a 2s-silent worker";
    wd.stop();
    EXPECT_GE(wd.flags(), 1u);
}

} // namespace
} // namespace tamres
