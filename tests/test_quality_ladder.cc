/**
 * @file
 * Tests for the quality-tier ladder and its controller, without an
 * engine: the ladder factories are plain data, and every controller
 * transition replays on a ManualClock.
 */

#include <gtest/gtest.h>

#include "core/quality_ladder.hh"
#include "util/clock.hh"

namespace tamres {
namespace {

/** Three rungs told apart by their resolution caps. */
QualityLadder
threeRungs()
{
    QualityTier t1;
    t1.resolution_cap = 160;
    t1.engage_depth = 4;
    QualityTier t2;
    t2.resolution_cap = 96;
    t2.engage_depth = 8;
    return {QualityTier{}, t1, t2};
}

QualityWindowConfig
fastWindow()
{
    QualityWindowConfig w;
    w.window_s = 1.0;
    w.min_samples = 4;
    w.high_pressure = 0.5;
    w.low_pressure = 0.25;
    w.min_dwell_s = 0.5;
    return w;
}

void
recordN(QualityController &c, int n, bool done)
{
    for (int i = 0; i < n; ++i)
        c.record(done, 0.0, 0.0);
}

TEST(QualityLadder, PrecisionFirstShedsPrecisionBeforeResolution)
{
    const QualityLadder ladder =
        precisionFirstLadder(/*int8_depth=*/4, /*shed_depth=*/8,
                             /*shed_resolution=*/112);
    const QualityTier &calm = ladder[depthTier(ladder, 2)];
    EXPECT_FALSE(calm.int8);
    EXPECT_EQ(calm.resolution_cap, 0);
    const QualityTier &busy = ladder[depthTier(ladder, 6)];
    EXPECT_TRUE(busy.int8); // precision sheds first
    EXPECT_EQ(busy.resolution_cap, 0);
    const QualityTier &slammed = ladder[depthTier(ladder, 12)];
    EXPECT_TRUE(slammed.int8); // then resolution
    EXPECT_EQ(slammed.resolution_cap, 112);
}

TEST(QualityLadder, ResolutionShedEngagesStrictlyAboveDepth)
{
    const QualityLadder ladder = resolutionShedLadder(2, 112);
    EXPECT_EQ(depthTier(ladder, 2), 0);
    EXPECT_EQ(depthTier(ladder, 3), 1);
    EXPECT_EQ(ladder[1].resolution_cap, 112);
    EXPECT_EQ(depthTier(QualityLadder{}, 100), 0);
}

TEST(QualityController, StepsUpOnPressureAfterDwellUpToTheTop)
{
    ManualClock clk;
    QualityController c(threeRungs(), fastWindow(), clk);
    EXPECT_EQ(c.select(0).resolution_cap, 0);

    // Evidence before the first dwell has elapsed does not shift.
    recordN(c, 4, false);
    EXPECT_EQ(c.stats().window_tier, 0);

    clk.advance(0.5);
    recordN(c, 4, false);
    EXPECT_EQ(c.stats().window_tier, 1);
    EXPECT_EQ(c.select(0).resolution_cap, 160);

    // A served request that ate its deadline headroom is pressure.
    clk.advance(0.5);
    for (int i = 0; i < 4; ++i)
        c.record(true, 0.9, 1.0);
    EXPECT_EQ(c.stats().window_tier, 2);

    // The top rung caps the climb.
    clk.advance(0.5);
    recordN(c, 8, false);
    EXPECT_EQ(c.stats().window_tier, 2);
    EXPECT_EQ(c.stats().drops, 2u);
    EXPECT_EQ(c.stats().recoveries, 0u);
}

TEST(QualityController, StepsDownOnHealthyEvidence)
{
    ManualClock clk;
    QualityController c(threeRungs(), fastWindow(), clk);
    clk.advance(0.5);
    recordN(c, 4, false);
    ASSERT_EQ(c.stats().window_tier, 1);

    // Healthy outcomes inside the dwell do not shift yet.
    recordN(c, 4, true);
    EXPECT_EQ(c.stats().window_tier, 1);
    clk.advance(0.5);
    recordN(c, 1, true);
    EXPECT_EQ(c.stats().window_tier, 0);
    EXPECT_EQ(c.stats().recoveries, 1u);
}

TEST(QualityController, AsymmetricRecoveryNeedsMoreEvidenceAndDwell)
{
    ManualClock clk;
    QualityWindowConfig w = fastWindow();
    w.recovery_samples = 8;
    w.recovery_dwell_s = 2.0;
    QualityController c(threeRungs(), w, clk);
    clk.advance(0.5);
    recordN(c, 4, false);
    ASSERT_EQ(c.stats().window_tier, 1);

    // Past the up-dwell but short of the recovery dwell: no step.
    clk.advance(1.0);
    recordN(c, 8, true);
    EXPECT_EQ(c.stats().window_tier, 1);

    // Past the recovery dwell, evidence must reach recovery_samples.
    clk.advance(1.5);
    recordN(c, 7, true);
    EXPECT_EQ(c.stats().window_tier, 1);
    recordN(c, 1, true);
    EXPECT_EQ(c.stats().window_tier, 0);
}

TEST(QualityController, IdleRecoveryLeavesANonAdmittingTier)
{
    ManualClock clk;
    QualityTier reject;
    reject.admit = false;
    QualityController c({QualityTier{}, reject}, fastWindow(), clk);
    clk.advance(0.5);
    recordN(c, 4, false);
    ASSERT_FALSE(c.select(0).admit);

    // Refusals are no evidence: the tier holds for a full window,
    // then an evidence-free tick steps it down.
    clk.advance(0.9);
    c.tick();
    EXPECT_FALSE(c.select(0).admit);
    clk.advance(0.2);
    c.tick();
    EXPECT_TRUE(c.select(0).admit);
    EXPECT_EQ(c.stats().recoveries, 1u);
}

TEST(QualityController, HigherOfDepthAndWindowIndexWins)
{
    ManualClock clk;
    QualityController c(threeRungs(), fastWindow(), clk);
    // Window at 0: depth alone picks the rung.
    EXPECT_EQ(c.select(3).resolution_cap, 0);
    EXPECT_EQ(c.select(5).resolution_cap, 160);
    EXPECT_EQ(c.select(9).resolution_cap, 96);

    clk.advance(0.5);
    recordN(c, 4, false);
    ASSERT_EQ(c.stats().window_tier, 1);
    // Window at 1: it wins over a shallow queue, loses to a deep one.
    EXPECT_EQ(c.select(0).resolution_cap, 160);
    EXPECT_EQ(c.select(9).resolution_cap, 96);
    // The depth signal is stateless: it never moves the window.
    EXPECT_EQ(c.stats().window_tier, 1);
    EXPECT_EQ(c.stats().drops, 1u);
}

} // namespace
} // namespace tamres
