/**
 * @file
 * Unit tests for the benchmark's own arithmetic: percentiles, the
 * seeded schedule, span self time, metric-name syntax and the result
 * line. Build and run: python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include "bench_lib.hh"

using namespace perfbench;

TEST(Quantile, InterpolatesBetweenClosestRanks)
{
    EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(quantile({7.0}, 0.95), 7.0);
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 1.0), 4.0);
    std::vector<double> v;
    for (int i = 1; i <= 101; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(quantile(v, 0.95), 96.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.99), 100.0);
    EXPECT_DOUBLE_EQ(median({5, 1, 9}), 5.0);
    EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3.0);
}

TEST(Schedule, SameSeedSameScheduleOtherSeedOther)
{
    const auto a = makeSchedule(7, 50.0, 4.0, 32, 1.0);
    const auto b = makeSchedule(7, 50.0, 4.0, 32, 1.0);
    const auto c = makeSchedule(8, 50.0, 4.0, 32, 1.0);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].t, b[i].t);
        EXPECT_EQ(a[i].object, b[i].object);
    }
    ASSERT_EQ(a.size(), c.size());
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i)
        differs |= a[i].t != c[i].t || a[i].object != c[i].object;
    EXPECT_TRUE(differs);
}

TEST(Schedule, ExactCountSortedInsideTheWindow)
{
    const auto s = makeSchedule(3, 40.0, 2.5, 10, 0.0);
    ASSERT_EQ(s.size(), 100u);
    std::vector<int> hits(10, 0);
    for (size_t i = 0; i < s.size(); ++i) {
        if (i > 0)
            EXPECT_LE(s[i - 1].t, s[i].t);
        EXPECT_GE(s[i].t, 0.0);
        EXPECT_LT(s[i].t, 2.5);
        ASSERT_GE(s[i].object, 0);
        ASSERT_LT(s[i].object, 10);
        ++hits[static_cast<size_t>(s[i].object)];
    }
    for (int h : hits)
        EXPECT_GT(h, 0) << "uniform draws should touch every object";
}

TEST(Schedule, ZipfFavoursLowRanks)
{
    const auto s = makeSchedule(11, 1000.0, 10.0, 32, 1.0);
    std::vector<int> hits(32, 0);
    for (const Arrival &a : s)
        ++hits[static_cast<size_t>(a.object)];
    // Zipf(1) over 32 objects: rank 1 draws ~24.8%, rank 2 ~12.4%.
    EXPECT_NEAR(hits[0] / 10000.0, 0.248, 0.02);
    EXPECT_NEAR(hits[1] / 10000.0, 0.124, 0.015);
    EXPECT_GT(hits[0], hits[31] * 10);
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    std::vector<Span> spans = {
        {"root", 0.0, 10.0, -1, 1},
        {"a", 1.0, 4.0, 0, 1},
        {"b", 3.0, 6.0, 0, 1},  // overlaps a: union 1..6 = 5
        {"c", 8.0, 12.0, 0, 1}, // clipped to the parent: 8..10 = 2
        {"a.child", 2.0, 3.0, 1, 1},
    };
    const std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 7.0);
    EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 4.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTime, CoveredLengthMergesAndClips)
{
    EXPECT_DOUBLE_EQ(coveredLength({}, 0, 1), 0.0);
    EXPECT_DOUBLE_EQ(coveredLength({{0, 2}, {1, 3}, {5, 6}}, 0, 10), 4.0);
    EXPECT_DOUBLE_EQ(coveredLength({{-5, 2}, {9, 20}}, 0, 10), 3.0);
    EXPECT_DOUBLE_EQ(coveredLength({{4, 3}}, 0, 10), 0.0);
}

TEST(Metrics, NameAndUnitSyntax)
{
    EXPECT_TRUE(validMetricName("latency_p95_ms"));
    EXPECT_TRUE(validMetricName("nn.exec_ms.r224.b4"));
    EXPECT_TRUE(validMetricName("9lives-x"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".hidden"));
    EXPECT_FALSE(validMetricName("_x"));
    EXPECT_FALSE(validMetricName("a b"));
    EXPECT_FALSE(validMetricName("a/b"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_TRUE(validUnit("req/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_TRUE(validUnit("GFLOP/s"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("per second"));
    EXPECT_FALSE(validUnit(std::string(17, 's')));
}

TEST(Metrics, ResultLineKeepsEveryDigit)
{
    const std::string j = resultJson(
        true, 12, 0, {{"latency_ms", 1.2034567891234, "ms"},
                      {"setup_s", 0.5, "s"}});
    EXPECT_EQ(j,
              "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
              "\"metrics\": {\"latency_ms\": {\"value\": "
              "1.2034567891234, \"unit\": \"ms\"}, \"setup_s\": "
              "{\"value\": 0.5, \"unit\": \"s\"}}}");
}
