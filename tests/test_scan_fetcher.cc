/**
 * @file
 * Tests for ScanFetcher on its own, with no engine: the retry policy
 * replays on a ManualClock against a scripted FaultyObjectStore, so
 * backoff sleeps, fail-fast give-ups and tail refetches are observed
 * exactly.
 */

#include <gtest/gtest.h>

#include <mutex>
#include <utility>
#include <vector>

#include "image/synthetic.hh"
#include "storage/breaker.hh"
#include "storage/fault_injection.hh"
#include "storage/scan_fetcher.hh"
#include "util/cancel.hh"
#include "util/clock.hh"
#include "util/error.hh"

namespace tamres {
namespace {

constexpr uint64_t kId = 1;

EncodedImage
encodeTest(uint64_t seed)
{
    return encodeProgressive(generateSyntheticImage(
        {.height = 48, .width = 48, .class_id = 1, .seed = seed}));
}

TEST(ScanFetcher, BackoffDoublesUpToTheCapWithZeroJitter)
{
    ObjectStore base;
    const EncodedImage enc = encodeTest(1);
    base.put(kId, enc);
    ManualClock clock(10.0);
    std::vector<double> attempt_at;
    FaultPolicy policy;
    policy.script = [&](const FaultContext &) {
        attempt_at.push_back(clock.now());
        FaultDecision d;
        d.fail = true;
        return d;
    };
    FaultyObjectStore faulty(base, policy);

    StagedRetryConfig retry;
    retry.max_attempts = 6;
    retry.backoff_base_s = 1e-3;
    retry.backoff_max_s = 5e-3;
    retry.jitter = 0.0;
    ScanFetcher fetcher(faulty, retry, HedgeConfig{}, clock, 1);

    CancelToken token;
    ScanRead read;
    read.id = kId;
    read.cancel = &token;
    EncodedImage delivery = enc.headerCopy();
    ProgressiveDecoder dec(delivery);
    FetchReport report;
    EXPECT_FALSE(fetcher.fetch(read, delivery, dec, enc.numScans(),
                               report));

    // base * 2^(n-1) for retry n, capped: 1, 2, 4, 5, 5 ms.
    const std::vector<double> want = {1e-3, 2e-3, 4e-3, 5e-3, 5e-3};
    ASSERT_EQ(attempt_at.size(), want.size() + 1);
    for (size_t n = 0; n < want.size(); ++n)
        EXPECT_NEAR(attempt_at[n + 1] - attempt_at[n], want[n], 1e-12)
            << "retry " << n + 1;
    EXPECT_EQ(report.retries, 5);
    EXPECT_EQ(report.faults, 6);
    EXPECT_EQ(report.giveups, 1);
    EXPECT_EQ(report.bytes, 0u);
    EXPECT_EQ(dec.scansDecoded(), 0);
}

TEST(ScanFetcher, FailFastGivesUpWithoutAdvancingTheClock)
{
    // An Open breaker answers with a fail-fast error: the fetcher must
    // give up at once instead of sleeping a backoff it cannot use.
    ObjectStore base;
    const EncodedImage enc = encodeTest(2);
    base.put(kId, enc);
    FaultPolicy policy;
    policy.script = [](const FaultContext &) {
        FaultDecision d;
        d.fail = true;
        return d;
    };
    FaultyObjectStore faulty(base, policy);
    ManualClock clock;
    BreakerConfig bc;
    bc.min_samples = 2;
    bc.failure_threshold = 0.5;
    bc.clock = &clock;
    BreakerObjectStore breaker(faulty, bc);
    for (int i = 0; i < 2; ++i) {
        std::vector<uint8_t> buf;
        EXPECT_THROW(breaker.fetchScanRange(kId, 0, 1, buf, false), Error);
    }
    ASSERT_EQ(breaker.state(), BreakerState::Open);
    const uint64_t faulty_reads = faulty.stats().requests;

    StagedRetryConfig retry;
    retry.backoff_base_s = 1.0; // any sleep would show on the clock
    ScanFetcher fetcher(breaker, retry, HedgeConfig{}, clock, 1);
    CancelToken token;
    ScanRead read;
    read.id = kId;
    read.cancel = &token;
    EncodedImage delivery = enc.headerCopy();
    ProgressiveDecoder dec(delivery);
    FetchReport report;
    EXPECT_FALSE(fetcher.fetch(read, delivery, dec, 2, report));

    EXPECT_EQ(clock.now(), 0.0);
    EXPECT_EQ(report.faults, 1);
    EXPECT_EQ(report.giveups, 1);
    EXPECT_EQ(report.retries, 0);
    EXPECT_EQ(faulty.stats().requests, faulty_reads)
        << "the breaker refused the read before the store saw it";
}

class ScanFetcherPathTest : public ::testing::TestWithParam<bool>
{};

TEST_P(ScanFetcherPathTest, TruncatedDeliveryRefetchesOnlyTheTail)
{
    // The first delivery stops halfway through scan 3: the decoder
    // keeps the two whole scans, and the retry fetches [2, n) only.
    // Direct path (param false) and pooled path (true) alike.
    ObjectStore base;
    const EncodedImage enc = encodeTest(3);
    base.put(kId, enc);
    const int n = enc.numScans();
    ASSERT_GE(n, 4);
    const size_t cut = enc.bytesForScans(2) +
                       (enc.bytesForScans(3) - enc.bytesForScans(2)) / 2;
    std::mutex mu;
    std::vector<std::pair<int, int>> ranges;
    FaultPolicy policy;
    policy.script = [&](const FaultContext &ctx) {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(ctx.from_scans, ctx.to_scans);
        FaultDecision d;
        if (ctx.from_scans == 0)
            d.deliver_bytes = cut;
        return d;
    };
    FaultyObjectStore faulty(base, policy);

    ManualClock clock;
    StagedRetryConfig retry;
    retry.stage_timeout_s = GetParam() ? 30.0 : 0.0;
    ScanFetcher fetcher(faulty, retry, HedgeConfig{}, clock, 1);
    CancelToken token;
    ScanRead read;
    read.id = kId;
    read.cancel = &token;
    EncodedImage delivery = enc.headerCopy();
    ProgressiveDecoder dec(delivery);
    FetchReport report;
    ASSERT_TRUE(fetcher.fetch(read, delivery, dec, n, report));
    fetcher.stop();

    const std::vector<std::pair<int, int>> want = {{0, n}, {2, n}};
    EXPECT_EQ(ranges, want);
    EXPECT_EQ(dec.scansDecoded(), n);
    EXPECT_EQ(delivery.bytes, enc.bytes);
    EXPECT_EQ(report.faults, 1);
    EXPECT_EQ(report.retries, 1);
    EXPECT_EQ(report.bytes,
              cut + enc.bytesForScans(n) - enc.bytesForScans(2));
    EXPECT_EQ(fetcher.detachedBytes(), 0u);
    EXPECT_EQ(faulty.stats().bytes_read, report.bytes);
    EXPECT_EQ(faulty.stats().bytes_full, enc.totalBytes())
        << "the full-read denominator is charged once";
}

INSTANTIATE_TEST_SUITE_P(Pooled, ScanFetcherPathTest, ::testing::Bool());

} // namespace
} // namespace tamres
