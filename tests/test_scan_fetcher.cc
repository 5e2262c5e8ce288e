/**
 * @file
 * Tests for ScanFetcher on its own, with no engine: the retry policy
 * replays on a ManualClock against a scripted FaultyObjectStore, so
 * backoff sleeps, fail-fast give-ups and tail refetches are observed
 * exactly.
 */

#include <gtest/gtest.h>

#include <cstring>
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
                               enc.numScans(), report));

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
    EXPECT_FALSE(fetcher.fetch(read, delivery, dec, 2, 2, report));

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
    ASSERT_TRUE(fetcher.fetch(read, delivery, dec, n, n, report));
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

TEST_P(ScanFetcherPathTest, ReadPastTheDecodeTargetHoldsTheRest)
{
    // One read of every scan with a decode target of 2: the decoder
    // stops at 2, bit-identical to a 2-scan decode, and the rest of
    // the delivery stays held in the buffer, metered once.
    ObjectStore store;
    const EncodedImage enc = encodeTest(4);
    store.put(kId, enc);
    const int n = enc.numScans();
    ASSERT_GE(n, 4);
    ManualClock clock;
    StagedRetryConfig retry;
    retry.stage_timeout_s = GetParam() ? 30.0 : 0.0;
    ScanFetcher fetcher(store, retry, HedgeConfig{}, clock, 1);
    CancelToken token;
    ScanRead read;
    read.id = kId;
    read.cancel = &token;
    EncodedImage delivery = enc.headerCopy();
    ProgressiveDecoder dec(delivery);
    FetchReport report;
    ASSERT_TRUE(fetcher.fetch(read, delivery, dec, 2, n, report));
    fetcher.stop();

    EXPECT_EQ(dec.scansDecoded(), 2);
    const Image want = decodeProgressive(enc, 2);
    const Image got = dec.image();
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * want.numel()),
              0);
    EXPECT_EQ(delivery.bytes, enc.bytes) << "scans [2, n) are held";
    EXPECT_EQ(report.bytes, enc.totalBytes());
    EXPECT_EQ(report.faults, 0);
    EXPECT_EQ(store.stats().requests, 1u);
    EXPECT_EQ(store.stats().bytes_read, enc.totalBytes());
}

TEST_P(ScanFetcherPathTest, HeldBytesCoverTheNextFetchWithoutARead)
{
    // A second fetch whose target the held bytes cover decodes them
    // and makes no store read at all.
    ObjectStore store;
    const EncodedImage enc = encodeTest(5);
    store.put(kId, enc);
    const int n = enc.numScans();
    ManualClock clock;
    StagedRetryConfig retry;
    retry.stage_timeout_s = GetParam() ? 30.0 : 0.0;
    ScanFetcher fetcher(store, retry, HedgeConfig{}, clock, 1);
    CancelToken token;
    ScanRead read;
    read.id = kId;
    read.cancel = &token;
    EncodedImage delivery = enc.headerCopy();
    ProgressiveDecoder dec(delivery);
    FetchReport first;
    ASSERT_TRUE(fetcher.fetch(read, delivery, dec, 2, n, first));
    ASSERT_EQ(store.stats().requests, 1u);

    FetchReport second;
    ASSERT_TRUE(fetcher.fetch(read, delivery, dec, n, n, second));
    fetcher.stop();
    EXPECT_EQ(dec.scansDecoded(), n);
    EXPECT_EQ(store.stats().requests, 1u) << "no second store read";
    EXPECT_EQ(second.bytes, 0u);
    EXPECT_EQ(second.retries, 0);
    EXPECT_EQ(second.faults, 0);
    const Image want = decodeProgressive(enc, n);
    const Image got = dec.image();
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * want.numel()),
              0);
}

TEST_P(ScanFetcherPathTest, HeldBitFlipIsTrimmedAndRefetchedOnce)
{
    // The first read's delivery carries a bit flip inside scan 3,
    // held and undecoded past the decode target of 2. The next fetch
    // catches it with the scan checksum before scan 3 decodes, trims
    // to scan 3 and refetches [3, n) once — a fault, not a retry —
    // and every delivered byte is metered exactly once.
    ObjectStore base;
    const EncodedImage enc = encodeTest(6);
    base.put(kId, enc);
    const int n = enc.numScans();
    ASSERT_GE(n, 4);
    std::mutex mu;
    std::vector<std::pair<int, int>> ranges;
    FaultPolicy policy;
    policy.script = [&](const FaultContext &ctx) {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(ctx.from_scans, ctx.to_scans);
        FaultDecision d;
        if (ctx.from_scans == 0)
            d.flip_bit = static_cast<int64_t>(enc.bytesForScans(3)) * 8 + 5;
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
    FetchReport first;
    ASSERT_TRUE(fetcher.fetch(read, delivery, dec, 2, n, first));
    EXPECT_EQ(dec.scansDecoded(), 2);
    EXPECT_EQ(first.faults, 0) << "the flip lies past the decode target";

    FetchReport second;
    ASSERT_TRUE(fetcher.fetch(read, delivery, dec, n, n, second));
    fetcher.stop();

    const std::vector<std::pair<int, int>> want = {{0, n}, {3, n}};
    EXPECT_EQ(ranges, want);
    EXPECT_EQ(dec.scansDecoded(), n);
    EXPECT_EQ(delivery.bytes, enc.bytes);
    EXPECT_EQ(second.faults, 1);
    EXPECT_EQ(second.retries, 0);
    EXPECT_EQ(second.giveups, 0);
    EXPECT_EQ(faulty.stats().faults_corrupted, 1u);
    EXPECT_EQ(first.bytes + second.bytes, faulty.stats().bytes_read);
    EXPECT_EQ(second.bytes, enc.totalBytes() - enc.bytesForScans(3));
    EXPECT_EQ(fetcher.detachedBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Pooled, ScanFetcherPathTest, ::testing::Bool());

} // namespace
} // namespace tamres
