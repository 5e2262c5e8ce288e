/**
 * @file
 * Unit tests for the storage module: byte accounting, incremental
 * reads, byte delivery, fault injection, the hot-object decode cache,
 * bandwidth model.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "image/synthetic.hh"
#include "storage/breaker.hh"
#include "storage/decode_cache.hh"
#include "storage/fault_injection.hh"
#include "storage/object_store.hh"
#include "util/cancel.hh"
#include "util/clock.hh"
#include "util/error.hh"

namespace tamres {
namespace {

EncodedImage
encodeTest(uint64_t seed)
{
    return encodeProgressive(generateSyntheticImage(
        {.height = 40, .width = 40, .class_id = 1, .seed = seed}));
}

/**
 * Fetch scans [from, to) of @p id into a scratch delivery buffer (a
 * zero-filled placeholder prefix plus the range); returns the bytes
 * charged.
 */
size_t
fetchRange(ObjectStore &store, uint64_t id, int from, int to,
           bool charge_full = true)
{
    std::vector<uint8_t> buf(store.peek(id).bytesForScans(from));
    return store.fetchScanRange(id, from, to, buf, charge_full);
}

TEST(ObjectStore, PutAndContains)
{
    ObjectStore store;
    EXPECT_FALSE(store.contains(7));
    store.put(7, encodeTest(1));
    EXPECT_TRUE(store.contains(7));
    EXPECT_EQ(store.size(), 1u);
}

TEST(ObjectStore, StoredBytesSum)
{
    ObjectStore store;
    const EncodedImage a = encodeTest(1);
    const EncodedImage b = encodeTest(2);
    store.put(1, a);
    store.put(2, b);
    EXPECT_EQ(store.storedBytes(), a.totalBytes() + b.totalBytes());
}

TEST(ObjectStore, ReadChargesPrefixBytes)
{
    ObjectStore store;
    const EncodedImage enc = encodeTest(3);
    store.put(1, enc);
    fetchRange(store, 1, 0, 2);
    EXPECT_EQ(store.stats().requests, 1u);
    EXPECT_EQ(store.stats().bytes_read, enc.bytesForScans(2));
    EXPECT_EQ(store.stats().bytes_full, enc.totalBytes());
}

TEST(ObjectStore, IncrementalReadChargesOnlyDelta)
{
    ObjectStore store;
    const EncodedImage enc = encodeTest(4);
    store.put(1, enc);
    fetchRange(store, 1, 0, 2);
    fetchRange(store, 1, 2, 4, /*charge_full=*/false);
    EXPECT_EQ(store.stats().bytes_read, enc.bytesForScans(4));
    // The full-read denominator counted once per logical request.
    EXPECT_EQ(store.stats().bytes_full, enc.totalBytes());
}

TEST(ObjectStore, ZeroPrefixIncrementalReadDoesNotDoubleChargeFull)
{
    // A 0-scan first read (preview_scans = 0) followed by an
    // incremental range starting at scan 0 must still charge the
    // full-read denominator exactly once for the logical request.
    ObjectStore store;
    const EncodedImage enc = encodeTest(5);
    store.put(1, enc);
    fetchRange(store, 1, 0, 0);
    fetchRange(store, 1, 0, 1, /*charge_full=*/false);
    EXPECT_EQ(store.stats().bytes_read, enc.bytesForScans(1));
    EXPECT_EQ(store.stats().bytes_full, enc.totalBytes());
}

TEST(ObjectStore, SavingsComputed)
{
    ObjectStore store;
    store.put(1, encodeTest(5));
    fetchRange(store, 1, 0, 1);
    const ReadStats &s = store.stats();
    EXPECT_GT(s.savings(), 0.0);
    EXPECT_LT(s.savings(), 1.0);
    EXPECT_NEAR(s.relativeReadSize() + s.savings(), 1.0, 1e-12);
}

TEST(ObjectStore, ResetStatsKeepsObjects)
{
    ObjectStore store;
    store.put(1, encodeTest(6));
    fetchRange(store, 1, 0, 1);
    store.resetStats();
    EXPECT_EQ(store.stats().requests, 0u);
    EXPECT_TRUE(store.contains(1));
}

TEST(ObjectStore, DecodedPreviewMatchesDirectDecode)
{
    ObjectStore store;
    const EncodedImage enc = encodeTest(7);
    store.put(9, enc);
    EncodedImage delivery = enc.headerCopy();
    store.fetchScanRange(9, 0, 3, delivery.bytes);
    const Image via_store = decodeProgressive(delivery, 3);
    const Image direct = decodeProgressive(enc, 3);
    ASSERT_EQ(via_store.numel(), direct.numel());
    for (size_t i = 0; i < direct.numel(); ++i)
        EXPECT_EQ(via_store.data()[i], direct.data()[i]);
}

TEST(ObjectStoreError, MissingObjectThrowsNotFound)
{
    // A missing id is a request error the serving tier maps to a
    // per-request failure — a typed throw, never a process abort.
    ObjectStore store;
    std::vector<uint8_t> buf;
    try {
        store.fetchScanRange(404, 0, 1, buf);
        FAIL() << "expected Error{NotFound}";
    } catch (const Error &e) {
        EXPECT_EQ(e.kind(), ErrorKind::NotFound);
        EXPECT_NE(std::string(e.what()).find("not in store"),
                  std::string::npos);
    }
    EXPECT_THROW(store.peek(404), Error);
    // The store stays fully usable after a failed lookup.
    store.put(404, encodeTest(9));
    EXPECT_NO_THROW(fetchRange(store, 404, 0, 1));
}

TEST(ObjectStoreDeath, BadIncrementalRange)
{
    ObjectStore store;
    const EncodedImage enc = encodeTest(8);
    store.put(1, enc);
    std::vector<uint8_t> buf(enc.bytesForScans(3));
    EXPECT_DEATH(store.fetchScanRange(1, 3, 2, buf), "scan range");
}

TEST(ObjectStore, FetchScanRangeDeliversAndMetersBytes)
{
    // The byte-delivering path the staged engine decodes from: the
    // appended bytes are the exact payload range, metered as such.
    ObjectStore store;
    const EncodedImage enc = encodeTest(10);
    store.put(1, enc);
    std::vector<uint8_t> buf;
    EXPECT_EQ(store.fetchScanRange(1, 0, 2, buf), enc.bytesForScans(2));
    EXPECT_EQ(buf.size(), enc.bytesForScans(2));
    EXPECT_EQ(store.fetchScanRange(1, 2, 4, buf),
              enc.bytesForScans(4) - enc.bytesForScans(2));
    EXPECT_EQ(buf.size(), enc.bytesForScans(4));
    EXPECT_EQ(std::memcmp(buf.data(), enc.bytes.data(), buf.size()), 0);
    EXPECT_EQ(store.stats().requests, 2u);
    EXPECT_EQ(store.stats().bytes_read, enc.bytesForScans(4));
    EXPECT_EQ(store.stats().bytes_full, enc.totalBytes());
}

TEST(ObjectStore, FetchScanRangeRetryDoesNotDoubleChargeFull)
{
    // A retried from == 0 fetch passes charge_full = false so the
    // full-read denominator stays once-per-logical-request.
    ObjectStore store;
    const EncodedImage enc = encodeTest(11);
    store.put(1, enc);
    std::vector<uint8_t> buf;
    store.fetchScanRange(1, 0, 2, buf);
    buf.clear(); // simulate discarding a damaged delivery
    store.fetchScanRange(1, 0, 2, buf, /*charge_full=*/false);
    EXPECT_EQ(store.stats().bytes_full, enc.totalBytes());
    EXPECT_EQ(store.stats().bytes_read, 2 * enc.bytesForScans(2));
}

TEST(ObjectStore, FetchScanRangeHonorsMaxBytes)
{
    ObjectStore store;
    const EncodedImage enc = encodeTest(12);
    store.put(1, enc);
    std::vector<uint8_t> buf;
    const size_t cap = enc.bytesForScans(1) / 2;
    EXPECT_EQ(store.fetchScanRange(1, 0, 1, buf, true, cap), cap);
    EXPECT_EQ(buf.size(), cap);
    // Only the delivered bytes are metered.
    EXPECT_EQ(store.stats().bytes_read, cap);
}

TEST(FaultInjection, CleanPolicyIsTransparent)
{
    ObjectStore base;
    const EncodedImage enc = encodeTest(13);
    base.put(1, enc);
    FaultyObjectStore store(base, FaultPolicy{});
    std::vector<uint8_t> buf;
    EXPECT_EQ(store.fetchScanRange(1, 0, enc.numScans(), buf, true,
                                   SIZE_MAX),
              enc.totalBytes());
    EXPECT_EQ(std::memcmp(buf.data(), enc.bytes.data(), buf.size()), 0);
    const ReadStats s = store.stats();
    EXPECT_EQ(s.faults_transient + s.faults_truncated +
                  s.faults_corrupted + s.faults_delayed,
              0u);
}

TEST(FaultInjection, DeterministicAcrossReplays)
{
    // Same seed + same call sequence => identical outcomes, including
    // which attempts fail and which bytes get damaged.
    ObjectStore base;
    const EncodedImage enc = encodeTest(14);
    for (uint64_t id = 1; id <= 6; ++id)
        base.put(id, enc);
    FaultPolicy policy;
    policy.seed = 42;
    policy.transient_p = 0.3;
    policy.truncate_p = 0.3;
    policy.corrupt_p = 0.3;

    const auto replay = [&](std::vector<std::vector<uint8_t>> &outs,
                            std::vector<int> &outcomes) {
        FaultyObjectStore store(base, policy);
        for (uint64_t id = 1; id <= 6; ++id) {
            for (int attempt = 0; attempt < 3; ++attempt) {
                std::vector<uint8_t> buf;
                try {
                    store.fetchScanRange(id, 0, 2, buf, true, SIZE_MAX);
                    outcomes.push_back(1);
                } catch (const Error &e) {
                    EXPECT_EQ(e.kind(), ErrorKind::Transient);
                    outcomes.push_back(0);
                }
                outs.push_back(std::move(buf));
            }
        }
    };
    std::vector<std::vector<uint8_t>> a_bytes, b_bytes;
    std::vector<int> a_out, b_out;
    replay(a_bytes, a_out);
    replay(b_bytes, b_out);
    EXPECT_EQ(a_out, b_out);
    EXPECT_EQ(a_bytes, b_bytes);
    // With 30% rates over 18 draws, something must have fired.
    int fired = 0;
    for (int i = 0; i < static_cast<int>(a_out.size()); ++i)
        fired += a_out[i] == 0;
    for (size_t i = 0; i < a_bytes.size(); ++i)
        if (!a_bytes[i].empty() && a_bytes[i].size() < enc.bytesForScans(2))
            ++fired;
    EXPECT_GT(fired, 0);
}

TEST(FaultInjection, ScriptedFaultsHitExactAttempts)
{
    // A scripted schedule gives tests full control: fail attempt 0,
    // truncate attempt 1, corrupt attempt 2, clean from attempt 3.
    ObjectStore base;
    const EncodedImage enc = encodeTest(15);
    base.put(1, enc);
    FaultPolicy policy;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        if (ctx.attempt == 0)
            d.fail = true;
        else if (ctx.attempt == 1)
            d.deliver_bytes = ctx.range_bytes / 2;
        else if (ctx.attempt == 2)
            d.flip_bit = 13;
        return d;
    };
    FaultyObjectStore store(base, policy);

    std::vector<uint8_t> buf;
    // A Transient throw happens before any base delivery: nothing is
    // appended and nothing is charged, so the retry keeps
    // charge_full = true until a delivery lands.
    EXPECT_THROW(store.fetchScanRange(1, 0, 2, buf, true, SIZE_MAX),
                 Error);
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(store.stats().bytes_full, 0u);
    EXPECT_EQ(store.fetchScanRange(1, 0, 2, buf, true, SIZE_MAX),
              enc.bytesForScans(2) / 2);
    buf.clear();
    EXPECT_EQ(store.fetchScanRange(1, 0, 2, buf, false, SIZE_MAX),
              enc.bytesForScans(2));
    EXPECT_NE(std::memcmp(buf.data(), enc.bytes.data(), buf.size()), 0);
    buf.clear();
    EXPECT_EQ(store.fetchScanRange(1, 0, 2, buf, false, SIZE_MAX),
              enc.bytesForScans(2));
    EXPECT_EQ(std::memcmp(buf.data(), enc.bytes.data(), buf.size()), 0);

    const ReadStats s = store.stats();
    EXPECT_EQ(s.faults_transient, 1u);
    EXPECT_EQ(s.faults_truncated, 1u);
    EXPECT_EQ(s.faults_corrupted, 1u);
    // Base accounting still meters only delivered bytes, with the
    // denominator charged once (first successful delivery).
    EXPECT_EQ(s.bytes_read,
              enc.bytesForScans(2) / 2 + 2 * enc.bytesForScans(2));
    EXPECT_EQ(s.bytes_full, enc.totalBytes());
}

TEST(FaultInjection, MissingObjectStillNotFound)
{
    ObjectStore base;
    FaultPolicy policy;
    policy.transient_p = 1.0; // would otherwise always fail Transient
    FaultyObjectStore store(base, policy);
    std::vector<uint8_t> buf;
    try {
        store.fetchScanRange(404, 0, 1, buf, true, SIZE_MAX);
        FAIL() << "expected Error{NotFound}";
    } catch (const Error &e) {
        EXPECT_EQ(e.kind(), ErrorKind::NotFound);
    }
}

TEST(Cancellation, PreFiredTokenStopsDeliveryBeforeAnyChunk)
{
    // The base store polls the token between per-scan delivery
    // chunks; a token fired before the call delivers nothing,
    // charges no full-read denominator, and throws by reason.
    ObjectStore store;
    const EncodedImage enc = encodeTest(21);
    store.put(1, enc);

    CancelToken client;
    client.cancel(CancelReason::Client);
    std::vector<uint8_t> buf;
    try {
        store.fetchScanRange(1, 0, enc.numScans(), buf, true,
                             SIZE_MAX, &client);
        FAIL() << "expected Error{Cancelled}";
    } catch (const Error &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Cancelled);
    }
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(store.stats().bytes_read, 0u);
    EXPECT_EQ(store.stats().bytes_full, 0u)
        << "a fired fetch must not charge the full-read denominator";
    EXPECT_EQ(store.stats().requests, 1u)
        << "the attempt itself is still metered";

    // An Abandoned-fired token (timed-fetch supervision) surfaces as
    // the fail-fast Transient the retry ladder and breaker expect.
    CancelToken abandoned;
    abandoned.cancel(CancelReason::Abandoned);
    try {
        store.fetchScanRange(1, 0, enc.numScans(), buf, true,
                             SIZE_MAX, &abandoned);
        FAIL() << "expected fail-fast Error{Transient}";
    } catch (const Error &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Transient);
        EXPECT_TRUE(e.failFast());
    }
}

TEST(Cancellation, UnfiredTokenDeliversBitIdenticalBytes)
{
    ObjectStore store;
    const EncodedImage enc = encodeTest(22);
    store.put(1, enc);
    CancelToken tok;
    std::vector<uint8_t> clean, guarded;
    store.fetchScanRange(1, 0, enc.numScans(), clean, true, SIZE_MAX);
    EXPECT_EQ(store.fetchScanRange(1, 0, enc.numScans(), guarded,
                                   true, SIZE_MAX, &tok),
              clean.size());
    EXPECT_EQ(guarded, clean);
}

TEST(FaultInjection, HungReadWakesWhenTokenFires)
{
    // A scripted hang wedges the read until supervision fires the
    // fetch token; the read then throws instead of delivering, and
    // the hang is metered.
    ObjectStore base;
    const EncodedImage enc = encodeTest(23);
    base.put(1, enc);
    FaultPolicy policy;
    policy.script = [](const FaultContext &) {
        FaultDecision d;
        d.hang = true;
        return d;
    };
    FaultyObjectStore store(base, policy);

    CancelToken tok;
    std::atomic<bool> threw{false};
    std::atomic<bool> fail_fast{false};
    std::thread reader([&] {
        std::vector<uint8_t> buf;
        try {
            store.fetchScanRange(1, 0, enc.numScans(), buf, true,
                                 SIZE_MAX, &tok);
        } catch (const Error &e) {
            threw.store(e.kind() == ErrorKind::Transient);
            fail_fast.store(e.failFast());
        }
    });
    // Let the reader reach the hang, then abandon it.
    while (store.stats().faults_hung < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    tok.cancel(CancelReason::Abandoned);
    reader.join();
    EXPECT_TRUE(threw.load());
    EXPECT_TRUE(fail_fast.load())
        << "an abandoned hung read must fail fast into the ladder";
    EXPECT_EQ(store.stats().faults_hung, 1u);
    EXPECT_EQ(store.stats().bytes_read, 0u);
}

TEST(FaultInjection, ReleaseHangsWakesWedgedAndDisarmsFutureHangs)
{
    ObjectStore base;
    const EncodedImage enc = encodeTest(24);
    base.put(1, enc);
    FaultPolicy policy;
    policy.script = [](const FaultContext &ctx) {
        FaultDecision d;
        d.hang = ctx.attempt == 0;
        return d;
    };
    FaultyObjectStore store(base, policy);

    std::atomic<bool> released{false};
    std::thread reader([&] {
        std::vector<uint8_t> buf;
        try {
            store.fetchScanRange(1, 0, 1, buf, true, SIZE_MAX);
        } catch (const Error &e) {
            released.store(e.kind() == ErrorKind::Transient);
        }
    });
    while (store.stats().faults_hung < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    store.releaseHangs();
    reader.join();
    EXPECT_TRUE(released.load());

    // Future hang decisions throw immediately instead of blocking —
    // the escape hatch is permanent.
    std::vector<uint8_t> buf;
    store.resetAttempts(); // attempt 0 hangs again by script
    EXPECT_THROW(store.fetchScanRange(1, 0, 1, buf, true, SIZE_MAX),
                 Error);
    EXPECT_EQ(store.stats().faults_hung, 2u);
    // The next attempt is clean and delivers.
    EXPECT_EQ(store.fetchScanRange(1, 0, 1, buf, true, SIZE_MAX),
              enc.bytesForScans(1));
}

TEST(Breaker, CountsAbandonedReadsButReleasesClientCancels)
{
    // Abandoned/watchdog firings arrive as fail-fast Transient and
    // must count as breaker failures (a tier that wedges reads is
    // sick); client cancels arrive as Cancelled and must NOT poison
    // the health window.
    ObjectStore base;
    const EncodedImage enc = encodeTest(25);
    base.put(1, enc);

    BreakerConfig bc;
    bc.min_samples = 2;
    bc.failure_threshold = 0.5;
    {
        BreakerObjectStore breaker(base, bc);
        CancelToken abandoned;
        abandoned.cancel(CancelReason::Abandoned);
        std::vector<uint8_t> buf;
        for (int i = 0; i < 2; ++i) {
            buf.clear();
            EXPECT_THROW(breaker.fetchScanRange(1, 0, 1, buf, false,
                                                SIZE_MAX, &abandoned),
                         Error);
        }
        EXPECT_EQ(breaker.state(), BreakerState::Open)
            << "two abandoned reads are two tier failures";
        EXPECT_EQ(breaker.breakerStats().trips, 1u);
    }
    {
        BreakerObjectStore breaker(base, bc);
        CancelToken client;
        client.cancel(CancelReason::Client);
        std::vector<uint8_t> buf;
        for (int i = 0; i < 4; ++i) {
            buf.clear();
            EXPECT_THROW(breaker.fetchScanRange(1, 0, 1, buf, false,
                                                SIZE_MAX, &client),
                         Error);
        }
        EXPECT_EQ(breaker.state(), BreakerState::Closed)
            << "client cancels say nothing about tier health";
        EXPECT_EQ(breaker.breakerStats().trips, 0u);
    }
}

TEST(ReadStats, MergeAccumulates)
{
    ReadStats a{.requests = 1, .bytes_read = 10, .bytes_full = 20};
    ReadStats b{.requests = 2, .bytes_read = 5, .bytes_full = 30};
    b.faults_delayed = 1;
    b.faults_transient = 2;
    b.faults_truncated = 3;
    b.faults_corrupted = 4;
    b.breaker_fast_fails = 5;
    b.breaker_trips = 6;
    a.merge(b);
    EXPECT_EQ(a.requests, 3u);
    EXPECT_EQ(a.bytes_read, 15u);
    EXPECT_EQ(a.bytes_full, 50u);
    EXPECT_EQ(a.faults_delayed, 1u);
    EXPECT_EQ(a.faults_transient, 2u);
    EXPECT_EQ(a.faults_truncated, 3u);
    EXPECT_EQ(a.faults_corrupted, 4u);
    EXPECT_EQ(a.breaker_fast_fails, 5u);
    EXPECT_EQ(a.breaker_trips, 6u);
}

TEST(FaultInjection, ConcurrentMeteringConserves)
{
    // TSan-exercised: four threads hammer fetchScanRange through the
    // fault decorator (transient + truncate draws, no latency), over
    // both per-thread ids and one id shared by every thread. The
    // metering contract must conserve exactly under contention: every
    // call either threw Transient or delivered bytes that were
    // metered once, and the full-read denominator is charged once per
    // successful prefix-starting delivery.
    ObjectStore base;
    const EncodedImage enc = encodeTest(21);
    for (uint64_t id = 1; id <= 4; ++id)
        base.put(id, enc);
    FaultPolicy policy;
    policy.seed = 7;
    policy.transient_p = 0.25;
    policy.truncate_p = 0.25;
    FaultyObjectStore store(base, policy);

    constexpr int kThreads = 4;
    constexpr int kIters = 64;
    std::atomic<uint64_t> thrown{0};
    std::atomic<uint64_t> delivered_calls{0};
    std::atomic<uint64_t> delivered_bytes{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                // Odd iterations contend on the shared id 1; even
                // ones stay on the thread's own object.
                const uint64_t id =
                    (i % 2) ? 1 : static_cast<uint64_t>(t + 1);
                std::vector<uint8_t> buf;
                try {
                    const size_t got = store.fetchScanRange(
                        id, 0, 2, buf, /*charge_full=*/true, SIZE_MAX);
                    EXPECT_EQ(buf.size(), got);
                    delivered_calls.fetch_add(1);
                    delivered_bytes.fetch_add(got);
                } catch (const Error &e) {
                    EXPECT_EQ(e.kind(), ErrorKind::Transient);
                    thrown.fetch_add(1);
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();

    const ReadStats s = store.stats();
    EXPECT_EQ(thrown.load() + delivered_calls.load(),
              static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_EQ(s.requests, delivered_calls.load());
    EXPECT_EQ(s.bytes_read, delivered_bytes.load());
    EXPECT_EQ(s.faults_transient, thrown.load());
    // Truncated deliveries still charge the denominator: one full
    // charge per successful from == 0 fetch.
    EXPECT_EQ(s.bytes_full, delivered_calls.load() * enc.totalBytes());
    // With 25% + 25% rates over 256 draws, both sides must be
    // populated or the test is vacuous.
    EXPECT_GT(thrown.load(), 0u);
    EXPECT_GT(delivered_calls.load(), 0u);
}

TEST(Breaker, ComposesAndPassesThroughWhenClosed)
{
    // BreakerObjectStore is a transparent decorator while Closed:
    // byte-identical delivery, full ObjectStore surface forwarded,
    // base counters visible through stats() with zeroed breaker
    // fields. NotFound is a data error, not a tier-health signal —
    // even a hair-trigger breaker must not count it.
    ObjectStore base;
    const EncodedImage enc = encodeTest(22);
    ManualClock clk;
    FaultyObjectStore faulty(base, FaultPolicy{});
    BreakerConfig bcfg;
    bcfg.min_samples = 1;
    bcfg.failure_threshold = 0.01;
    bcfg.clock = &clk;
    BreakerObjectStore store(faulty, bcfg);

    store.put(1, enc); // forwarded through both decorators
    EXPECT_TRUE(store.contains(1));
    EXPECT_FALSE(store.contains(2));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.storedBytes(), enc.totalBytes());
    EXPECT_EQ(store.peek(1).totalBytes(), enc.totalBytes());
    EXPECT_EQ(fetchRange(store, 1, 0, 1), enc.bytesForScans(1));

    std::vector<uint8_t> buf;
    for (int i = 0; i < 3; ++i) {
        buf.clear();
        EXPECT_EQ(store.fetchScanRange(1, 0, enc.numScans(), buf, true,
                                       SIZE_MAX),
                  enc.totalBytes());
        clk.advance(0.01);
    }
    EXPECT_EQ(std::memcmp(buf.data(), enc.bytes.data(), buf.size()), 0);
    EXPECT_EQ(store.state(), BreakerState::Closed);

    for (int i = 0; i < 4; ++i) {
        try {
            buf.clear();
            store.fetchScanRange(404, 0, 1, buf, true, SIZE_MAX);
            FAIL() << "expected Error{NotFound}";
        } catch (const Error &e) {
            EXPECT_EQ(e.kind(), ErrorKind::NotFound);
            EXPECT_FALSE(e.failFast());
        }
    }
    EXPECT_EQ(store.state(), BreakerState::Closed)
        << "NotFound must not trip the breaker";

    const ReadStats s = store.stats();
    EXPECT_EQ(s.bytes_read, 3 * enc.totalBytes() + enc.bytesForScans(1));
    EXPECT_EQ(s.breaker_fast_fails, 0u);
    EXPECT_EQ(s.breaker_trips, 0u);
    EXPECT_EQ(store.breakerStats().probes, 0u);
}

TEST(Breaker, ConcurrentFailFastConservesCounters)
{
    // TSan-exercised: four threads hammer an always-failing store
    // through the breaker. Exactly one trip happens (cooldown never
    // expires under the frozen manual clock), and afterwards every
    // call fail-fasts without touching the base tier. Every call is
    // accounted exactly once: base-transient or breaker-fast-fail.
    ObjectStore base;
    base.put(1, encodeTest(23));
    FaultPolicy policy;
    policy.transient_p = 1.0;
    FaultyObjectStore faulty(base, policy);
    ManualClock clk;
    BreakerConfig bcfg;
    bcfg.min_samples = 4;
    bcfg.failure_threshold = 0.5;
    bcfg.cooldown_s = 1e9; // never half-opens in this test
    bcfg.clock = &clk;
    BreakerObjectStore store(faulty, bcfg);

    constexpr int kThreads = 4;
    constexpr int kIters = 32;
    std::atomic<uint64_t> thrown{0};
    std::atomic<uint64_t> fast{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                std::vector<uint8_t> buf;
                try {
                    store.fetchScanRange(1, 0, 1, buf, true, SIZE_MAX);
                    ADD_FAILURE() << "fetch cannot succeed here";
                } catch (const Error &e) {
                    EXPECT_EQ(e.kind(), ErrorKind::Transient);
                    thrown.fetch_add(1);
                    fast.fetch_add(e.failFast() ? 1 : 0);
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(thrown.load(),
              static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_EQ(store.state(), BreakerState::Open);
    const ReadStats s = store.stats();
    EXPECT_EQ(s.breaker_trips, 1u);
    EXPECT_EQ(s.breaker_fast_fails, fast.load());
    EXPECT_EQ(s.faults_transient + s.breaker_fast_fails,
              static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_GT(s.breaker_fast_fails, 0u);
}

/** Snapshot of @p enc's decoder state after @p depth scans. */
DecoderSnapshot
snapshotAt(const EncodedImage &enc, int depth)
{
    ProgressiveDecoder dec(enc);
    dec.advanceTo(depth);
    return dec.snapshot();
}

TEST(DecodeCache, LookupReturnsDeepestEntryInRange)
{
    const EncodedImage enc = encodeTest(30);
    DecodeCacheConfig cfg;
    cfg.require_second_hit = false;
    DecodeCache cache(cfg);
    cache.insert(1, 2, decodeProgressive(enc, 2), snapshotAt(enc, 2));
    cache.insert(1, 4, Image(), snapshotAt(enc, 4));

    const DecodeCache::EntryPtr deep = cache.lookup(1, 1, enc.numScans());
    ASSERT_TRUE(deep);
    EXPECT_EQ(deep->depth, 4);
    EXPECT_TRUE(deep->preview.empty()) << "snapshot-only entry";

    const DecodeCache::EntryPtr shallow = cache.lookup(1, 1, 3);
    ASSERT_TRUE(shallow);
    EXPECT_EQ(shallow->depth, 2);
    EXPECT_FALSE(shallow->preview.empty());

    EXPECT_EQ(cache.lookup(1, 5, enc.numScans()), nullptr)
        << "min_depth above every entry";
    EXPECT_EQ(cache.lookup(1, 3, 3), nullptr)
        << "nothing inside [3, 3]";
    EXPECT_EQ(cache.lookup(2, 0, enc.numScans()), nullptr)
        << "unknown id";

    const DecodeCacheStats s = cache.stats();
    EXPECT_EQ(s.insertions, 2u);
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.entries, 2u);
}

TEST(DecodeCache, ByteCapacityDrivesLruEviction)
{
    const EncodedImage enc = encodeTest(31);
    // Measure one snapshot-only entry's charged size, then build a
    // cache that fits exactly two of them.
    size_t per_entry = 0;
    {
        DecodeCacheConfig probe;
        probe.require_second_hit = false;
        DecodeCache c(probe);
        c.insert(1, 2, Image(), snapshotAt(enc, 2));
        per_entry = c.stats().bytes;
        ASSERT_GT(per_entry, 0u);
    }
    DecodeCacheConfig cfg;
    cfg.require_second_hit = false;
    cfg.capacity_bytes = 2 * per_entry;
    DecodeCache cache(cfg);

    cache.insert(10, 2, Image(), snapshotAt(enc, 2));
    cache.insert(11, 2, Image(), snapshotAt(enc, 2));
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_LE(cache.stats().bytes, cfg.capacity_bytes);

    // Touch 10 so 11 is the LRU tail, then overflow: 11 must go.
    ASSERT_TRUE(cache.lookup(10, 2, 2));
    cache.insert(12, 2, Image(), snapshotAt(enc, 2));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, cfg.capacity_bytes);
    EXPECT_TRUE(cache.lookup(10, 2, 2)) << "recently used survives";
    EXPECT_FALSE(cache.lookup(11, 2, 2)) << "LRU tail evicted";
    EXPECT_TRUE(cache.lookup(12, 2, 2));

    // Conservation: everything admitted is resident or evicted.
    const DecodeCacheStats s = cache.stats();
    EXPECT_EQ(s.insertions, s.entries + s.evictions + s.invalidations);
}

TEST(DecodeCache, OversizedEntryNeverAdmitted)
{
    const EncodedImage enc = encodeTest(32);
    DecodeCacheConfig cfg;
    cfg.require_second_hit = false;
    cfg.capacity_bytes = 16; // smaller than any real entry
    DecodeCache cache(cfg);
    cache.insert(1, 2, decodeProgressive(enc, 2), snapshotAt(enc, 2));
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().admission_rejects, 1u);
    EXPECT_EQ(cache.lookup(1, 0, enc.numScans()), nullptr);
}

TEST(DecodeCache, SecondHitAdmissionGatesOneHitWonders)
{
    const EncodedImage enc = encodeTest(33);
    DecodeCache cache; // require_second_hit defaults on
    cache.insert(1, 2, Image(), snapshotAt(enc, 2));
    EXPECT_EQ(cache.lookup(1, 2, 2), nullptr)
        << "first offer only registers the key";
    EXPECT_EQ(cache.stats().admission_rejects, 1u);

    cache.insert(1, 2, Image(), snapshotAt(enc, 2));
    EXPECT_TRUE(cache.lookup(1, 2, 2)) << "second offer admits";
    EXPECT_EQ(cache.stats().insertions, 1u);

    // Depths gate independently: a new depth for a hot id still waits
    // for its own second offer.
    cache.insert(1, 4, Image(), snapshotAt(enc, 4));
    EXPECT_EQ(cache.lookup(1, 4, 4), nullptr);

    // invalidate() forgets admission history: the replaced object's
    // first offer is a genuinely new key.
    cache.invalidate(1);
    EXPECT_EQ(cache.lookup(1, 2, 2), nullptr);
    cache.insert(1, 2, Image(), snapshotAt(enc, 2));
    EXPECT_EQ(cache.lookup(1, 2, 2), nullptr)
        << "history was dropped with the entries";
    cache.insert(1, 2, Image(), snapshotAt(enc, 2));
    EXPECT_TRUE(cache.lookup(1, 2, 2));
}

TEST(DecodeCache, PutInvalidatesThroughDecoratorStack)
{
    // The engine attaches the cache to the store's root(); a put()
    // through ANY decorator layer must drop the id's entries before a
    // stale snapshot can be resumed.
    ObjectStore base;
    const EncodedImage enc = encodeTest(34);
    base.put(1, enc);

    DecodeCacheConfig cfg;
    cfg.require_second_hit = false;
    DecodeCache cache(cfg);
    FaultyObjectStore faulty(base, FaultPolicy{});
    BreakerObjectStore store(faulty, BreakerConfig{});
    store.attachCache(&cache); // lands on root() == base

    cache.insert(1, 2, Image(), snapshotAt(enc, 2));
    cache.insert(1, 3, Image(), snapshotAt(enc, 3));
    cache.insert(2, 2, Image(), snapshotAt(enc, 2));
    ASSERT_TRUE(cache.lookup(1, 2, 3));

    store.put(1, encodeTest(35)); // through both decorators
    EXPECT_EQ(cache.lookup(1, 0, 99), nullptr)
        << "every depth for the replaced id must be gone";
    EXPECT_EQ(cache.stats().invalidations, 2u);
    EXPECT_TRUE(cache.lookup(2, 2, 2)) << "other ids untouched";

    store.detachCache(&cache);
    store.put(1, encodeTest(36));
    EXPECT_TRUE(cache.lookup(2, 2, 2))
        << "a detached cache no longer sees puts";
}

TEST(DecodeCache, ConcurrentHitEvictInvalidateConserves)
{
    // TSan-exercised: four threads race lookups, inserts and
    // invalidations on a cache sized to churn. Returned entries stay
    // usable after eviction/invalidation (immutability), and the
    // admitted-entry conservation identity holds at quiesce.
    const EncodedImage enc = encodeTest(37);
    size_t per_entry = 0;
    {
        DecodeCacheConfig probe;
        probe.require_second_hit = false;
        DecodeCache c(probe);
        c.insert(1, 2, Image(), snapshotAt(enc, 2));
        per_entry = c.stats().bytes;
    }
    DecodeCacheConfig cfg;
    cfg.require_second_hit = false;
    cfg.capacity_bytes = 3 * per_entry; // forces constant eviction
    DecodeCache cache(cfg);

    const DecoderSnapshot snap2 = snapshotAt(enc, 2);
    constexpr int kThreads = 4;
    constexpr int kIters = 128;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const uint64_t id =
                    static_cast<uint64_t>((t * kIters + i) % 8);
                cache.insert(id, 2, Image(), snap2);
                const DecodeCache::EntryPtr e =
                    cache.lookup(id, 1, enc.numScans());
                if (e) {
                    // The entry must stay intact however the cache
                    // churns underneath the reference.
                    EXPECT_EQ(e->depth, 2);
                    EXPECT_TRUE(e->snap.valid());
                }
                if (i % 16 == 0)
                    cache.invalidate(id);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    const DecodeCacheStats s = cache.stats();
    EXPECT_LE(s.bytes, cfg.capacity_bytes);
    EXPECT_EQ(s.insertions, s.entries + s.evictions + s.invalidations);
}

TEST(ReadStats, EmptyIsNeutral)
{
    ReadStats s;
    EXPECT_DOUBLE_EQ(s.relativeReadSize(), 1.0);
    EXPECT_DOUBLE_EQ(s.savings(), 0.0);
}

TEST(BandwidthModel, TransferTimeScalesWithBytes)
{
    BandwidthModel bw;
    EXPECT_GT(bw.transferSeconds(2'000'000),
              bw.transferSeconds(1'000'000));
    // Request latency dominates tiny transfers.
    EXPECT_NEAR(bw.transferSeconds(0, 1), bw.request_latency_s, 1e-12);
}

TEST(BandwidthModel, CostProportional)
{
    BandwidthModel bw{.dollars_per_gb = 0.05};
    EXPECT_NEAR(bw.transferCost(2e9), 0.10, 1e-9);
}

} // namespace
} // namespace tamres
