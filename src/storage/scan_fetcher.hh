/**
 * @file
 * ScanFetcher: the storage-read policy of a staged request. One
 * fetch() drives a resumable ProgressiveDecoder to a DECODE target
 * scan count by fetching bytes from an ObjectStore into the request's
 * delivery buffer (EncodedImage::headerCopy() plus fetched bytes), so
 * storage faults damage only that copy. StagedServingEngine calls it
 * once per fetch stage: stage 1 (preview) and stage 4 (remaining
 * scans).
 *
 * Read target vs decode target: a read may run past the decode
 * target (stage 1 reads every scan any decision will need, but
 * decodes only the preview). The scans past the decode target stay
 * HELD in the buffer, undecoded; the next fetch() decodes held bytes
 * first and goes to the store only for what they do not cover — not
 * at all when they cover its decode target.
 *
 * Retry: recoverable faults (Transient / Truncated / Corrupt, the last
 * caught by the per-scan checksum BEFORE the damaged scan decodes) are
 * retried with deadline-charged backoff (StagedRetryConfig). Each
 * attempt first trims the buffer to the last clean scan boundary, so
 * it refetches only the missing tail; held bytes that fail their
 * checksum are trimmed and refetched the same way. When the budget
 * runs out, or at once on an Error::failFast() fault (an Open
 * breaker), the call gives up and the decoder and buffer hold a clean
 * prefix. NotFound, mid-scan Decode damage and client/deadline
 * cancellation propagate.
 *
 * Hedged reads (HedgeConfig) and timed fetches (stage_timeout_s) run
 * every read on a small I/O pool, so the caller can race a backup or
 * walk away from a wedged read, as it also does when the request
 * token fires. With neither on, the store is called directly.
 *
 * Metering: every outcome meters the bytes it moved. Delivery-buffer
 * growth, bytes a store appended before throwing included, is
 * FetchReport::bytes; a pool read nobody adopted (hedge loser,
 * abandoned or failed read) adds its bytes to detachedBytes() when it
 * settles. The two sum to the store's ReadStats::bytes_read.
 *
 * Why not an ObjectStore decorator: Corrupt is caught by the decoder's
 * checksum after delivery, so the retry loop has to drive the decoder;
 * and fetchScanRange cannot carry per-request retry and hedge counts.
 */

#ifndef TAMRES_STORAGE_SCAN_FETCHER_HH
#define TAMRES_STORAGE_SCAN_FETCHER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "codec/progressive.hh"
#include "storage/object_store.hh"
#include "util/cancel.hh"
#include "util/clock.hh"
#include "util/windowed.hh"

namespace tamres {

/**
 * Deadline-aware retry policy for storage fetch faults. Attempt n
 * (n >= 1 retries) sleeps
 *   min(backoff_base_s * 2^(n-1), backoff_max_s) * f,
 * where f is a deterministic jitter factor in [1 - jitter, 1] drawn
 * from (seed, object id, attempt). A backoff that does not fit the
 * remaining deadline or stage budget is not slept: the call gives up.
 */
struct StagedRetryConfig
{
    int max_attempts = 3;          //!< total tries per fetch stage
    double backoff_base_s = 1e-3;  //!< first retry's nominal sleep
    double backoff_max_s = 50e-3;  //!< exponential backoff ceiling
    double jitter = 0.5;           //!< fractional jitter span [0, 1)
    uint64_t seed = 0x5eed;        //!< jitter determinism

    /**
     * Per-stage fetch budget in seconds (0 = none). It bounds retry
     * backoff, and a pool read still in flight when it lapses is
     * ABANDONED: its token fires (waking a wedged read), it counts in
     * FetchReport::abandoned, and the give-up is a breaker-counted
     * Transient. Budget time comes from the fetcher's clock; the
     * in-flight bound is wall-clock, like hedge timing.
     */
    double stage_timeout_s = 0;
};

/**
 * Hedged-read policy (Dean's tail-at-scale move). A read in flight
 * longer than the hedge delay — the 0.95 quantile of the last 64
 * adopted read latencies, clamped to [min_delay_s, max_delay_s] and
 * bootstrapped at max_delay_s — races ONE backup for the same range;
 * the first success is adopted. max_per_request and inflight_budget
 * bound the extra traffic so a sick store cannot amplify load. Hedge
 * timing is wall-clock by design (it races real threads).
 */
struct HedgeConfig
{
    bool enable = false;
    double min_delay_s = 1e-3;    //!< hedge-delay floor
    double max_delay_s = 0.1;     //!< hedge-delay ceiling + bootstrap
    int max_per_request = 1;      //!< backup fetches per request
    int inflight_budget = 4;      //!< global concurrent backup cap
    int pool_threads = 0;         //!< 0 = callers + 2
};

/** What one ScanFetcher::fetch() call did; the caller meters it. */
struct FetchReport
{
    size_t bytes = 0;   //!< delivery-buffer growth, on every outcome
    int retries = 0;    //!< attempts beyond the first
    int hedges = 0;     //!< backup fetches issued
    int hedge_wins = 0; //!< backups adopted over the primary
    int faults = 0;     //!< recoverable faults observed
    int giveups = 0;    //!< 1 when the call gave up short of target
    int abandoned = 0;  //!< in-flight reads abandoned
};

/** One request's read, shared by its fetch stages. */
struct ScanRead
{
    uint64_t id = 0;                     //!< object being read
    /** Request token, required; its deadline bounds retry backoff. */
    const CancelToken *cancel = nullptr;
    std::function<void()> heartbeat;     //!< once per attempt; optional
    bool charged_full = false; //!< full-read denominator charged
    int hedges = 0;            //!< backups spent (max_per_request)
};

/** Retry, hedging and timed abandonment for ranged scan reads. */
class ScanFetcher
{
  public:
    /**
     * @p store and @p clock (deadlines, backoff) outlive the fetcher;
     * @p callers, the threads calling fetch() concurrently, sizes the
     * I/O pool when HedgeConfig::pool_threads is 0.
     */
    ScanFetcher(ObjectStore &store, const StagedRetryConfig &retry,
                const HedgeConfig &hedge, Clock &clock, int callers);

    ~ScanFetcher();

    ScanFetcher(const ScanFetcher &) = delete;
    ScanFetcher &operator=(const ScanFetcher &) = delete;

    /**
     * Decode until @p dec (bound to @p delivery) holds @p target
     * scans; false when it gave up. Held bytes decode first; a store
     * read, when one is needed, covers scans up to
     * max(@p target, @p read_to), and what it delivers past @p target
     * stays held for the next call. @p report is filled on every
     * outcome, throws included. Safe from concurrent callers.
     */
    bool fetch(ScanRead &read, EncodedImage &delivery,
               ProgressiveDecoder &dec, int target, int read_to,
               FetchReport &report);

    /** Bytes delivered by pool reads nobody adopted (see file docs). */
    uint64_t detachedBytes() const { return detached_bytes_.load(); }

    /** Finish queued pool reads and join; no fetch() may follow. */
    void stop();

  private:
    class IoPool;

    void pooledFetch(ScanRead &read, int from, int to,
                     std::vector<uint8_t> &dst, double stage_end_s,
                     FetchReport &report);

    ObjectStore *store_;
    StagedRetryConfig retry_;
    HedgeConfig hedge_;
    Clock *clock_;

    std::mutex lat_mu_;      //!< guards lat_ only
    QuantileWindow lat_;     //!< wall-clock latencies of adopted reads
    std::atomic<int> hedges_inflight_{0};
    std::atomic<uint64_t> detached_bytes_{0};
    std::unique_ptr<IoPool> pool_; //!< null when neither is on
};

} // namespace tamres

#endif // TAMRES_STORAGE_SCAN_FETCHER_HH
