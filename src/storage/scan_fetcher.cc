#include "storage/scan_fetcher.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <thread>
#include <vector>

#include "util/error.hh"
#include "util/rng.hh"

namespace tamres {

// The hedge delay tracks this quantile of the last kLatencyWindow
// adopted read latencies.
constexpr double kDelayQuantile = 0.95;
constexpr int kLatencyWindow = 64;

/**
 * Executor for detached reads (NOT the fork-join ThreadPool: a waiter
 * blocks on each task, which would deadlock it). The destructor runs
 * every queued task before joining, so no waiter hangs on a drop.
 */
class ScanFetcher::IoPool
{
  public:
    explicit IoPool(int threads)
    {
        for (int i = 0; i < threads; ++i)
            workers_.emplace_back([this] { loop(); });
    }

    ~IoPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    void
    enqueue(std::function<void()> fn)
    {
        std::lock_guard<std::mutex> lock(mu_);
        tasks_.push_back(std::move(fn));
        cv_.notify_one();
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            cv_.wait(lock,
                     [&] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopping and fully drained
            std::function<void()> fn = std::move(tasks_.front());
            tasks_.pop_front();
            lock.unlock();
            fn();
            lock.lock();
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

ScanFetcher::ScanFetcher(ObjectStore &store,
                         const StagedRetryConfig &retry,
                         const HedgeConfig &hedge, Clock &clock,
                         int callers)
    : store_(&store), retry_(retry), hedge_(hedge), clock_(&clock),
      lat_(kLatencyWindow)
{
    // A hedge races a backup on the pool, and the timed-fetch bound
    // abandons a wedged read without abandoning the thread running it.
    if (hedge_.enable || retry_.stage_timeout_s > 0)
        pool_ = std::make_unique<IoPool>(
            hedge_.pool_threads > 0 ? hedge_.pool_threads : callers + 2);
}

ScanFetcher::~ScanFetcher() = default; // pool_ drains and joins first

void
ScanFetcher::stop()
{
    pool_.reset(); // drains queued reads, then joins
}

bool
ScanFetcher::fetch(ScanRead &read, EncodedImage &delivery,
                   ProgressiveDecoder &dec, int target, int read_to,
                   FetchReport &report)
{
    read_to = std::max(read_to, target);
    const double stage_end_s =
        retry_.stage_timeout_s > 0.0
            ? clock_->now() + retry_.stage_timeout_s
            : std::numeric_limits<double>::infinity();
    auto giveUp = [&] {
        // Leave only the clean prefix: whatever lies past it is a
        // partial or damaged scan the next call must refetch.
        delivery.bytes.resize(delivery.scan_offsets[dec.scansDecoded()]);
        ++report.giveups;
        return false;
    };
    // Decode every whole scan the buffer holds, up to the target;
    // false on a recoverable fault.
    auto decodeHeld = [&] {
        try {
            dec.advanceTo(std::min(
                dec.scansCoveredBy(delivery.bytes.size()), target));
        } catch (const Error &e) {
            // Decode: damage caught MID-SCAN after the checksum
            // passed, coefficient state unspecified. Cancelled: the
            // decoder's between-scan token check; the request is over.
            if (e.kind() == ErrorKind::Decode ||
                e.kind() == ErrorKind::Cancelled)
                throw;
            // Corrupt (checksum, verified BEFORE the scan decoded) and
            // Truncated leave the decoder clean: trim and refetch.
            ++report.faults;
            return false;
        }
        return true;
    };
    // Bytes an earlier call read ahead cost no store read.
    decodeHeld();
    for (int attempt = 0; dec.scansDecoded() < target; ++attempt) {
        if (read.heartbeat)
            read.heartbeat();
        // Client/deadline firings end the request (the caller maps
        // them to terminals); a watchdog firing gives up the clean
        // prefix without another attempt or a backoff sleep.
        const CancelReason cr = read.cancel->reason();
        if (cr == CancelReason::Client || cr == CancelReason::Deadline)
            read.cancel->throwIfFired();
        if (cr != CancelReason::None)
            return giveUp();
        if (attempt > 0) {
            if (attempt >= retry_.max_attempts)
                return giveUp();
            const double nominal = std::min(
                retry_.backoff_base_s * std::ldexp(1.0, attempt - 1),
                retry_.backoff_max_s);
            Rng rng(mix64(mix64(retry_.seed ^ read.id) ^
                          static_cast<uint64_t>(attempt)));
            const double backoff =
                nominal * (1.0 - retry_.jitter * rng.uniform());
            // A sleep that does not fit the deadline or the stage
            // budget is not taken: give up and degrade instead.
            if (backoff >= std::min(read.cancel->deadlineAbs(),
                                    stage_end_s) -
                               clock_->now())
                return giveUp();
            ++report.retries;
            if (backoff > 0.0)
                clock_->sleepFor(backoff);
        }

        // Trim to the last clean scan boundary: a faulted attempt may
        // have left damaged or partial trailing bytes behind.
        const int from = dec.scansDecoded();
        const size_t begin = delivery.scan_offsets[from];
        delivery.bytes.resize(begin);
        try {
            if (pool_)
                pooledFetch(read, from, read_to, delivery.bytes,
                            stage_end_s, report);
            else
                store_->fetchScanRange(read.id, from, read_to,
                                       delivery.bytes,
                                       !read.charged_full, SIZE_MAX,
                                       read.cancel);
        } catch (const Error &e) {
            // Meter on every outcome: a store appends (and meters)
            // whole chunks before a cancellation makes it throw.
            report.bytes += delivery.bytes.size() - begin;
            if (e.kind() != ErrorKind::Transient)
                throw; // NotFound and friends: not retryable here
            ++report.faults;
            // An Open breaker refuses every retry until its cooldown
            // ends; backing off would only burn deadline.
            if (e.failFast())
                return giveUp();
            continue;
        }
        report.bytes += delivery.bytes.size() - begin;
        if (from == 0)
            read.charged_full = true;
        if (!decodeHeld())
            continue;
        // A short delivery (a truncated read): the next attempt, or
        // the next call when the target decoded, refetches the tail.
        if (delivery.bytes.size() < delivery.scan_offsets[read_to])
            ++report.faults;
    }
    return true;
}

/**
 * One read of scans [from, to) on the I/O pool, appended to @p dst
 * when adopted. The per-read token lives in the shared FetchState —
 * NOT chained to the request token — so an abandoned task never
 * touches request memory. A backup never charges the full-read
 * denominator, so bytes_full can undercount when a from == 0 primary
 * fails after its backup won: the conservative direction.
 */
void
ScanFetcher::pooledFetch(ScanRead &read, int from, int to,
                         std::vector<uint8_t> &dst, double stage_end_s,
                         FetchReport &report)
{
    const size_t begin = dst.size();

    struct FetchState
    {
        std::mutex mu;
        std::condition_variable cv;
        int pending = 0;
        bool winner = false;
        bool winner_is_backup = false;
        std::vector<uint8_t> win_buf;
        std::exception_ptr first_error;
        CancelToken cancel; //!< per-read; fired only on abandonment
    };
    auto state = std::make_shared<FetchState>();

    auto launch = [&](bool is_backup) { // state->mu held
        ++state->pending;
        pool_->enqueue([this, state, is_backup, begin, id = read.id,
                        from, to,
                        charge = !is_backup && !read.charged_full] {
            // fetchScanRange only requires dst.size() ==
            // scan_offsets[from]; the prefix content is never read.
            std::vector<uint8_t> buf(begin);
            std::exception_ptr err;
            try {
                store_->fetchScanRange(id, from, to, buf, charge,
                                       SIZE_MAX, &state->cancel);
            } catch (...) {
                err = std::current_exception();
            }
            if (is_backup)
                --hedges_inflight_;
            const size_t grown = buf.size() - begin;
            bool adopted = false;
            {
                std::lock_guard<std::mutex> lock(state->mu);
                --state->pending;
                if (err) {
                    if (!state->first_error)
                        state->first_error = err;
                } else if (!state->winner && !state->cancel.cancelled()) {
                    adopted = true;
                    state->winner = true;
                    state->winner_is_backup = is_backup;
                    state->win_buf = std::move(buf);
                }
            }
            if (!adopted)
                detached_bytes_ += grown;
            state->cv.notify_all();
        });
    };

    // Hedge delay: the tracked latency quantile, clamped, and
    // bootstrapped at the ceiling until there is enough evidence.
    double delay = hedge_.max_delay_s;
    if (hedge_.enable) {
        std::lock_guard<std::mutex> lock(lat_mu_);
        if (lat_.count() >= 8)
            delay = std::clamp(lat_.quantile(kDelayQuantile),
                               hedge_.min_delay_s, hedge_.max_delay_s);
    }

    // Short cv waits observe request-token firings and the abandonment
    // bound within milliseconds even when the read never settles.
    constexpr double kSliceS = 2e-3;

    // The stage budget left at launch (+inf without one), enforced on
    // the WALL clock: a wedged read advances no injectable clock.
    // Every read gets one slice, so a fast read can win a spent budget.
    const double abandon_after =
        std::max(kSliceS, stage_end_s - clock_->now());

    const double t0 = Clock::steady().now();
    std::unique_lock<std::mutex> lock(state->mu);
    launch(/*is_backup=*/false);
    bool hedge_spent = false;
    auto settled = [&] { return state->winner || state->pending == 0; };
    while (!settled()) {
        const CancelReason cr = read.cancel->reason();
        const double waited = Clock::steady().now() - t0;
        if (cr != CancelReason::None || waited >= abandon_after) {
            // Abandon: fire the read's token (a wedged store read
            // polls it and unwinds) and leave WITHOUT waiting for it.
            state->cancel.cancel(cr != CancelReason::None
                                     ? cr
                                     : CancelReason::Abandoned);
            lock.unlock();
            state->cv.notify_all();
            ++report.abandoned;
            if (cr != CancelReason::None)
                read.cancel->throwIfFired();
            throwError(ErrorKind::Transient,
                       "timed fetch: read of object %llu scans "
                       "[%d, %d) abandoned after %.3fs",
                       static_cast<unsigned long long>(read.id), from,
                       to, waited);
        }
        double next = std::min(kSliceS, abandon_after - waited);
        if (hedge_.enable && !hedge_spent &&
            read.hedges < hedge_.max_per_request) {
            const double until_hedge = delay - waited;
            if (until_hedge <= 0.0) {
                // Slow past the hedge delay: spend ONE backup if the
                // in-flight budget allows it.
                hedge_spent = true;
                if (hedges_inflight_++ >= hedge_.inflight_budget) {
                    --hedges_inflight_;
                    continue; // budget refused; keep waiting unhedged
                }
                ++read.hedges;
                ++report.hedges;
                launch(/*is_backup=*/true);
                continue;
            }
            next = std::min(next, until_hedge);
        }
        state->cv.wait_for(lock,
                           std::chrono::duration<double>(
                               std::max(next, 1e-4)),
                           settled);
    }

    if (!state->winner) {
        // Nothing was abandoned, so every read settled with an error.
        const std::exception_ptr err = state->first_error;
        lock.unlock();
        std::rethrow_exception(err);
    }
    const bool backup_won = state->winner_is_backup;
    const std::vector<uint8_t> win_buf = std::move(state->win_buf);
    lock.unlock();

    dst.insert(dst.end(),
               win_buf.begin() + static_cast<ptrdiff_t>(begin),
               win_buf.end());
    if (hedge_.enable) {
        std::lock_guard<std::mutex> lk(lat_mu_);
        lat_.record(Clock::steady().now() - t0);
    }
    if (backup_won)
        ++report.hedge_wins;
}

} // namespace tamres
