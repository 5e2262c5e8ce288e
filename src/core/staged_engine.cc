#include "core/staged_engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "util/error.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace tamres {

namespace {

/** splitmix64 finalizer for deterministic backoff jitter. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** This thread's watchdog slot (-1 on non-decode-worker threads). */
thread_local int tls_wd_slot = -1;

} // namespace

/**
 * Tiny dedicated executor for detached storage I/O — hedged fetches
 * and timed (abandonable) fetches. Deliberately NOT the fork-join
 * ThreadPool: these tasks are independent fire-and-forget I/O calls
 * whose waiter blocks on a condition variable, which would deadlock a
 * fork-join pool. The destructor runs every task already enqueued
 * before joining, so a fetch waiter can never hang on a dropped task.
 */
class StagedServingEngine::IoPool
{
  public:
    explicit IoPool(int threads)
    {
        workers_.reserve(static_cast<size_t>(threads));
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
        {
            std::lock_guard<std::mutex> lock(mu_);
            tasks_.push_back(std::move(fn));
        }
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

StagedServingEngine::StagedServingEngine(ObjectStore &store,
                                         const ScaleModel &scale,
                                         Graph *backbone,
                                         StagedEngineConfig config)
    : store_(&store), scale_(&scale), backbone_(backbone),
      cfg_(std::move(config)),
      clock_(cfg_.overload.clock ? cfg_.overload.clock
                                 : &Clock::steady()),
      epoch_s_(clock_->now()),
      hedge_lat_(std::max(1, cfg_.overload.hedge.latency_window)),
      ladder_(cfg_.ladder, cfg_.overload.quality_window, *clock_)
{
    tamres_assert(cfg_.decode_workers >= 1,
                  "staged engine needs >= 1 decode worker");
    tamres_assert(cfg_.decode_batch >= 1, "decode_batch must be >= 1");
    tamres_assert(cfg_.queue_capacity >= 1,
                  "queue_capacity must be >= 1");
    tamres_assert(!scale_->resolutions().empty(),
                  "scale model has no resolution grid");
    tamres_assert(cfg_.backbone.ladder.empty(),
                  "the staged ladder is the only shedding controller: "
                  "the backbone ladder must be empty");

    stats_.resolution_hist.assign(scale_->resolutions().size(), 0);
    if (backbone_)
        inner_ = std::make_unique<ServingEngine>(*backbone_,
                                                 cfg_.backbone);
    // The I/O pool exists whenever a fetch may need to be waited on
    // from a distance: hedged reads race a backup on it, and the
    // timed-fetch bound (stage_timeout_s) must be able to abandon a
    // wedged read without abandoning the thread running it.
    if (cfg_.overload.hedge.enable || cfg_.retry.stage_timeout_s > 0) {
        const int threads = cfg_.overload.hedge.pool_threads > 0
                                ? cfg_.overload.hedge.pool_threads
                                : cfg_.decode_workers + 2;
        io_pool_ = std::make_unique<IoPool>(threads);
    }
    if (cfg_.overload.watchdog.enable) {
        Watchdog::Config wc;
        wc.liveness_budget_s = cfg_.overload.watchdog.liveness_budget_s;
        wc.poll_interval_s = cfg_.overload.watchdog.poll_interval_s;
        wc.clock = clock_;
        watchdog_ = std::make_unique<Watchdog>(
            wc, [this](const WatchdogReport &r) { onWatchdogFlag(r); });
    }

    threads_.reserve(cfg_.decode_workers);
    for (int i = 0; i < cfg_.decode_workers; ++i)
        threads_.emplace_back([this] { decodeLoop(); });
}

StagedServingEngine::~StagedServingEngine()
{
    stop();
}

double
StagedServingEngine::now() const
{
    return clock_->now() - epoch_s_;
}

bool
StagedServingEngine::submit(StagedRequest &req)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.admitted;
    // A non-admitting tier: the ladder has concluded the system
    // cannot finish the work it already holds — refuse new work with
    // a typed terminal the caller can distinguish from a full queue.
    if (!ladder_.select(static_cast<int>(queue_.size())).admit) {
        req.latency_s = 0.0;
        req.state.store(static_cast<int>(StagedState::Rejected),
                        std::memory_order_release);
        accountTerminalLocked(req, StagedState::Rejected);
        done_cv_.notify_all();
        return false;
    }
    if (stopping_ ||
        queue_.size() >= static_cast<size_t>(cfg_.queue_capacity)) {
        req.state.store(static_cast<int>(StagedState::Shed),
                        std::memory_order_release);
        accountTerminalLocked(req, StagedState::Shed);
        done_cv_.notify_all();
        return false;
    }
    req.submit_s_ = now();
    // Arm the lifecycle token: explicit cancel() and the watchdog
    // fire it by hand; the deadline fires it lazily on the engine
    // clock (absolute, in raw clock units — NOT epoch-relative).
    req.cancel_.reset();
    if (req.deadline_s > 0.0)
        req.cancel_.armDeadline(*clock_, clock_->now() + req.deadline_s);
    req.resolution = 0;
    req.resolution_index = 0;
    req.preview_scans = 0;
    req.scans_read = 0;
    req.scans_intended = 0;
    req.bytes_read = 0;
    req.retries = 0;
    req.hedges = 0;
    req.decode_s = 0.0;
    req.latency_s = 0.0;
    req.state.store(static_cast<int>(StagedState::Queued),
                    std::memory_order_release);
    queue_.push_back(&req);
    work_cv_.notify_one();
    return true;
}

void
StagedServingEngine::wait(StagedRequest &req)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait(lock, [&] {
            return req.stateNow() != StagedState::Queued;
        });
    }
    if (req.stateNow() == StagedState::Submitted) {
        inner_->wait(req.infer);
        finalize(req);
    }
}

void
StagedServingEngine::cancel(StagedRequest &req)
{
    req.cancel_.cancel(CancelReason::Client);
    // The token is polled cooperatively: workers parked on fetch
    // waits slice-poll it, wedged store reads poll it, and a queued
    // request observes it at formation when a worker picks it up.
    work_cv_.notify_all();
}

void
StagedServingEngine::finalize(StagedRequest &req)
{
    // Single-finalizer contract (see wait() docs): fields are written
    // before the terminal state store, after which the owner may free
    // the request.
    StagedState terminal = StagedState::Shed;
    switch (req.infer.stateNow()) {
      case RequestState::Done:
        // A backbone serve of a degraded decode stays degraded: the
        // output is valid but was computed from fewer scans than the
        // decision intended.
        terminal = req.scans_read < req.scans_intended
                       ? StagedState::Degraded
                       : StagedState::Done;
        break;
      case RequestState::Expired:
        terminal = StagedState::Expired;
        break;
      case RequestState::Failed:
        terminal = StagedState::Failed;
        break;
      default: break;
    }
    req.latency_s = req.decode_s + req.infer.latency_s;
    req.state.store(static_cast<int>(terminal),
                    std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(mu_);
        accountTerminalLocked(req, terminal);
    }
}

void
StagedServingEngine::accountTerminalLocked(const StagedRequest &req,
                                           StagedState terminal)
{
    switch (terminal) {
      case StagedState::Done: ++stats_.done; break;
      case StagedState::Degraded: ++stats_.degraded; break;
      case StagedState::Failed: ++stats_.failed; break;
      case StagedState::Expired: ++stats_.expired; break;
      case StagedState::Shed: ++stats_.shed_admission; break;
      case StagedState::Rejected: ++stats_.rejected; break;
      case StagedState::Cancelled: ++stats_.cancelled; break;
      default: break;
    }

    // Refusals (the controller's own output) and client hangups are
    // no pressure evidence; they only tick the controller, which lets
    // a non-admitting tier recover.
    if (terminal == StagedState::Rejected ||
        terminal == StagedState::Cancelled)
        ladder_.tick();
    else
        ladder_.record(terminal == StagedState::Done, req.latency_s,
                       req.deadline_s);
}

void
StagedServingEngine::drain()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait(lock, [&] {
            return queue_.empty() && active_decoders_ == 0;
        });
    }
    if (inner_)
        inner_->drain();
}

void
StagedServingEngine::stop()
{
    // Serialized end to end so only one caller tears down the I/O
    // pool, and only after the decode workers that feed it have
    // joined (their in-flight fetch tasks must be allowed to settle).
    std::lock_guard<std::mutex> stop_lock(stop_mu_);
    std::vector<std::thread> joinable;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        joinable.swap(threads_);
    }
    work_cv_.notify_all();
    done_cv_.notify_all();
    for (auto &t : joinable)
        t.join();
    if (watchdog_)
        watchdog_->stop(); // workers are gone; nothing left to flag
    io_pool_.reset(); // drains queued fetch tasks, then joins
    if (inner_)
        inner_->stop();
}

StagedStats
StagedServingEngine::stats() const
{
    // One critical section copies the whole counter struct, so every
    // field in a snapshot is mutually consistent (no field-at-a-time
    // stitching while workers mutate). The live-state fields are
    // filled in afterwards from their own sources.
    StagedStats s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s = stats_;
        s.decode_queue_depth = static_cast<int>(queue_.size());
    }
    s.ladder = ladder_.stats();
    if (cfg_.cache)
        s.cache = cfg_.cache->stats();
    if (inner_)
        s.backbone = inner_->stats();
    return s;
}

void
StagedServingEngine::decodeLoop()
{
    std::vector<StagedRequest *> batch;
    batch.reserve(cfg_.decode_batch);

    if (watchdog_) {
        tls_wd_slot = watchdog_->registerWorker();
        std::lock_guard<std::mutex> wlock(wd_mu_);
        if (worker_current_.size() <=
            static_cast<size_t>(tls_wd_slot))
            worker_current_.resize(
                static_cast<size_t>(tls_wd_slot) + 1, nullptr);
    }

    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock,
                      [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }

        // Per-stage batching: drain up to decode_batch requests in
        // one wakeup, then process them back to back outside the
        // lock. The depth reported to the ladder counts waiting
        // AND in-hand requests — the same "load at formation time"
        // the flat engine's ladder sees.
        batch.clear();
        while (!queue_.empty() &&
               batch.size() < static_cast<size_t>(cfg_.decode_batch)) {
            batch.push_back(queue_.front());
            queue_.pop_front();
        }
        const int depth = static_cast<int>(queue_.size()) +
                          static_cast<int>(batch.size());

        ++active_decoders_;
        lock.unlock();
        for (StagedRequest *req : batch)
            processOne(*req, depth);
        if (watchdog_)
            watchdog_->idle(tls_wd_slot); // parked != stuck
        lock.lock();
        --active_decoders_;
        done_cv_.notify_all();
    }
}

void
StagedServingEngine::markTerminal(StagedRequest &req, StagedState state)
{
    // Unpublish from the watchdog registry BEFORE the terminal store:
    // the instant the owner's wait() can return, the request may be
    // freed, and onWatchdogFlag dereferences worker_current_ entries
    // under wd_mu_ — this ordering is what makes that safe.
    if (watchdog_ && tls_wd_slot >= 0) {
        std::lock_guard<std::mutex> wlock(wd_mu_);
        worker_current_[static_cast<size_t>(tls_wd_slot)] = nullptr;
    }
    req.latency_s = now() - req.submit_s_;
    req.state.store(static_cast<int>(state),
                    std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(mu_);
        accountTerminalLocked(req, state);
    }
    done_cv_.notify_all();
}

void
StagedServingEngine::processOne(StagedRequest &req, int depth)
{
    // Fault containment boundary: everything a bad object, missing id
    // or poisoned byte stream can throw is request-scoped. The worker
    // survives, the batch continues, the request terminates Failed.
    try {
        processOneImpl(req, depth);
    } catch (const Error &e) {
        // Backstop for a Cancelled error that escaped stage-level
        // handling: terminate by the reason that fired the token.
        if (e.kind() == ErrorKind::Cancelled) {
            markTerminal(req,
                         req.cancel_.reason() == CancelReason::Client
                             ? StagedState::Cancelled
                             : StagedState::Expired);
            return;
        }
        warn("staged request %llu failed: %s",
             static_cast<unsigned long long>(req.id), e.what());
        markTerminal(req, StagedState::Failed);
    } catch (const std::exception &e) {
        warn("staged request %llu failed: %s",
             static_cast<unsigned long long>(req.id), e.what());
        markTerminal(req, StagedState::Failed);
    }
}

void
StagedServingEngine::heartbeat(StagedRequest &req, const char *phase)
{
    if (!watchdog_ || tls_wd_slot < 0)
        return;
    {
        std::lock_guard<std::mutex> wlock(wd_mu_);
        worker_current_[static_cast<size_t>(tls_wd_slot)] = &req;
    }
    watchdog_->beat(tls_wd_slot, phase, req.id);
}

void
StagedServingEngine::onWatchdogFlag(const WatchdogReport &report)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.watchdog_flags;
    }
    // Holding wd_mu_ pins the request: workers unpublish (under
    // wd_mu_) before the terminal store that lets owners free it.
    // Diagnostics stick to fields that are immutable after submit
    // (id) or atomic (state) — the worker may be mutating the rest.
    std::lock_guard<std::mutex> wlock(wd_mu_);
    StagedRequest *req = nullptr;
    if (report.worker >= 0 &&
        report.worker < static_cast<int>(worker_current_.size()))
        req = worker_current_[static_cast<size_t>(report.worker)];
    if (req == nullptr) {
        warn("watchdog: worker %d silent %.3fs in phase '%s' "
             "(request already retired)",
             report.worker, report.silent_s, report.phase);
        return;
    }
    warn("watchdog: worker %d silent %.3fs in phase '%s' — "
         "fail-fasting request %llu (state %d)",
         report.worker, report.silent_s, report.phase,
         static_cast<unsigned long long>(req->id),
         static_cast<int>(req->stateNow()));
    req->cancel_.cancel(CancelReason::Watchdog);
}

/**
 * Drive the resumable decoder to @p target scans, fetching delivery
 * bytes with deadline-aware retries. Returns true when the target was
 * reached; false when the retry budget (attempt cap, backoff vs.
 * remaining deadline, or stage timeout) ran out — the decoder then
 * holds a clean prefix at scansDecoded() and the caller degrades.
 * Unrecoverable faults (NotFound, mid-scan Decode damage) propagate.
 */
bool
StagedServingEngine::fetchScansWithRetry(StagedRequest &req,
                                         EncodedImage &delivery,
                                         ProgressiveDecoder &dec,
                                         int target, size_t &bytes,
                                         bool &charged_full,
                                         double stage_start_s)
{
    const StagedRetryConfig &rc = cfg_.retry;
    int attempt = 0;
    while (dec.scansDecoded() < target) {
        heartbeat(req, "fetch");
        // Cancellation gate per attempt: client/deadline firings end
        // the request (the caller maps them to terminals); a watchdog
        // or abandonment firing degrades it — give the clean prefix
        // up without another attempt or a backoff sleep.
        const CancelReason cr = req.cancel_.reason();
        if (cr == CancelReason::Client || cr == CancelReason::Deadline)
            req.cancel_.throwIfFired();
        if (cr != CancelReason::None) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.retry_giveups;
            return false;
        }
        if (attempt > 0) {
            if (attempt >= rc.max_attempts) {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.retry_giveups;
                return false;
            }
            // Exponential backoff with deterministic jitter in
            // [1 - jitter, 1], charged against the deadline AND the
            // stage timeout: a sleep that does not fit the remaining
            // budget is not taken — give up and degrade instead.
            const double nominal =
                std::min(rc.backoff_base_s * std::ldexp(1.0, attempt - 1),
                         rc.backoff_max_s);
            Rng rng(mix64(mix64(rc.seed ^ req.id) ^
                          static_cast<uint64_t>(attempt)));
            const double backoff =
                nominal * (1.0 - rc.jitter * rng.uniform());
            double budget = std::numeric_limits<double>::infinity();
            if (req.deadline_s > 0.0)
                budget = req.submit_s_ + req.deadline_s - now();
            if (rc.stage_timeout_s > 0.0)
                budget = std::min(
                    budget, stage_start_s + rc.stage_timeout_s - now());
            if (backoff >= budget) {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.retry_giveups;
                return false;
            }
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.retries;
            }
            ++req.retries;
            if (backoff > 0.0)
                clock_->sleepFor(backoff);
        }
        ++attempt;

        // Re-establish the delivery invariant before every fetch: the
        // buffer ends exactly at the last cleanly decoded scan
        // boundary (a faulted attempt may have left damaged or
        // partial trailing bytes behind).
        const int from = dec.scansDecoded();
        delivery.bytes.resize(delivery.scan_offsets[from]);
        try {
            bytes += guardedFetch(req, from, target, delivery,
                                  !charged_full, stage_start_s);
            if (from == 0)
                charged_full = true;
        } catch (const Error &e) {
            if (e.kind() != ErrorKind::Transient)
                throw; // NotFound and friends: not retryable here
            if (e.failFast()) {
                // A circuit breaker is refusing fetches: every retry
                // would fail the same way until its cooldown expires,
                // so backing off only burns deadline the request
                // could spend degrading gracefully. Give up NOW.
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.fetch_faults;
                ++stats_.retry_giveups;
                return false;
            }
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.fetch_faults;
            continue;
        }
        try {
            dec.advanceWithBytes(delivery.bytes.size());
        } catch (const Error &e) {
            // Decode means the damage was caught MID-SCAN (entropy
            // stream violated after the checksum passed): coefficient
            // state is unspecified, the request cannot be saved.
            // Cancelled is the decoder's between-scan token check
            // (client/deadline): the prefix is clean, but the request
            // is over — propagate to the terminal mapping.
            if (e.kind() == ErrorKind::Decode ||
                e.kind() == ErrorKind::Cancelled)
                throw;
            // Corrupt (checksum or side tables, verified BEFORE the
            // scan decoded) and Truncated leave the decoder clean at
            // the previous boundary: trim and refetch.
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.fetch_faults;
            continue;
        }
        if (dec.scansDecoded() < target) {
            // The advance was clean but the delivery was short (an
            // injected truncated read): refetch the missing tail.
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.fetch_faults;
        }
    }
    return true;
}

/**
 * One physical ranged fetch for scans [from, target) appended to the
 * delivery buffer, guarded by the containment machinery:
 *
 *  - Hedging (when configured): the primary runs as a task on the
 *    I/O pool; if it outlives the tracked hedge delay, ONE backup
 *    fetch for the same range races it and the first success is
 *    adopted.
 *  - Timed-fetch bound (stage_timeout_s > 0): a read still in flight
 *    when the stage budget lapses is ABANDONED — the waiter fires
 *    the fetch's own cancellation token (waking a wedged read),
 *    counts reads_abandoned, and throws Transient into the retry
 *    ladder. The abandoning worker moves on immediately; the task
 *    settles on its own and is discarded.
 *  - Request-token polling: client cancels, deadline expiry and
 *    watchdog flags are observed mid-wait even when the read itself
 *    is wedged, and abandon the read the same way.
 *
 * Discarded fetches still meter: a loser or late completion charges
 * its delivered bytes to bytes_read when it settles (honest
 * metering; the store meters its own deliveries too), and a fetch
 * whose token fired stops at the next delivery chunk without ever
 * charging the bytes_full denominator. The per-fetch token lives
 * inside the shared FetchState — NOT chained to the request token —
 * so an abandoned task never touches request memory after the engine
 * has moved on. Throws the first error when every attempt fails. The
 * backup never charges the full-read denominator, so bytes_full can
 * undercount in the rare case where the primary of a from == 0 range
 * fails after its backup won — the conservative direction for
 * savings numbers.
 */
size_t
StagedServingEngine::guardedFetch(StagedRequest &req, int from,
                                  int target, EncodedImage &delivery,
                                  bool charge_full,
                                  double stage_start_s)
{
    if (!io_pool_)
        return store_->fetchScanRange(req.id, from, target,
                                      delivery.bytes, charge_full,
                                      SIZE_MAX, &req.cancel_);

    const HedgeConfig &hc = cfg_.overload.hedge;
    const size_t begin = delivery.bytes.size();

    struct FetchState
    {
        std::mutex mu;
        std::condition_variable cv;
        int pending = 0;
        bool winner = false;
        bool winner_is_backup = false;
        bool abandoned = false;
        std::vector<uint8_t> win_buf;
        size_t win_got = 0;
        std::exception_ptr first_error;
        CancelToken cancel; //!< per-fetch; waiter mirrors firings in
    };
    auto state = std::make_shared<FetchState>();

    auto launch = [&](bool is_backup) {
        {
            std::lock_guard<std::mutex> lock(state->mu);
            ++state->pending;
        }
        io_pool_->enqueue([this, state, is_backup, begin,
                           id = req.id, from, target,
                           charge = is_backup ? false
                                              : charge_full] {
            // Scratch delivery prefix: fetchScanRange only requires
            // dst.size() == scan_offsets[from]; the prefix content is
            // never read, only appended after.
            std::vector<uint8_t> buf(begin);
            size_t got = 0;
            std::exception_ptr err;
            try {
                got = store_->fetchScanRange(id, from, target, buf,
                                             charge, SIZE_MAX,
                                             &state->cancel);
            } catch (...) {
                err = std::current_exception();
            }
            if (is_backup)
                hedges_inflight_.fetch_sub(
                    1, std::memory_order_relaxed);
            bool lost_success = false;
            {
                std::lock_guard<std::mutex> lock(state->mu);
                --state->pending;
                if (err) {
                    if (!state->first_error)
                        state->first_error = err;
                } else if (!state->winner && !state->abandoned) {
                    state->winner = true;
                    state->winner_is_backup = is_backup;
                    state->win_buf = std::move(buf);
                    state->win_got = got;
                } else {
                    lost_success = true;
                }
            }
            if (lost_success && got > 0) {
                std::lock_guard<std::mutex> lock(mu_);
                stats_.bytes_read += got; // a discarded fetch still moved bytes
            }
            state->cv.notify_all();
        });
    };

    // Hedge delay: the tracked latency quantile, clamped, and
    // bootstrapped at the ceiling until there is enough evidence.
    // Wall-clock on purpose — hedging races real threads.
    const bool may_hedge = hc.enable;
    double delay = hc.max_delay_s;
    if (may_hedge) {
        std::lock_guard<std::mutex> lock(hedge_mu_);
        if (hedge_lat_.count() >= 8)
            delay = std::clamp(hedge_lat_.quantile(hc.delay_quantile),
                               hc.min_delay_s, hc.max_delay_s);
    }

    // Slice-polling cadence: short cv waits so request-token firings
    // and the abandonment bound are observed within milliseconds even
    // when the read never settles.
    constexpr double kSliceS = 2e-3;

    // Timed-fetch bound: the stage budget's remaining time, measured
    // on the engine clock at launch, enforced below on the WALL clock
    // while the read is in flight (a wedged read advances no
    // injectable clock — same documented exception as hedge timing).
    // Every read gets at least one slice so a fast read can win even
    // with the budget nearly spent.
    double abandon_after = std::numeric_limits<double>::infinity();
    if (cfg_.retry.stage_timeout_s > 0.0)
        abandon_after = std::max(
            kSliceS,
            stage_start_s + cfg_.retry.stage_timeout_s - now());

    const double t0 = Clock::steady().now();
    launch(/*is_backup=*/false);

    std::unique_lock<std::mutex> lock(state->mu);
    bool hedge_spent = false;
    auto settled = [&] {
        return state->winner || state->pending == 0;
    };
    while (!settled()) {
        const CancelReason cr = req.cancel_.reason();
        const double waited = Clock::steady().now() - t0;
        if (cr != CancelReason::None || waited >= abandon_after) {
            // Abandon the in-flight read: fire the fetch token (a
            // wedged store read polls it and unwinds), then leave
            // WITHOUT waiting for the task to settle.
            state->abandoned = true;
            state->cancel.cancel(cr != CancelReason::None
                                     ? cr
                                     : CancelReason::Abandoned);
            lock.unlock();
            state->cv.notify_all();
            {
                std::lock_guard<std::mutex> elock(mu_);
                ++stats_.reads_abandoned;
            }
            if (cr != CancelReason::None)
                req.cancel_.throwIfFired();
            throwError(ErrorKind::Transient,
                       "timed fetch: read of object %llu scans "
                       "[%d, %d) abandoned after %.3fs",
                       static_cast<unsigned long long>(req.id),
                       from, target, waited);
        }
        double next = kSliceS;
        if (std::isfinite(abandon_after))
            next = std::min(next, abandon_after - waited);
        if (may_hedge && !hedge_spent &&
            req.hedges < hc.max_per_request) {
            const double until_hedge = delay - waited;
            if (until_hedge <= 0.0) {
                // The primary is slow past the hedge delay: spend
                // ONE backup if the in-flight budget allows it.
                hedge_spent = true;
                if (hedges_inflight_.fetch_add(
                        1, std::memory_order_relaxed) >=
                    hc.inflight_budget) {
                    hedges_inflight_.fetch_sub(
                        1, std::memory_order_relaxed);
                    continue; // budget refused; keep waiting unhedged
                }
                ++req.hedges;
                lock.unlock();
                {
                    std::lock_guard<std::mutex> elock(mu_);
                    ++stats_.hedges_issued;
                }
                launch(/*is_backup=*/true);
                lock.lock();
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
        std::exception_ptr err = state->first_error;
        lock.unlock();
        if (err)
            std::rethrow_exception(err);
        throwError(ErrorKind::Transient,
                   "guarded fetch: all attempts settled with no "
                   "result for object %llu",
                   static_cast<unsigned long long>(req.id));
    }

    const bool backup_won = state->winner_is_backup;
    std::vector<uint8_t> win_buf = std::move(state->win_buf);
    const size_t got = state->win_got;
    lock.unlock();

    delivery.bytes.insert(
        delivery.bytes.end(),
        win_buf.begin() + static_cast<ptrdiff_t>(begin),
        win_buf.end());
    if (may_hedge) {
        std::lock_guard<std::mutex> lk(hedge_mu_);
        hedge_lat_.record(Clock::steady().now() - t0);
    }
    if (backup_won && req.hedges > 0) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.hedge_wins;
    }
    return got;
}

void
StagedServingEngine::processOneImpl(StagedRequest &req, int depth)
{
    const double t0 = now();
    heartbeat(req, "formation");

    // Deadline shedding at formation time: a request whose deadline
    // has already passed is dropped before any byte is read. A client
    // cancel that landed while queued is honoured the same way —
    // before any byte is read.
    if (req.deadline_s > 0.0 &&
        t0 > req.submit_s_ + req.deadline_s) {
        markTerminal(req, StagedState::Expired);
        return;
    }
    if (req.cancel_.reason() == CancelReason::Client) {
        markTerminal(req, StagedState::Cancelled);
        return;
    }

    const EncodedImage &enc = store_->peek(req.id);
    const auto &grid = scale_->resolutions();
    const int num_scans = enc.numScans();

    // Per-request delivery buffer: header + side tables from the
    // store, payload bytes PHYSICALLY fetched below. Faults (short
    // reads, bit flips) damage only this copy — never the store's
    // pristine object — and the resumable decoder is bound to it.
    EncodedImage delivery = enc.headerCopy();
    ProgressiveDecoder dec(delivery);
    // The decoder polls the request token between scans, so a cancel
    // or deadline firing stops decode at a clean prefix boundary.
    dec.setCancel(&req.cancel_);

    int r_idx = 0;
    int resolution = 0;
    int kprev = 0;
    int total = 0;
    size_t bytes = 0;
    bool capped = false;
    bool charged_full = false;
    // Stage-1 cache hit, when any; carried into stage 2 so a hit's
    // ready-made preview pixels are reused.
    DecodeCache::EntryPtr hit;

    // Stage-boundary poll: client/deadline firings end the request at
    // the next boundary (the Cancelled catch below maps them);
    // watchdog firings are left to the fetch/retry path, which
    // degrades instead — the CPU stages between fetches are short.
    auto pollCancel = [&] {
        const CancelReason cr = req.cancel_.reason();
        if (cr == CancelReason::Client || cr == CancelReason::Deadline)
            req.cancel_.throwIfFired();
    };

    // The quality tier is selected ONCE at formation so one request
    // sees a consistent quality level even if the controller shifts
    // mid-flight.
    const QualityTier &tier = ladder_.select(depth);

    try {
        if (cfg_.fixed_resolution > 0) {
            // Static mode: no preview fetch, no scale model — the
            // measured baseline through identical machinery.
            resolution = cfg_.fixed_resolution;
            for (size_t i = 1; i < grid.size(); ++i) {
                if (std::abs(grid[i] - resolution) <
                    std::abs(grid[r_idx] - resolution))
                    r_idx = static_cast<int>(i);
            }
        } else {
            // Stage 1: ranged read + partial decode of the preview
            // scans. A calibrated policy may demand ZERO preview
            // scans (the threshold is already met by the mid-gray
            // reconstruction); then nothing is fetched and the scale
            // model sees the same 0-scan preview the inline pipeline
            // would. A preview shortfall after retries is NON-fatal:
            // the scale model sees whatever prefix decoded (possibly
            // mid-gray), and the stage-4 fetch below still tries to
            // recover the gap.
            kprev = cfg_.preview_depth
                        ? cfg_.preview_depth(req.id)
                        : cfg_.preview_scans;
            kprev = std::clamp(kprev, 0, num_scans);
            // Cheaper decisions, shallower reads.
            if (tier.preview_cap > 0)
                kprev = std::min(kprev, tier.preview_cap);
            // Decode cache, stage 1: a cached prefix at or past the
            // preview depth replaces the fetch entirely (zero store
            // bytes charged). The resumed decoder never reads bytes
            // below its resume offset, so a zero-filled placeholder
            // prefix stands in for the bytes the skipped fetch would
            // have delivered; a stage-4 fetch appends real bytes
            // after it.
            if (cfg_.cache && kprev > 0)
                hit = cfg_.cache->lookup(req.id, kprev, num_scans);
            if (hit) {
                delivery.bytes.assign(
                    delivery.scan_offsets[hit->depth], 0);
                dec = ProgressiveDecoder(delivery, hit->snap);
                dec.setCancel(&req.cancel_);
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.cache_hits;
                stats_.cache_bytes_saved += static_cast<uint64_t>(
                    delivery.scan_offsets[hit->depth]);
            } else if (kprev > 0) {
                if (cfg_.cache) {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++stats_.cache_misses;
                }
                fetchScansWithRetry(req, delivery, dec, kprev, bytes,
                                    charged_full, t0);
            }
            pollCancel();
            heartbeat(req, "scale-model");

            // Stage 2: scale-model inference on the decoded preview.
            // A hit may carry its preview pixels ready-made; snapshot-
            // only entries (and misses) materialize them here.
            const Image preview_full = hit && !hit->preview.empty()
                                           ? hit->preview
                                           : dec.image();
            // Offer the freshly decoded preview for caching (misses
            // only — a hit's entry is already resident). A degraded
            // preview (retry budget ran out short of kprev) is not
            // offered: the next clean decode defines the cached
            // prefix.
            if (cfg_.cache && !hit && kprev > 0 &&
                dec.scansDecoded() == kprev)
                cfg_.cache->insert(req.id, kprev, preview_full,
                                   dec.snapshot());
            const Image preview =
                resize(centerCropFraction(preview_full,
                                          cfg_.crop_area),
                       scale_->options().input_res,
                       scale_->options().input_res);
            {
                std::lock_guard<std::mutex> lock(scale_mu_);
                r_idx = scale_->chooseResolutionIndex(preview);
            }

            resolution = grid[r_idx];
        }

        // Stage 3: the tier caps the decision (dynamic or fixed) to
        // the largest grid resolution <= the cap, else the lowest.
        if (tier.resolution_cap > 0 && resolution > tier.resolution_cap) {
            int lowered = 0;
            for (size_t i = 0; i < grid.size(); ++i) {
                if (grid[i] <= tier.resolution_cap &&
                    grid[i] >= grid[lowered])
                    lowered = static_cast<int>(i);
            }
            if (grid[lowered] < resolution) {
                r_idx = lowered;
                resolution = grid[lowered];
                capped = true;
            }
        }

        // Stage 4: ranged read + resumed decode of the remaining
        // scans the decision needs. The decoder continues from the
        // preview state — no scan is decoded twice. The full-read
        // denominator is charged by whichever fetch starts at scan 0
        // (at most one per request: the stage-1 read, or this one
        // when no preview byte was fetched). When the retry budget
        // runs out the request is served DEGRADED at the scan depth
        // already decoded.
        pollCancel();
        heartbeat(req, "resume-fetch");
        total = cfg_.scan_depth ? cfg_.scan_depth(req.id, r_idx)
                                : num_scans;
        total = std::clamp(total, kprev, num_scans);
        // The scan cap never cuts below the decoded preview.
        if (tier.scan_cap > 0)
            total = std::min(total, std::max(tier.scan_cap, kprev));
        // Decode cache, stage 4: a cached prefix strictly deeper than
        // what this request holds (up to the target) lets the decoder
        // jump ahead and fetch only the missing range — the partial
        // hit charges only the delta. Same zero-filled placeholder
        // trick as stage 1.
        bool fetched_tail = false;
        if (cfg_.cache && dec.scansDecoded() < total) {
            const DecodeCache::EntryPtr deep = cfg_.cache->lookup(
                req.id, dec.scansDecoded() + 1, total);
            if (deep) {
                const uint64_t skipped = static_cast<uint64_t>(
                    delivery.scan_offsets[deep->depth] -
                    delivery.scan_offsets[dec.scansDecoded()]);
                delivery.bytes.assign(
                    delivery.scan_offsets[deep->depth], 0);
                dec = ProgressiveDecoder(delivery, deep->snap);
                dec.setCancel(&req.cancel_);
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.cache_resumes;
                stats_.cache_bytes_saved += skipped;
            }
        }
        if (dec.scansDecoded() < total) {
            fetched_tail = true;
            fetchScansWithRetry(req, delivery, dec, total, bytes,
                                charged_full, now());
        }
        // Offer the full-depth prefix when this request paid a
        // physical fetch to reach it. Snapshot-only (empty preview):
        // decision-only serving never materializes these pixels, and
        // a resuming hit re-derives them on demand.
        if (cfg_.cache && fetched_tail && total > 0 &&
            dec.scansDecoded() == total)
            cfg_.cache->insert(req.id, total, Image(), dec.snapshot());
        pollCancel();
    } catch (const Error &e) {
        if (e.kind() != ErrorKind::Cancelled)
            throw;
        // Cancelled mid-pipeline at a clean prefix boundary: meter
        // what was actually read, then terminate by the reason that
        // fired (client hangup vs. deadline expiry). Output fields
        // are not valid, but the accounting is.
        req.preview_scans = kprev;
        req.scans_read = dec.scansDecoded();
        req.scans_intended = total;
        req.bytes_read = bytes;
        req.decode_s = now() - req.submit_s_;
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.scans_read += static_cast<uint64_t>(dec.scansDecoded());
            stats_.bytes_read += bytes;
        }
        markTerminal(req,
                     req.cancel_.reason() == CancelReason::Client
                         ? StagedState::Cancelled
                         : StagedState::Expired);
        return;
    }
    const int achieved = dec.scansDecoded();
    const bool degraded = achieved < total;
    // Nothing decoded at all when the decision needed data: there is
    // no prefix to degrade to — the request fails.
    tamres_check(achieved > 0 || total == 0, ErrorKind::Transient,
                 "request %llu: no scan of %d decodable after retries",
                 static_cast<unsigned long long>(req.id), total);

    req.resolution = resolution;
    req.resolution_index = r_idx;
    req.preview_scans = kprev;
    req.scans_read = achieved;
    req.scans_intended = total;
    req.bytes_read = bytes;

    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.decoded;
        stats_.scans_read += static_cast<uint64_t>(achieved);
        stats_.bytes_read += bytes;
        stats_.resolution_hist[static_cast<size_t>(r_idx)] += 1;
        if (capped)
            ++stats_.tier_capped;
    }

    if (!inner_) {
        // Decision-only mode: the request is complete once the
        // decision and byte accounting are in. Retry backoff counts
        // against the deadline, so re-check it before classifying.
        req.decode_s = now() - req.submit_s_;
        if (req.deadline_s > 0.0 && req.decode_s > req.deadline_s) {
            markTerminal(req, StagedState::Expired);
            return;
        }
        if (req.cancel_.reason() == CancelReason::Client) {
            markTerminal(req, StagedState::Cancelled);
            return;
        }
        markTerminal(req, degraded ? StagedState::Degraded
                                   : StagedState::Done);
        return;
    }

    // Stage 5: prepare the backbone input and hand off to the
    // batched inner engine. The input tensor is recycled when the
    // shape repeats, keeping the handoff allocation-light and the
    // inner batch path zero-alloc. A client cancel observed here —
    // before batch formation — still wins; past the submit below,
    // the request rides through the backbone and completes normally
    // (watchdog firings also proceed: the decode work is done).
    heartbeat(req, "handoff");
    if (req.cancel_.reason() == CancelReason::Client) {
        markTerminal(req, StagedState::Cancelled);
        return;
    }
    tamres_assert(enc.channels == 3,
                  "backbone stage needs 3-channel objects, got %d",
                  enc.channels);
    const Image full = dec.image();
    const Image sized =
        resize(centerCropFraction(full, cfg_.crop_area), resolution,
               resolution);
    const Shape want{1, 3, resolution, resolution};
    if (req.infer.input.shape() != want)
        req.infer.input = Tensor(want);
    std::copy_n(sized.data(), sized.numel(), req.infer.input.data());

    req.decode_s = now() - req.submit_s_;
    if (req.deadline_s > 0.0) {
        const double left = req.deadline_s - req.decode_s;
        if (left <= 0.0) {
            markTerminal(req, StagedState::Expired);
            return;
        }
        req.infer.deadline_s = left;
    } else {
        req.infer.deadline_s = 0.0;
    }

    // Precision shed: an int8 tier stamps the backbone request (a
    // harmless no-op when the inner engine has no quantized graph).
    req.infer.want_int8 = tier.int8;
    if (req.infer.want_int8) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.tier_int8;
    }

    if (!inner_->submit(req.infer)) {
        markTerminal(req, StagedState::Shed);
        return;
    }
    // Unpublish before the Submitted store: the worker no longer
    // advances this request, so the watchdog must not attribute its
    // future silence (or a later freed pointer) to it.
    if (watchdog_ && tls_wd_slot >= 0) {
        std::lock_guard<std::mutex> wlock(wd_mu_);
        worker_current_[static_cast<size_t>(tls_wd_slot)] = nullptr;
    }
    req.state.store(static_cast<int>(StagedState::Submitted),
                    std::memory_order_release);
    done_cv_.notify_all();
}

} // namespace tamres
