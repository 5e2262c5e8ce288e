#include "core/staged_engine.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>

#include "util/error.hh"
#include "util/logging.hh"

namespace tamres {

namespace {

/** This thread's watchdog slot (-1 on non-decode-worker threads). */
thread_local int tls_wd_slot = -1;

} // namespace

StagedServingEngine::StagedServingEngine(ObjectStore &store,
                                         const ScaleModel &scale,
                                         Graph *backbone,
                                         StagedEngineConfig config)
    : store_(&store), scale_(&scale), backbone_(backbone),
      cfg_(std::move(config)),
      clock_(cfg_.overload.clock ? cfg_.overload.clock
                                 : &Clock::steady()),
      epoch_s_(clock_->now()),
      fetcher_(store, cfg_.retry, cfg_.overload.hedge, *clock_,
               cfg_.decode_workers),
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
    // Serialized so only one caller joins the fetcher's I/O pool, and
    // only after the decode workers that feed it have joined.
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
    fetcher_.stop(); // drains queued fetch tasks, then joins
    if (inner_)
        inner_->stop();
}

StagedStats
StagedServingEngine::stats() const
{
    // One critical section copies the counters (see StagedStats);
    // the live-state fields come from their own sources.
    StagedStats s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s = stats_;
        s.decode_queue_depth = static_cast<int>(queue_.size());
    }
    s.bytes_read += fetcher_.detachedBytes();
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

void
StagedServingEngine::fetchStage(StagedRequest &req, ScanRead &read,
                                EncodedImage &delivery,
                                ProgressiveDecoder &dec, int target,
                                int read_to)
{
    FetchReport rep;
    auto meter = [&] {
        req.bytes_read += rep.bytes;
        req.retries += rep.retries;
        req.hedges += rep.hedges;
        std::lock_guard<std::mutex> lock(mu_);
        stats_.bytes_read += rep.bytes;
        stats_.retries += static_cast<uint64_t>(rep.retries);
        stats_.fetch_faults += static_cast<uint64_t>(rep.faults);
        stats_.retry_giveups += static_cast<uint64_t>(rep.giveups);
        stats_.hedges_issued += static_cast<uint64_t>(rep.hedges);
        stats_.hedge_wins += static_cast<uint64_t>(rep.hedge_wins);
        stats_.reads_abandoned += static_cast<uint64_t>(rep.abandoned);
    };
    try {
        fetcher_.fetch(read, delivery, dec, target, read_to, rep);
    } catch (...) {
        meter();
        throw;
    }
    meter();
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

    // Per-request delivery buffer (see storage/scan_fetcher.hh): the
    // resumable decoder is bound to it, never to the store's object.
    EncodedImage delivery = enc.headerCopy();
    ProgressiveDecoder dec(delivery);
    // The decoder polls the request token between scans, so a cancel
    // or deadline firing stops decode at a clean prefix boundary.
    dec.setCancel(&req.cancel_);
    // One read shared by both fetch stages.
    ScanRead read{req.id, &req.cancel_,
                  [this, &req] { heartbeat(req, "fetch"); }};

    int r_idx = 0;
    int resolution = 0;
    int kprev = 0;
    int total = 0;
    bool capped = false;
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

    // Total scans a decision at grid index r needs: the policy's
    // depth, never below the preview, capped by the tier. Stage 1
    // reads up to its minimum over the grid and stage 4 up to its
    // value at the decision, so one rule keeps stage 1 from reading a
    // byte the decision will not use.
    auto depthFor = [&](int r) {
        int d = cfg_.scan_depth ? cfg_.scan_depth(req.id, r) : num_scans;
        d = std::clamp(d, kprev, num_scans);
        // The scan cap never cuts below the decoded preview.
        if (tier.scan_cap > 0)
            d = std::min(d, std::max(tier.scan_cap, kprev));
        return d;
    };

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
            // scans. The read is coalesced up to the decision floor —
            // the fewest scans any decision reads — so a decision
            // that needs only the floor costs one round trip; it
            // still DECODES only the preview, so the decision is that
            // of the preview alone. A calibrated policy may demand
            // ZERO preview scans (the threshold is already met by the
            // mid-gray reconstruction); then nothing is fetched and
            // the scale model sees the same 0-scan preview the inline
            // pipeline would. A preview shortfall after retries is
            // NON-fatal: the scale model sees whatever prefix decoded
            // (possibly mid-gray), and the stage-4 fetch below still
            // tries to recover the gap.
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
                int floor = num_scans;
                for (size_t r = 0; r < grid.size(); ++r)
                    floor = std::min(floor,
                                     depthFor(static_cast<int>(r)));
                fetchStage(req, read, delivery, dec, kprev, floor);
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

        // Stage 4: resumed decode of the remaining scans the decision
        // needs. The decoder continues from the preview state — no
        // scan is decoded twice — first through the scans stage 1
        // read ahead, then through a ranged read of the rest, made
        // only when the decision needs more than the floor. When the
        // fetcher gives up the request is served DEGRADED at the scan
        // depth already decoded.
        pollCancel();
        heartbeat(req, "resume-fetch");
        total = depthFor(r_idx);
        // Decode cache, stage 4: a cached prefix strictly deeper than
        // what this request holds (up to the target) lets the decoder
        // jump ahead and fetch only the missing range — the partial
        // hit charges only the delta. Same zero-filled placeholder
        // trick as stage 1.
        bool fetched_tail = false;
        const int held = std::max(
            dec.scansDecoded(), dec.scansCoveredBy(delivery.bytes.size()));
        if (cfg_.cache && held < total) {
            const DecodeCache::EntryPtr deep =
                cfg_.cache->lookup(req.id, held + 1, total);
            if (deep) {
                const uint64_t skipped = static_cast<uint64_t>(
                    delivery.scan_offsets[deep->depth] -
                    delivery.scan_offsets[held]);
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
            fetchStage(req, read, delivery, dec, total, total);
        }
        // Offer the full-depth prefix when this request paid a
        // physical fetch to reach it, in either fetch stage.
        // Snapshot-only (empty preview): decision-only serving never
        // materializes these pixels, and a resuming hit re-derives
        // them on demand.
        if (cfg_.cache && fetched_tail && total > 0 &&
            dec.scansDecoded() == total)
            cfg_.cache->insert(req.id, total, Image(), dec.snapshot());
        pollCancel();
    } catch (const Error &e) {
        if (e.kind() != ErrorKind::Cancelled)
            throw;
        // Cancelled mid-pipeline at a clean prefix boundary: meter
        // what was actually decoded (fetchStage metered the bytes),
        // then terminate by the reason that fired (client hangup vs.
        // deadline expiry). Output fields are not valid, but the
        // accounting is.
        req.preview_scans = kprev;
        req.scans_read = dec.scansDecoded();
        req.scans_intended = total;
        req.decode_s = now() - req.submit_s_;
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.scans_read += static_cast<uint64_t>(dec.scansDecoded());
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

    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.decoded;
        stats_.scans_read += static_cast<uint64_t>(achieved);
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
