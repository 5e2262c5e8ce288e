#include "core/engine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace tamres {

namespace {

constexpr size_t kPlanCapacity = 32;   //!< per-worker executor plan cache
constexpr int kLatencySamples = 4096;  //!< p50/p99 window (EngineStats)

/**
 * Deterministic bilinear downscale of one [h, w] plane to [R, R]
 * (half-pixel centers). The shed path of the engine: cheap relative
 * to the inference it replaces and identical no matter which worker
 * runs it.
 */
void
downscalePlane(const float *src, int h, int w, float *dst, int R)
{
    const float sy = static_cast<float>(h) / R;
    const float sx = static_cast<float>(w) / R;
    for (int y = 0; y < R; ++y) {
        const float fy =
            std::max(0.0f, (y + 0.5f) * sy - 0.5f);
        const int y0 = std::min(static_cast<int>(fy), h - 1);
        const int y1 = std::min(y0 + 1, h - 1);
        const float wy = fy - y0;
        for (int x = 0; x < R; ++x) {
            const float fx =
                std::max(0.0f, (x + 0.5f) * sx - 0.5f);
            const int x0 = std::min(static_cast<int>(fx), w - 1);
            const int x1 = std::min(x0 + 1, w - 1);
            const float wx = fx - x0;
            const float top = src[y0 * w + x0] * (1.0f - wx) +
                              src[y0 * w + x1] * wx;
            const float bot = src[y1 * w + x0] * (1.0f - wx) +
                              src[y1 * w + x1] * wx;
            dst[y * R + x] = top * (1.0f - wy) + bot * wy;
        }
    }
}

} // namespace

ServingEngine::ServingEngine(Graph &graph, EngineConfig config)
    : graph_(&graph), cfg_(std::move(config)),
      latency_(kLatencySamples), epoch_(std::chrono::steady_clock::now())
{
    tamres_assert(cfg_.workers >= 1, "engine needs >= 1 worker");
    tamres_assert(cfg_.max_batch >= 1 && cfg_.max_batch <= 64,
                  "max_batch must be in [1, 64]");
    tamres_assert(cfg_.queue_capacity >= cfg_.max_batch,
                  "queue must hold at least one full batch");
    for (const QualityTier &t : cfg_.ladder)
        tamres_assert(t.preview_cap == 0 && t.scan_cap == 0 && t.admit,
                      "flat engine tiers cap resolution and precision "
                      "only");

    pending_.reserve(cfg_.queue_capacity);
    batch_hist_.assign(cfg_.max_batch + 1, 0);

    workers_.resize(cfg_.workers);
    for (auto &w : workers_) {
        w.exec = std::make_unique<Graph::Executor>(*graph_,
                                                   kPlanCapacity);
        if (cfg_.quant_graph) {
            w.qexec = std::make_unique<Graph::Executor>(
                *cfg_.quant_graph, kPlanCapacity);
        }
        w.items.reserve(cfg_.max_batch);
    }
    threads_.reserve(cfg_.workers);
    for (int i = 0; i < cfg_.workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ServingEngine::~ServingEngine()
{
    stop();
}

double
ServingEngine::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

bool
ServingEngine::submit(InferenceRequest &req)
{
    tamres_assert(req.input.ndim() == 4 && req.input.dim(0) == 1,
                  "engine requests are single-item 4-D [1, c, h, w]");
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ ||
        pending_.size() >= static_cast<size_t>(cfg_.queue_capacity)) {
        ++shed_admission_;
        req.state.store(static_cast<int>(RequestState::Shed),
                        std::memory_order_release);
        done_cv_.notify_all();
        return false;
    }
    req.submit_s_ = now();
    req.queue_s = 0.0;
    req.latency_s = 0.0;
    req.state.store(static_cast<int>(RequestState::Queued),
                    std::memory_order_release);
    pending_.push_back(&req);
    // notify_all: lingering workers must re-count their batch, not
    // just one idle worker pick the request up.
    work_cv_.notify_all();
    return true;
}

void
ServingEngine::wait(InferenceRequest &req)
{
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
        const RequestState s = req.stateNow();
        return s != RequestState::Queued;
    });
}

void
ServingEngine::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
        return pending_.empty() && active_workers_ == 0;
    });
}

void
ServingEngine::stop()
{
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
}

EngineStats
ServingEngine::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    EngineStats s;
    s.queue_depth = static_cast<int>(pending_.size());
    s.served = served_;
    s.batches = batches_;
    s.shed_admission = shed_admission_;
    s.expired = expired_;
    s.failed = failed_;
    s.served_int8 = served_int8_;
    s.batches_int8 = batches_int8_;
    s.mean_batch =
        batches_ > 0 ? static_cast<double>(served_) / batches_ : 0.0;
    s.batch_hist = batch_hist_;
    s.p50_latency_s = latency_.quantile(0.5);
    s.p99_latency_s = latency_.quantile(0.99);
    return s;
}

void
ServingEngine::workerLoop(int idx)
{
    Worker &w = workers_[idx];
    for (const Shape &shape : cfg_.warm_shapes) {
        w.exec->warm(shape);
        if (w.qexec)
            w.qexec->warm(shape);
    }

    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock,
                      [&] { return stopping_ || !pending_.empty(); });

        // Deadline shedding: drop requests that can no longer be
        // served in time before forming a batch around them.
        const double t = now();
        bool dropped = false;
        size_t out = 0;
        for (size_t i = 0; i < pending_.size(); ++i) {
            InferenceRequest *r = pending_[i];
            if (r->deadline_s > 0.0 &&
                t > r->submit_s_ + r->deadline_s) {
                r->latency_s = t - r->submit_s_;
                r->state.store(static_cast<int>(RequestState::Expired),
                               std::memory_order_release);
                ++expired_;
                dropped = true;
            } else {
                pending_[out++] = r;
            }
        }
        pending_.resize(out);
        if (dropped)
            done_cv_.notify_all();

        if (pending_.empty()) {
            if (stopping_)
                return;
            continue;
        }

        // Batch formation around the oldest request: take every
        // request matching its shape AND precision up to max_batch
        // (int8 and fp32 requests run different graphs, so they never
        // share a batch); if the batch is partial, linger up to
        // max_delay_us past the front request's submission for late
        // joiners.
        InferenceRequest *front = pending_.front();
        const Shape &key = front->input.shape();
        const bool key_int8 = front->want_int8;
        int avail = 0;
        for (InferenceRequest *r : pending_) {
            if (r->want_int8 == key_int8 && r->input.shape() == key &&
                ++avail >= cfg_.max_batch)
                break;
        }
        const double flush_at =
            front->submit_s_ + cfg_.max_delay_us * 1e-6;
        if (avail < cfg_.max_batch && !stopping_ &&
            now() < flush_at) {
            work_cv_.wait_until(
                lock,
                epoch_ + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(flush_at)));
            continue; // re-evaluate from scratch
        }

        // Pop the group (stable compaction, no allocation).
        w.items.clear();
        out = 0;
        for (size_t i = 0; i < pending_.size(); ++i) {
            InferenceRequest *r = pending_[i];
            if (w.items.size() <
                    static_cast<size_t>(cfg_.max_batch) &&
                r->want_int8 == key_int8 && r->input.shape() == key)
                w.items.push_back(r);
            else
                pending_[out++] = r;
        }
        pending_.resize(out);

        // Tier decision at formation: the ladder's depth signal caps
        // resolution and may shed precision; a request can also
        // demand int8 outright. Without a quantized graph the int8
        // axis degrades to fp32.
        const int depth = static_cast<int>(pending_.size()) +
                          static_cast<int>(w.items.size());
        const QualityTier tier =
            cfg_.ladder.empty()
                ? QualityTier{}
                : cfg_.ladder[depthTier(cfg_.ladder, depth)];
        const bool use_int8 =
            (key_int8 || tier.int8) && w.qexec != nullptr;

        ++active_workers_;
        lock.unlock();
        // Contain request-scoped execution faults: a throwing batch
        // fails its members, not the worker. Latency is stamped here
        // (serveBatch may have thrown before reaching its own stamp).
        bool ok = true;
        try {
            serveBatch(w, tier.resolution_cap, use_int8);
        } catch (const std::exception &e) {
            ok = false;
            const double t_fail = now();
            for (InferenceRequest *r : w.items)
                r->latency_s = t_fail - r->submit_s_;
            warn("batch of %zu failed: %s", w.items.size(), e.what());
        }
        lock.lock();
        --active_workers_;

        // Batch bookkeeping under the lock. A request may be freed by
        // its owner the moment it turns terminal, so every engine-side
        // read of the request happens BEFORE the state store. The
        // served/batch counters and the latency window track
        // successful batches only.
        if (ok) {
            ++batches_;
            served_ += w.items.size();
            if (use_int8) {
                ++batches_int8_;
                served_int8_ += w.items.size();
            }
            batch_hist_[w.items.size()] += 1;
            for (const InferenceRequest *r : w.items)
                latency_.record(r->latency_s);
        } else {
            failed_ += w.items.size();
        }
        const RequestState terminal =
            ok ? RequestState::Done : RequestState::Failed;
        for (InferenceRequest *r : w.items)
            r->state.store(static_cast<int>(terminal),
                           std::memory_order_release);
        done_cv_.notify_all();
    }
}

void
ServingEngine::serveBatch(Worker &w, int resolution_cap, bool use_int8)
{
    const double start = now();
    const int n = static_cast<int>(w.items.size());
    const Tensor &first = w.items.front()->input;
    const int c = static_cast<int>(first.dim(1));
    const int h = static_cast<int>(first.dim(2));
    const int iw = static_cast<int>(first.dim(3));
    // A cap only ever shrinks: an input at or below it serves native.
    const bool rescale =
        resolution_cap > 0 && resolution_cap < std::max(h, iw);
    tamres_assert(!rescale || h == iw,
                  "resolution shedding needs square inputs");
    const int rh = rescale ? resolution_cap : h;
    const int rw = rescale ? resolution_cap : iw;

    // Find (or create, first time only) the gather buffer for this
    // (batch, channels, resolution).
    BatchBuffer *buf = nullptr;
    for (BatchBuffer &b : w.buffers) {
        const Shape &s = b.input.shape();
        if (s[0] == n && s[1] == c && s[2] == rh && s[3] == rw) {
            buf = &b;
            break;
        }
    }
    if (!buf) {
        w.buffers.push_back(BatchBuffer{
            Tensor({n, c, rh, rw}), Tensor(), Shape()});
        buf = &w.buffers.back();
    }

    const int64_t item_in = static_cast<int64_t>(c) * rh * rw;
    for (int i = 0; i < n; ++i) {
        const float *src = w.items[i]->input.data();
        float *dst = buf->input.data() + i * item_in;
        if (!rescale) {
            std::memcpy(dst, src, sizeof(float) * item_in);
        } else {
            for (int ch = 0; ch < c; ++ch)
                downscalePlane(src + static_cast<int64_t>(ch) * h * iw,
                               h, iw,
                               dst + static_cast<int64_t>(ch) * rh * rw,
                               rh);
        }
        w.items[i]->queue_s = start - w.items[i]->submit_s_;
    }

    (use_int8 ? *w.qexec : *w.exec).runInto(buf->input, buf->output);

    if (buf->item_shape.empty()) {
        buf->item_shape = buf->output.shape();
        buf->item_shape[0] = 1;
    }
    const int64_t item_out = buf->output.numel() / n;
    const double finish = now();
    for (int i = 0; i < n; ++i) {
        InferenceRequest *r = w.items[i];
        if (r->output.shape() != buf->item_shape)
            r->output = Tensor(buf->item_shape);
        std::memcpy(r->output.data(),
                    buf->output.data() + i * item_out,
                    sizeof(float) * item_out);
        r->resolution = rh;
        r->served_int8 = use_int8;
        r->batch = n;
        r->latency_s = finish - r->submit_s_;
        // The Done store is deferred to the caller (workerLoop, under
        // the engine mutex): once a request is Done its owner may
        // free it, so it must happen after the last engine-side read.
    }
}

} // namespace tamres
