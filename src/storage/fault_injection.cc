#include "storage/fault_injection.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/error.hh"
#include "util/rng.hh"

namespace tamres {

namespace {

/** Combine fault-draw inputs into one deterministic 64-bit seed. */
uint64_t
mixSeed(uint64_t seed, uint64_t id, int from, int to, int attempt)
{
    uint64_t h = mix64(seed);
    h = mix64(h ^ id);
    h = mix64(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(from))
                   << 32 | static_cast<uint32_t>(to)));
    h = mix64(h ^ static_cast<uint64_t>(attempt));
    return h;
}

/** Key for the per-range attempt counter. */
uint64_t
rangeKey(uint64_t id, int from, int to)
{
    return mix64(mix64(id) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(from))
                  << 32 | static_cast<uint32_t>(to)));
}

} // namespace

void
FaultyObjectStore::put(uint64_t id, EncodedImage image)
{
    base_->put(id, std::move(image));
}

bool
FaultyObjectStore::contains(uint64_t id) const
{
    return base_->contains(id);
}

uint64_t
FaultyObjectStore::storedBytes() const
{
    return base_->storedBytes();
}

size_t
FaultyObjectStore::size() const
{
    return base_->size();
}

const EncodedImage &
FaultyObjectStore::peek(uint64_t id) const
{
    return base_->peek(id);
}

ReadStats
FaultyObjectStore::stats() const
{
    ReadStats out = base_->stats();
    std::lock_guard<std::mutex> lock(mu_);
    out.faults_delayed += fault_stats_.faults_delayed;
    out.faults_transient += fault_stats_.faults_transient;
    out.faults_truncated += fault_stats_.faults_truncated;
    out.faults_corrupted += fault_stats_.faults_corrupted;
    out.faults_hung += fault_stats_.faults_hung;
    return out;
}

void
FaultyObjectStore::resetStats()
{
    base_->resetStats();
    std::lock_guard<std::mutex> lock(mu_);
    fault_stats_ = ReadStats{};
}

void
FaultyObjectStore::resetAttempts()
{
    std::lock_guard<std::mutex> lock(mu_);
    attempts_.clear();
}

void
FaultyObjectStore::releaseHangs()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        hangs_released_ = true;
    }
    hang_cv_.notify_all();
}

FaultDecision
FaultyObjectStore::decide(const FaultContext &ctx)
{
    if (policy_.script)
        return policy_.script(ctx);

    FaultDecision d;
    Rng rng(mixSeed(policy_.seed, ctx.id, ctx.from_scans, ctx.to_scans,
                    ctx.attempt));
    d.delay_s = policy_.latency_fixed_s;
    if (policy_.latency_tail_p > 0 &&
        rng.bernoulli(policy_.latency_tail_p)) {
        // Pareto(alpha = 2): x = scale / sqrt(1 - u).
        const double u = rng.uniform();
        d.delay_s += policy_.latency_tail_scale_s /
                     std::sqrt(1.0 - std::min(u, 1.0 - 1e-12));
    }
    d.delay_s = std::min(d.delay_s, policy_.latency_max_s);
    if (policy_.hang_p > 0 && rng.bernoulli(policy_.hang_p)) {
        d.hang = true;
        return d; // a wedged read delivers nothing at all
    }
    if (policy_.transient_p > 0 && rng.bernoulli(policy_.transient_p)) {
        d.fail = true;
        return d; // a failed request neither truncates nor corrupts
    }
    if (policy_.truncate_p > 0 && ctx.range_bytes > 0 &&
        rng.bernoulli(policy_.truncate_p)) {
        d.deliver_bytes = rng.uniformInt(ctx.range_bytes);
    }
    if (policy_.corrupt_p > 0 && ctx.range_bytes > 0 &&
        rng.bernoulli(policy_.corrupt_p)) {
        d.flip_bit = static_cast<int64_t>(
            rng.uniformInt(static_cast<uint64_t>(ctx.range_bytes) * 8));
    }
    return d;
}

size_t
FaultyObjectStore::fetchScanRange(uint64_t id, int from_scans,
                                  int to_scans,
                                  std::vector<uint8_t> &dst,
                                  bool charge_full, size_t max_bytes,
                                  const CancelToken *cancel)
{
    // Resolve metadata first: a missing object throws NotFound before
    // any fault is drawn (injection perturbs deliveries, not lookups).
    const EncodedImage &obj = base_->peek(id);
    const size_t clean = obj.bytesForScans(to_scans) -
                         obj.bytesForScans(from_scans);

    FaultContext ctx;
    ctx.id = id;
    ctx.from_scans = from_scans;
    ctx.to_scans = to_scans;
    ctx.range_bytes = clean;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ctx.attempt = attempts_[rangeKey(id, from_scans, to_scans)]++;
    }
    const FaultDecision d = decide(ctx);

    if (d.delay_s > 0) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++fault_stats_.faults_delayed;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(d.delay_s));
    }
    if (d.hang) {
        // A wedged read: block until the caller's token fires or the
        // hangs are released, then throw. The wait polls — a fired
        // deadline on a ManualClock has no notifier, and 1 ms of wall
        // latency on an already-doomed read is noise.
        {
            std::unique_lock<std::mutex> lock(mu_);
            ++fault_stats_.faults_hung;
            while (!hangs_released_ &&
                   !(cancel != nullptr && cancel->fired()))
                hang_cv_.wait_for(lock, std::chrono::milliseconds(1));
        }
        if (cancel != nullptr)
            cancel->throwIfFired(); // Abandoned/Watchdog -> Transient
        throwError(ErrorKind::Transient,
                   "injected hung read released: object %llu scans "
                   "[%d, %d) attempt %d",
                   static_cast<unsigned long long>(id), from_scans,
                   to_scans, ctx.attempt);
    }
    if (d.fail) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++fault_stats_.faults_transient;
        }
        throwError(ErrorKind::Transient,
                   "injected transient fault: object %llu scans "
                   "[%d, %d) attempt %d",
                   static_cast<unsigned long long>(id), from_scans,
                   to_scans, ctx.attempt);
    }

    const size_t cap = std::min(max_bytes, d.deliver_bytes);
    const size_t before = dst.size();
    const size_t got =
        base_->fetchScanRange(id, from_scans, to_scans, dst,
                              charge_full, cap, cancel);
    if (d.deliver_bytes < clean && got < clean) {
        std::lock_guard<std::mutex> lock(mu_);
        ++fault_stats_.faults_truncated;
    }
    if (d.flip_bit >= 0 && got > 0) {
        // Corrupt only the freshly appended bytes: the caller's
        // already-verified prefix stays intact, as it would on a real
        // link where earlier responses landed clean.
        const size_t bit =
            static_cast<size_t>(d.flip_bit) % (got * 8);
        dst[before + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        std::lock_guard<std::mutex> lock(mu_);
        ++fault_stats_.faults_corrupted;
    }
    return got;
}

} // namespace tamres
