#include "storage/breaker.hh"

#include "util/error.hh"

namespace tamres {

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
    case BreakerState::Closed:
        return "closed";
    case BreakerState::Open:
        return "open";
    case BreakerState::HalfOpen:
        return "half-open";
    }
    return "?";
}

BreakerObjectStore::BreakerObjectStore(ObjectStore &base,
                                       BreakerConfig config)
    : base_(&base), cfg_(config),
      clock_(config.clock ? config.clock : &Clock::steady()),
      window_(config.window_s)
{}

void
BreakerObjectStore::put(uint64_t id, EncodedImage image)
{
    base_->put(id, std::move(image));
}

bool
BreakerObjectStore::contains(uint64_t id) const
{
    return base_->contains(id);
}

uint64_t
BreakerObjectStore::storedBytes() const
{
    return base_->storedBytes();
}

size_t
BreakerObjectStore::size() const
{
    return base_->size();
}

const EncodedImage &
BreakerObjectStore::peek(uint64_t id) const
{
    return base_->peek(id);
}

ReadStats
BreakerObjectStore::stats() const
{
    ReadStats out = base_->stats();
    std::lock_guard<std::mutex> lock(mu_);
    out.breaker_fast_fails += counters_.fast_fails;
    out.breaker_trips += counters_.trips;
    return out;
}

void
BreakerObjectStore::resetStats()
{
    base_->resetStats();
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = BreakerStats{};
}

BreakerState
BreakerObjectStore::state() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
}

BreakerStats
BreakerObjectStore::breakerStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    BreakerStats out = counters_;
    out.state = state_;
    out.failure_rate = window_.badFraction(clock_->now());
    return out;
}

bool
BreakerObjectStore::admit(double now, bool &is_probe)
{
    std::lock_guard<std::mutex> lock(mu_);
    is_probe = false;
    if (state_ == BreakerState::Open) {
        if (now - opened_at_ >= cfg_.cooldown_s) {
            // Lazy Open -> HalfOpen: the first caller past the
            // cooldown becomes the first probe.
            state_ = BreakerState::HalfOpen;
            probes_in_flight_ = 0;
            probe_successes_ = 0;
        } else {
            ++counters_.fast_fails;
            throw Error(ErrorKind::Transient,
                        "circuit breaker open: storage fetches "
                        "failing fast until cooldown expires",
                        /*fail_fast=*/true);
        }
    }
    if (state_ == BreakerState::HalfOpen) {
        if (probes_in_flight_ >= cfg_.half_open_probes) {
            ++counters_.fast_fails;
            throw Error(ErrorKind::Transient,
                        "circuit breaker half-open: probe budget "
                        "exhausted, fetch failing fast",
                        /*fail_fast=*/true);
        }
        ++probes_in_flight_;
        ++counters_.probes;
        is_probe = true;
    }
    return true;
}

void
BreakerObjectStore::settle(double now, bool is_probe, bool failed)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (is_probe && probes_in_flight_ > 0)
        --probes_in_flight_;

    window_.record(now, failed);

    if (state_ == BreakerState::HalfOpen) {
        if (failed) {
            ++counters_.probe_failures;
            ++counters_.trips;
            state_ = BreakerState::Open;
            opened_at_ = now;
            window_.reset();
        } else if (++probe_successes_ >= cfg_.close_after) {
            ++counters_.closes;
            state_ = BreakerState::Closed;
            window_.reset();
        }
        return;
    }

    if (state_ == BreakerState::Closed &&
        window_.total(now) >= cfg_.min_samples &&
        window_.badFraction(now) >= cfg_.failure_threshold) {
        ++counters_.trips;
        state_ = BreakerState::Open;
        opened_at_ = now;
        window_.reset();
    }
}

size_t
BreakerObjectStore::fetchScanRange(uint64_t id, int from_scans,
                                   int to_scans,
                                   std::vector<uint8_t> &dst,
                                   bool charge_full, size_t max_bytes,
                                   const CancelToken *cancel)
{
    bool is_probe = false;
    admit(clock_->now(), is_probe); // throws fail-fast when rejected

    try {
        const size_t got = base_->fetchScanRange(
            id, from_scans, to_scans, dst, charge_full, max_bytes,
            cancel);
        // A short delivery the CALLER did not ask for is a failure
        // signal: the range came back truncated.
        const EncodedImage &obj = base_->peek(id);
        const size_t clean = obj.bytesForScans(to_scans) -
                             obj.bytesForScans(from_scans);
        const bool truncated =
            got < std::min(clean, max_bytes);
        settle(clock_->now(), is_probe, truncated);
        return got;
    } catch (const Error &e) {
        if (e.kind() == ErrorKind::Transient) {
            settle(clock_->now(), is_probe, /*failed=*/true);
        } else {
            // NotFound, Cancelled etc.: a data/request error says
            // nothing about tier health — release any probe slot
            // without recording. (An *abandoned* read is different:
            // the token maps Abandoned/Watchdog to Transient above,
            // so supervision give-ups DO count as tier failures.)
            std::lock_guard<std::mutex> lock(mu_);
            if (is_probe && probes_in_flight_ > 0)
                --probes_in_flight_;
        }
        throw;
    }
}

} // namespace tamres
