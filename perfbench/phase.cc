#include "phase.hh"

#include <algorithm>
#include <thread>

#include <sched.h>

using namespace tamres;

namespace perfbench {

void
TracingStore::put(uint64_t id, EncodedImage image)
{
    base_->put(id, std::move(image));
}

bool
TracingStore::contains(uint64_t id) const
{
    return base_->contains(id);
}

uint64_t
TracingStore::storedBytes() const
{
    return base_->storedBytes();
}

size_t
TracingStore::size() const
{
    return base_->size();
}

const EncodedImage &
TracingStore::peek(uint64_t id) const
{
    return base_->peek(id);
}

ReadStats
TracingStore::stats() const
{
    return base_->stats();
}

void
TracingStore::resetStats()
{
    base_->resetStats();
}

size_t
TracingStore::fetchScanRange(uint64_t id, int from_scans, int to_scans,
                             std::vector<uint8_t> &dst, bool charge_full,
                             size_t max_bytes, const CancelToken *cancel)
{
    FetchRecord r;
    r.id = id;
    r.from = from_scans;
    r.to = to_scans;
    r.start = nowS();
    const size_t before = dst.size();
    try {
        r.bytes = base_->fetchScanRange(id, from_scans, to_scans, dst,
                                        charge_full, max_bytes, cancel);
    } catch (...) {
        r.ok = false;
        r.bytes = dst.size() > before ? dst.size() - before : 0;
        r.end = nowS();
        std::lock_guard<std::mutex> lock(mu_);
        records_.push_back(r);
        throw;
    }
    r.end = nowS();
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(r);
    return r.bytes;
}

std::vector<FetchRecord>
TracingStore::records() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
}

namespace {

bool
terminal(StagedState s)
{
    return s != StagedState::Idle && s != StagedState::Queued &&
           s != StagedState::Submitted;
}

} // namespace

Phase
runPhase(StagedServingEngine &engine, ObjectStore &base,
         const std::vector<Arrival> &schedule,
         const std::vector<uint64_t> &ids, double window_s)
{
    const size_t n = schedule.size();
    Phase ph;
    // The generator wakes every few hundred microseconds to send on
    // time while the engine keeps every core busy; a real-time policy
    // (where permitted) lets it preempt a worker at once instead of
    // waiting out a scheduler slice. It sleeps between sends, so it
    // never holds a core. The lag check catches a run where this did
    // not suffice.
    sched_param rt{};
    rt.sched_priority = 1;
    ph.realtime = sched_setscheduler(0, SCHED_FIFO, &rt) == 0;
    ph.out.resize(n);
    ph.reqs.reset(new StagedRequest[n]);
    base.resetStats();

    std::vector<size_t> inflight;
    inflight.reserve(n);
    // A harvested request is finalized (wait() returns at once for a
    // request whose backbone stage already finished) and its input
    // tensor released: outputs stay for the checks, inputs would not
    // fit in memory for a whole run.
    auto harvest = [&] {
        for (size_t k = 0; k < inflight.size();) {
            StagedRequest &r = ph.reqs[inflight[k]];
            const StagedState s = r.stateNow();
            const bool ready =
                terminal(s) ||
                (s == StagedState::Submitted &&
                 r.infer.stateNow() != RequestState::Queued);
            if (!ready) {
                ++k;
                continue;
            }
            engine.wait(r);
            ph.out[inflight[k]].done = nowS();
            r.infer.input = Tensor();
            inflight[k] = inflight.back();
            inflight.pop_back();
        }
    };

    // Poll cadence while idle: bounds how late a completion is seen
    // (the closure gap) and how late a send goes out (the lag).
    constexpr double kPollS = 2e-4;
    constexpr double kSampleS = 5e-2;
    const double cpu0 = cpuSeconds();
    const double t0 = nowS() + 1e-3;
    double next_sample = t0;
    size_t i = 0;
    while (i < n || !inflight.empty()) {
        double now = nowS();
        if (i < n && now >= t0 + schedule[i].t) {
            Outcome &o = ph.out[i];
            StagedRequest &r = ph.reqs[i];
            o.sched = t0 + schedule[i].t;
            o.id = ids[static_cast<size_t>(schedule[i].object)];
            r.id = o.id;
            o.sent = nowS();
            engine.submit(r);
            inflight.push_back(i);
            ++i;
            continue;
        }
        harvest();
        if (now >= next_sample && now < t0 + window_s) {
            ph.queue_depth.push_back(
                static_cast<double>(engine.stats().decode_queue_depth));
            next_sample += kSampleS;
        }
        now = nowS();
        double wake = now + kPollS;
        if (i < n)
            wake = std::min(wake, t0 + schedule[i].t);
        if (wake > now)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(wake - now));
    }
    ph.cpu_s = cpuSeconds() - cpu0;
    ph.wall_s = nowS() - t0;
    ph.rss_mb = peakRssMb();
    if (ph.realtime) {
        sched_param normal{};
        sched_setscheduler(0, SCHED_OTHER, &normal);
    }
    return ph;
}

} // namespace perfbench
