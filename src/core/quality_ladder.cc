#include "core/quality_ladder.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tamres {

int
depthTier(const QualityLadder &ladder, int queue_depth)
{
    int idx = 0;
    for (size_t i = 1; i < ladder.size(); ++i) {
        if (queue_depth > ladder[i].engage_depth)
            idx = static_cast<int>(i);
    }
    return idx;
}

QualityLadder
resolutionShedLadder(int shed_depth, int shed_resolution)
{
    return {{},
            {.resolution_cap = shed_resolution,
             .engage_depth = shed_depth}};
}

QualityLadder
precisionFirstLadder(int int8_depth, int shed_depth,
                     int shed_resolution)
{
    tamres_assert(int8_depth <= shed_depth,
                  "precision sheds before resolution: int8_depth must "
                  "not exceed shed_depth");
    return {{},
            {.int8 = true, .engage_depth = int8_depth},
            {.resolution_cap = shed_resolution,
             .int8 = true,
             .engage_depth = shed_depth}};
}

QualityController::QualityController(QualityLadder ladder,
                                     QualityWindowConfig window,
                                     Clock &clock)
    : ladder_(std::move(ladder)), cfg_(window), clock_(&clock),
      window_(cfg_.window_s > 0 ? cfg_.window_s : 0.5),
      last_shift_s_(clock.now())
{
    if (cfg_.recovery_samples <= 0)
        cfg_.recovery_samples = cfg_.min_samples;
    if (cfg_.recovery_dwell_s <= 0)
        cfg_.recovery_dwell_s = cfg_.min_dwell_s;
}

const QualityTier &
QualityController::select(int queue_depth) const
{
    static const QualityTier kFull;
    if (ladder_.empty())
        return kFull;
    std::lock_guard<std::mutex> lock(mu_);
    return ladder_[static_cast<size_t>(std::max(
        depthTier(ladder_, queue_depth), stats_.window_tier))];
}

void
QualityController::record(bool done, double latency_s,
                          double deadline_s)
{
    const bool late = deadline_s > 0.0 &&
                      latency_s > (1.0 - kHeadroomFrac) * deadline_s;
    std::lock_guard<std::mutex> lock(mu_);
    const double now = clock_->now();
    window_.record(now, !done || late);
    evaluateLocked(now);
}

void
QualityController::tick()
{
    std::lock_guard<std::mutex> lock(mu_);
    evaluateLocked(clock_->now());
}

QualityStats
QualityController::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
QualityController::evaluateLocked(double now)
{
    const int tier = stats_.window_tier;
    const int64_t n = window_.total(now);
    const double frac = window_.badFraction(now);
    const double since = now - last_shift_s_;
    int step = 0;
    if (tier + 1 < static_cast<int>(ladder_.size()) &&
        n >= cfg_.min_samples && frac >= cfg_.high_pressure &&
        since >= cfg_.min_dwell_s)
        step = +1;
    // Down on healthy evidence, or idle: a tier that sees no outcomes
    // (a non-admitting tier) would never collect that evidence.
    else if (tier > 0 && since >= cfg_.recovery_dwell_s &&
             ((n >= cfg_.recovery_samples && frac <= cfg_.low_pressure) ||
              (n == 0 && since >= cfg_.window_s)))
        step = -1;
    if (step == 0)
        return;
    stats_.window_tier += step;
    ++(step > 0 ? stats_.drops : stats_.recoveries);
    last_shift_s_ = now;
    window_.reset();
}

} // namespace tamres
