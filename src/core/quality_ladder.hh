/**
 * @file
 * The quality-tier ladder: the one load-shedding mechanism both
 * serving engines share (the paper's Section VIII-a resolution knob,
 * generalized to every quality axis the engines own).
 *
 * A ladder is an ordered list of tiers: index 0 is full quality, each
 * later tier a deeper concession, and an empty ladder means shedding
 * is off. Two signals pick a tier index, and the higher one is served:
 * the instantaneous queue depth (depthTier; stateless), and a
 * QualityController's hysteretic walk driven by the windowed fraction
 * of bad terminal outcomes. The flat ServingEngine has no outcome feed
 * and reads the depth signal only; the StagedServingEngine runs both.
 * Shedding policies are ladder configurations (the factories below),
 * not code paths.
 */

#ifndef TAMRES_CORE_QUALITY_LADDER_HH
#define TAMRES_CORE_QUALITY_LADDER_HH

#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "util/clock.hh"
#include "util/windowed.hh"

namespace tamres {

/** One rung of the ladder. Caps of 0 leave that axis uncapped. */
struct QualityTier
{
    int preview_cap = 0;    //!< max preview scans
    int scan_cap = 0;       //!< max total scans (never below preview)
    int resolution_cap = 0; //!< serve at most this square resolution
    bool int8 = false;      //!< serve on the quantized backbone
    bool admit = true;      //!< false: refuse new work (Rejected)
    /** Engage when the queue is deeper than this (default: never). */
    int engage_depth = std::numeric_limits<int>::max();
};

/** Ordered tiers, [0] = full quality; empty = shedding off. */
using QualityLadder = std::vector<QualityTier>;

/** Highest tier whose engage_depth @p queue_depth exceeds, else 0. */
int depthTier(const QualityLadder &ladder, int queue_depth);

/**
 * Paper Section VIII-a: serve at most @p shed_resolution while the
 * queue is deeper than @p shed_depth, native resolution otherwise.
 */
QualityLadder resolutionShedLadder(int shed_depth, int shed_resolution);

/**
 * Precision before resolution (int8 costs ~1% accuracy proxy, less
 * than a resolution drop): deeper than @p int8_depth serves int8;
 * deeper than @p shed_depth (>= int8_depth) also caps resolution at
 * @p shed_resolution (0 = no cap).
 */
QualityLadder precisionFirstLadder(int int8_depth, int shed_depth,
                                   int shed_resolution);

/**
 * Hysteresis of the outcome-window signal. When the windowed bad
 * fraction reaches high_pressure (with min_samples of evidence and
 * min_dwell_s since the last shift) the tier steps UP one rung; at or
 * below low_pressure it steps DOWN. The window resets on every shift,
 * so each tier is judged on its own evidence. A tier whose window
 * stays empty for a full window (a non-admitting tier: refusals are
 * no evidence) steps down on the next tick().
 */
struct QualityWindowConfig
{
    double window_s = 0.5;      //!< outcome-window length
    int min_samples = 8;        //!< evidence needed before a shift
    double high_pressure = 0.5; //!< bad fraction that raises the tier
    double low_pressure = 0.1;  //!< bad fraction that lowers it
    double min_dwell_s = 0.25;  //!< min time between shifts
    /** Patient recovery (0 = min_samples / min_dwell_s). */
    int recovery_samples = 0;    //!< window evidence to step down
    double recovery_dwell_s = 0; //!< min time at a tier before down
};

/** Controller state and transition counters. */
struct QualityStats
{
    int window_tier = 0;     //!< current outcome-window tier
    uint64_t drops = 0;      //!< window tier increments
    uint64_t recoveries = 0; //!< window tier decrements
};

/**
 * Serves the higher of the depth and outcome-window tier indices.
 * Thread-safe; time comes from the injected Clock, so every
 * transition replays deterministically on a ManualClock.
 */
class QualityController
{
  public:
    /** A Done with less than this deadline fraction left is bad. */
    static constexpr double kHeadroomFrac = 0.2;

    QualityController(QualityLadder ladder, QualityWindowConfig window,
                      Clock &clock);

    /** Tier to serve at for @p queue_depth (full on an empty ladder). */
    const QualityTier &select(int queue_depth) const;

    /**
     * Feed one terminal outcome: bad unless @p done and within
     * headroom of @p deadline_s (0 = none).
     */
    void record(bool done, double latency_s, double deadline_s);

    /** Run the transitions for a terminal that is no evidence. */
    void tick();

    QualityStats stats() const;

  private:
    void evaluateLocked(double now);

    QualityLadder ladder_;
    QualityWindowConfig cfg_;
    Clock *clock_;

    mutable std::mutex mu_;
    WindowedOutcomes window_;
    double last_shift_s_;
    QualityStats stats_;
};

} // namespace tamres

#endif // TAMRES_CORE_QUALITY_LADDER_HH
