/**
 * @file
 * One measured phase: the open-loop generator that drives a staged
 * engine from a single thread, plus the store decorator the traced
 * phase uses to time every physical fetch.
 */

#ifndef PERFBENCH_PHASE_HH
#define PERFBENCH_PHASE_HH

#include <memory>
#include <mutex>
#include <vector>

#include "bench_lib.hh"
#include "core/staged_engine.hh"
#include "storage/object_store.hh"

namespace perfbench {

/** One fetchScanRange call as the engine saw it. */
struct FetchRecord
{
    uint64_t id = 0;
    int from = 0;
    int to = 0;
    size_t bytes = 0;
    bool ok = true;
    double start = 0.0;
    double end = 0.0;
};

/**
 * ObjectStore decorator that records a FetchRecord around the single
 * virtual read primitive and forwards everything else to its base.
 */
class TracingStore : public tamres::ObjectStore
{
  public:
    explicit TracingStore(tamres::ObjectStore &base) : base_(&base) {}

    void put(uint64_t id, tamres::EncodedImage image) override;
    bool contains(uint64_t id) const override;
    uint64_t storedBytes() const override;
    size_t size() const override;
    const tamres::EncodedImage &peek(uint64_t id) const override;
    tamres::ReadStats stats() const override;
    void resetStats() override;
    tamres::ObjectStore &root() override { return base_->root(); }

    size_t fetchScanRange(uint64_t id, int from_scans, int to_scans,
                          std::vector<uint8_t> &dst, bool charge_full,
                          size_t max_bytes = SIZE_MAX,
                          const tamres::CancelToken *cancel =
                              nullptr) override;

    /** Records so far (call after the engine has stopped). */
    std::vector<FetchRecord> records() const;

  private:
    tamres::ObjectStore *base_;
    mutable std::mutex mu_;
    std::vector<FetchRecord> records_;
};

/** What the generator saw of one request. */
struct Outcome
{
    double sched = 0.0; //!< scheduled send (absolute seconds)
    double sent = 0.0;  //!< submit() call
    double done = 0.0;  //!< terminal state observed
    uint64_t id = 0;
};

/** What the generator recorded (engine counters are read after stop). */
struct Phase
{
    std::vector<Outcome> out;
    std::unique_ptr<tamres::StagedRequest[]> reqs;
    double cpu_s = 0.0;    //!< process CPU, first send -> last terminal
    double wall_s = 0.0;   //!< first send -> last terminal
    std::vector<double> queue_depth; //!< sampled every 50 ms
    double rss_mb = 0.0;
    bool realtime = false; //!< generator ran under SCHED_FIFO
};

/**
 * Drive a freshly started @p engine open-loop through @p schedule
 * (times relative to the phase start) from the calling thread alone.
 * There is no warm-up traffic: the window starts with cold caches and
 * controllers, which every run repeats, so the phase measures the same
 * start-up transient each time. It sends each request
 * at its scheduled time, harvests terminal requests between sends,
 * and returns once every request is terminal. @p base is the physical
 * store whose meter the phase snapshots.
 */
Phase runPhase(tamres::StagedServingEngine &engine,
               tamres::ObjectStore &base,
               const std::vector<Arrival> &schedule,
               const std::vector<uint64_t> &ids, double window_s);

} // namespace perfbench

#endif // PERFBENCH_PHASE_HH
