/**
 * @file
 * Deterministic fault injection for the storage tier.
 *
 * FaultyObjectStore wraps a base ObjectStore and perturbs its byte
 * deliveries the way a real remote object store misbehaves under load:
 * per-read latency with a heavy tail, transient request failures,
 * short (truncated) ranged reads, and in-flight bit corruption. Every
 * decision is a pure function of (policy seed, object id, scan range,
 * attempt number), so a chaos run replays bit-identically from one
 * seed — the property the fault-schedule tests and the BENCH_faults
 * harness rely on.
 *
 * Only fetchScanRange() — the ONE read primitive of the unified
 * ObjectStore API — is overridden, and that is sufficient: every
 * payload byte leaves the store through it, so injected faults reach
 * every read identically. Injection perturbs the per-request
 * delivery buffer, never the store's pristine copy; metadata access
 * (peek) stays untouched.
 */

#ifndef TAMRES_STORAGE_FAULT_INJECTION_HH
#define TAMRES_STORAGE_FAULT_INJECTION_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/object_store.hh"

namespace tamres {

/** Identifies one delivery attempt for deterministic fault draws. */
struct FaultContext
{
    uint64_t id;        //!< object being read
    int from_scans;     //!< range start (scan index)
    int to_scans;       //!< range end (exclusive)
    int attempt;        //!< 0 for the first try of this exact range
    size_t range_bytes; //!< clean size of the requested range
};

/**
 * What to do to one delivery. deliver_bytes == SIZE_MAX means deliver
 * everything; flip_bit < 0 means no corruption. A scripted schedule
 * (FaultScript) returns these directly; the stochastic policy draws
 * them from the seeded Rng.
 */
struct FaultDecision
{
    double delay_s = 0;               //!< added latency before delivery
    bool fail = false;                //!< throw Error{Transient}
    size_t deliver_bytes = SIZE_MAX;  //!< cap on delivered bytes
    int64_t flip_bit = -1;            //!< bit index to flip in the range
    /**
     * Wedge this read indefinitely: it blocks until the caller's
     * CancelToken fires or releaseHangs() is called, then throws
     * (nothing is delivered). Unlike delay_s — which is capped at
     * latency_max_s and always completes — a hang models a truly
     * stuck I/O that only supervision can unblock.
     */
    bool hang = false;
};

/** Scripted fault schedule: full control for deterministic tests. */
using FaultScript = std::function<FaultDecision(const FaultContext &)>;

/**
 * Stochastic fault policy. Probabilities are per fetchScanRange call;
 * the latency tail is Pareto(alpha = 2), scale latency_tail_scale_s,
 * capped at latency_max_s. A non-null script overrides the stochastic
 * draws entirely.
 */
struct FaultPolicy
{
    uint64_t seed = 1;               //!< master seed for all draws

    double latency_fixed_s = 0;      //!< added to every read
    double latency_tail_p = 0;       //!< P(read hits the heavy tail)
    double latency_tail_scale_s = 0; //!< Pareto scale of the tail
    double latency_max_s = 0.05;     //!< hard cap on injected delay

    double transient_p = 0;          //!< P(throw Error{Transient})
    double truncate_p = 0;           //!< P(short delivery)
    double corrupt_p = 0;            //!< P(one bit flip in the range)
    double hang_p = 0;               //!< P(read wedges indefinitely)

    FaultScript script;              //!< when set, replaces the draws
};

/**
 * ObjectStore decorator that injects faults into fetchScanRange.
 *
 * Thread safety matches the base store: concurrent reads are safe (the
 * per-range attempt counters sit behind their own mutex). stats()
 * returns the BASE store's accounting merged with this wrapper's fault
 * counters, so existing byte-savings assertions keep holding.
 *
 * The wrapper does not own the base store; it must outlive the wrapper.
 */
class FaultyObjectStore : public ObjectStore
{
  public:
    FaultyObjectStore(ObjectStore &base, FaultPolicy policy)
        : base_(&base), policy_(std::move(policy))
    {}

    // Structural + pass-through surface.
    void put(uint64_t id, EncodedImage image) override;
    bool contains(uint64_t id) const override;
    uint64_t storedBytes() const override;
    size_t size() const override;
    const EncodedImage &peek(uint64_t id) const override;
    ReadStats stats() const override;
    void resetStats() override;
    ObjectStore &root() override { return base_->root(); }

    /** The perturbed path: delay / fail / hang / truncate / corrupt. */
    size_t fetchScanRange(uint64_t id, int from_scans, int to_scans,
                          std::vector<uint8_t> &dst, bool charge_full,
                          size_t max_bytes = SIZE_MAX,
                          const CancelToken *cancel = nullptr) override;

    const FaultPolicy &policy() const { return policy_; }

    /** Reset the per-range attempt counters (replays the schedule). */
    void resetAttempts();

    /**
     * Permanently release every hung read, current and future: wedged
     * fetches wake and throw Error{Transient, "hung read released"},
     * and later hang decisions throw immediately instead of blocking.
     * The escape hatch for tearing down an unsupervised configuration
     * whose workers are wedged on purpose.
     */
    void releaseHangs();

  private:
    FaultDecision decide(const FaultContext &ctx);

    ObjectStore *base_;
    FaultPolicy policy_;

    mutable std::mutex mu_; //!< guards attempts_, fault_stats_, hangs
    std::condition_variable hang_cv_;
    bool hangs_released_ = false;
    std::unordered_map<uint64_t, int> attempts_; //!< keyed on range
    ReadStats fault_stats_; //!< only the faults_* fields are used
};

} // namespace tamres

#endif // TAMRES_STORAGE_FAULT_INJECTION_HH
