/**
 * @file
 * A byte-accounting object store for progressively encoded images.
 *
 * Models the paper's deployment setting (Section I): images live in a
 * separate storage tier and every byte moved toward the compute tier is
 * metered. Readers request a *prefix of scans* per image; the store
 * returns the encoded prefix and charges exactly those bytes, which is
 * how the paper's 20-30% read-savings numbers are measured.
 *
 * Error contract: a read of an id that was never put() throws
 * Error{NotFound} — a data/request error the serving tier maps to a
 * per-request failure, never a process abort.
 *
 * Unified read API: fetchScanRange is the ONE read primitive — the
 * only method that physically delivers and meters payload bytes. A
 * decorator (FaultyObjectStore's injection, BreakerObjectStore's
 * admission) overrides exactly that one virtual method, so its
 * semantics — metering, faults, breaker verdicts — cover every read.
 */

#ifndef TAMRES_STORAGE_OBJECT_STORE_HH
#define TAMRES_STORAGE_OBJECT_STORE_HH

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "codec/progressive.hh"
#include "util/cancel.hh"

namespace tamres {

/** Cumulative read-side statistics. */
struct ReadStats
{
    uint64_t requests = 0;     //!< number of read calls
    uint64_t bytes_read = 0;   //!< bytes actually transferred
    uint64_t bytes_full = 0;   //!< bytes a full read would have cost

    // Injected-fault counters (zero on a clean store; bumped by
    // FaultyObjectStore so chaos harnesses can report what they did).
    uint64_t faults_delayed = 0;   //!< reads that hit injected latency
    uint64_t faults_transient = 0; //!< reads failed with Transient
    uint64_t faults_truncated = 0; //!< reads short-delivered on purpose
    uint64_t faults_corrupted = 0; //!< reads with an injected bit flip
    uint64_t faults_hung = 0;      //!< reads wedged until release/cancel

    // Circuit-breaker counters (zero without a BreakerObjectStore).
    uint64_t breaker_fast_fails = 0; //!< fetches rejected while Open
    uint64_t breaker_trips = 0;      //!< Closed/HalfOpen -> Open edges

    /** Fraction of a full-read workload actually transferred. */
    double
    relativeReadSize() const
    {
        return bytes_full == 0
                   ? 1.0
                   : static_cast<double>(bytes_read) / bytes_full;
    }

    /** Fraction of bytes saved vs. reading everything. */
    double savings() const { return 1.0 - relativeReadSize(); }

    void
    merge(const ReadStats &other)
    {
        requests += other.requests;
        bytes_read += other.bytes_read;
        bytes_full += other.bytes_full;
        faults_delayed += other.faults_delayed;
        faults_transient += other.faults_transient;
        faults_truncated += other.faults_truncated;
        faults_corrupted += other.faults_corrupted;
        faults_hung += other.faults_hung;
        breaker_fast_fails += other.breaker_fast_fails;
        breaker_trips += other.breaker_trips;
    }
};

/**
 * In-memory store of progressive images with metered reads.
 *
 * Concurrency contract: read-side calls (fetchScanRange, peek, stats)
 * are safe from multiple threads — the
 * staged serving engine's decode workers meter ranged reads
 * concurrently. put() is a structural mutation and must not race any
 * read: populate the store, then serve.
 *
 * Missing objects: every read-side method throws Error{NotFound} for an
 * id that is not in the store. Callers in the serving tier catch this
 * and fail the one request; it is not an invariant violation.
 */
class DecodeCache; // storage/decode_cache.hh

class ObjectStore
{
  public:
    virtual ~ObjectStore() = default;

    /**
     * Insert an encoded image under @p id (replaces any existing).
     * Invalidates the id in every attached DecodeCache: cached decoded
     * prefixes of the replaced bytes must never serve the new object.
     * Decorators forward put() to their base, so the invalidation
     * fires at any stack depth.
     */
    virtual void put(uint64_t id, EncodedImage image);

    /** True when @p id is present. */
    virtual bool contains(uint64_t id) const;

    /** Total stored bytes across all objects. */
    virtual uint64_t storedBytes() const;

    /** Number of stored objects. */
    virtual size_t size() const { return objects_.size(); }

    /**
     * THE virtual read primitive — every path that moves payload
     * bytes out of the store lands here, which is the single method a
     * decorator overrides.
     *
     * Physically deliver the bytes of scans [from_scans, to_scans) of
     * object @p id by appending them to @p dst, metering the appended
     * bytes. Requires dst.size() == scan_offsets[from_scans] of the
     * stored object — i.e. @p dst is a delivery buffer holding exactly
     * the scans before the range.
     *
     * @p charge_full controls the full-read denominator: it is charged
     * only when from_scans == 0 AND charge_full is true, so a caller
     * retrying a failed first fetch passes charge_full = false to avoid
     * double counting the logical request.
     *
     * @p max_bytes caps the appended bytes (a fault-injecting subclass
     * uses it to deliver short reads); the metered bytes equal what was
     * actually appended. Returns the appended byte count.
     *
     * @p cancel (optional) is a cooperative cancellation token. The
     * store delivers the range scan-by-scan and checks the token
     * between chunks; when it fires, the bytes already appended stay
     * appended AND metered (metering counts work done, not work used),
     * the full-read denominator is NOT charged, and the fetch throws
     * the token's reason-mapped error (Cancelled for client/deadline,
     * fail-fast Transient for watchdog/abandonment — see
     * util/cancel.hh).
     */
    virtual size_t fetchScanRange(uint64_t id, int from_scans,
                                  int to_scans,
                                  std::vector<uint8_t> &dst,
                                  bool charge_full = true,
                                  size_t max_bytes = SIZE_MAX,
                                  const CancelToken *cancel = nullptr);

    /** Access an object's metadata (scan sizes etc.). */
    virtual const EncodedImage &peek(uint64_t id) const;

    /** Cumulative read statistics (snapshot; safe while serving). */
    virtual ReadStats stats() const;

    /** Reset the read statistics (objects are kept). */
    virtual void resetStats();

    /**
     * The physical store at the bottom of a decorator stack (the
     * object that owns the bytes and runs put()). Decorators override
     * this to forward to their base; the plain store returns itself.
     */
    virtual ObjectStore &root() { return *this; }

    /**
     * Register @p cache for put-invalidation: every subsequent put()
     * of an id (through this store or any decorator over it — the
     * registration lands on root()) calls cache->invalidate(id). The
     * cache must outlive the store or detach first.
     */
    void attachCache(DecodeCache *cache);

    /** Remove a previously attached cache (no-op when absent). */
    void detachCache(DecodeCache *cache);

  private:
    const EncodedImage &get(uint64_t id) const;

    std::unordered_map<uint64_t, EncodedImage> objects_;
    mutable std::mutex stats_mu_; //!< guards stats_ only
    ReadStats stats_;
    mutable std::mutex cache_mu_; //!< guards caches_ only
    std::vector<DecodeCache *> caches_;
};

/**
 * Time/cost model for moving bytes from storage to compute.
 * Captures the paper's observation that storage and network usage are
 * billed and can dominate ("data stall") when bandwidth-bound.
 */
struct BandwidthModel
{
    double bytes_per_second = 500e6; //!< link bandwidth
    double request_latency_s = 2e-4; //!< fixed per-request overhead
    double dollars_per_gb = 0.02;    //!< metered egress cost

    /** Seconds to serve @p bytes in @p requests requests. */
    double
    transferSeconds(uint64_t bytes, uint64_t requests = 1) const
    {
        return static_cast<double>(bytes) / bytes_per_second +
               request_latency_s * static_cast<double>(requests);
    }

    /** Dollar cost of moving @p bytes. */
    double
    transferCost(uint64_t bytes) const
    {
        return static_cast<double>(bytes) / 1e9 * dollars_per_gb;
    }
};

} // namespace tamres

#endif // TAMRES_STORAGE_OBJECT_STORE_HH
