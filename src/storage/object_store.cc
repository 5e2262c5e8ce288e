#include "storage/object_store.hh"

#include <algorithm>

#include "storage/decode_cache.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace tamres {

void
ObjectStore::put(uint64_t id, EncodedImage image)
{
    objects_[id] = std::move(image);
    // Replacing an object's bytes makes any cached decode of the old
    // bytes wrong — drop them before anyone can resume from them.
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (DecodeCache *cache : caches_)
        cache->invalidate(id);
}

void
ObjectStore::attachCache(DecodeCache *cache)
{
    ObjectStore &r = root();
    std::lock_guard<std::mutex> lock(r.cache_mu_);
    r.caches_.push_back(cache);
}

void
ObjectStore::detachCache(DecodeCache *cache)
{
    ObjectStore &r = root();
    std::lock_guard<std::mutex> lock(r.cache_mu_);
    r.caches_.erase(
        std::remove(r.caches_.begin(), r.caches_.end(), cache),
        r.caches_.end());
}

bool
ObjectStore::contains(uint64_t id) const
{
    return objects_.count(id) != 0;
}

uint64_t
ObjectStore::storedBytes() const
{
    uint64_t total = 0;
    for (const auto &[id, obj] : objects_)
        total += obj.totalBytes();
    return total;
}

const EncodedImage &
ObjectStore::get(uint64_t id) const
{
    auto it = objects_.find(id);
    // A missing id is a request error (bad manifest, deleted object),
    // not a library bug: callers map it to a per-request failure.
    tamres_check(it != objects_.end(), ErrorKind::NotFound,
                 "object %llu not in store",
                 static_cast<unsigned long long>(id));
    return it->second;
}

size_t
ObjectStore::fetchScanRange(uint64_t id, int from_scans, int to_scans,
                            std::vector<uint8_t> &dst, bool charge_full,
                            size_t max_bytes, const CancelToken *cancel)
{
    const EncodedImage &obj = get(id);
    tamres_assert(from_scans >= 0 && to_scans >= from_scans &&
                  to_scans <= obj.numScans(),
                  "invalid incremental scan range [%d, %d]",
                  from_scans, to_scans);
    const size_t begin = obj.bytesForScans(from_scans);
    const size_t end = obj.bytesForScans(to_scans);
    tamres_assert(dst.size() == begin,
                  "delivery buffer holds %zu bytes, range starts at "
                  "%zu", dst.size(), begin);
    const size_t take = std::min(end - begin, max_bytes);
    // Deliver scan-at-a-time so a cooperative cancellation can land
    // between chunks: the delivered prefix always ends exactly where
    // metering says it does, and the caller's buffer never holds a
    // chunk the stats have not charged.
    size_t appended = 0;
    bool fired = false;
    for (int s = from_scans; s < to_scans && appended < take; ++s) {
        if (cancel != nullptr && cancel->fired()) {
            fired = true;
            break;
        }
        const size_t lo = obj.bytesForScans(s);
        const size_t hi =
            std::min(obj.bytesForScans(s + 1), begin + take);
        dst.insert(dst.end(), obj.bytes.begin() + lo,
                   obj.bytes.begin() + hi);
        appended += hi - lo;
    }
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.requests;
        stats_.bytes_read += appended;
        // Charge the full-read denominator once per logical request:
        // on the first successful prefix-starting fetch. Retries of a
        // failed from == 0 fetch pass charge_full = false, and a
        // cancelled delivery never charges it (the logical request is
        // over, not served).
        if (from_scans == 0 && charge_full && !fired)
            stats_.bytes_full += obj.totalBytes();
    }
    if (fired)
        cancel->throwIfFired();
    return appended;
}

const EncodedImage &
ObjectStore::peek(uint64_t id) const
{
    return get(id);
}

ReadStats
ObjectStore::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

void
ObjectStore::resetStats()
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = ReadStats{};
}

} // namespace tamres
