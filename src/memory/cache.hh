/**
 * @file
 * Set-associative cache timing model.
 *
 * Tag-only (no data array — the simulator tracks timing, not values),
 * true-LRU replacement, pipelined hits, and per-cycle port accounting.
 * Misses fill immediately on lookup (non-blocking, no limit on
 * outstanding misses): memory-level parallelism is then bounded by the
 * load/store queue capacity, which is exactly the effect the paper's
 * segmentation study depends on.
 */

#ifndef LSQSCALE_MEMORY_CACHE_HH
#define LSQSCALE_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace lsqscale {

/** Static cache geometry/timing configuration. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 2;
    unsigned blockBytes = 32;
    unsigned hitLatency = 2;   ///< pipelined
    unsigned ports = 4;        ///< accesses accepted per cycle
};

/** One level of the hierarchy. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Probe and update the cache for the block containing @p addr.
     *
     * On a miss the block is allocated (LRU victim evicted).
     * @return true on hit.
     */
    bool access(Addr addr);

    /**
     * Per-cycle port arbitration: returns true and consumes a port if
     * one is free in cycle @p now.
     */
    bool tryPort(Cycle now);

    /** Ports still free in cycle @p now. */
    unsigned freePorts(Cycle now) const;

    const CacheParams &params() const { return params_; }
    /** Block number of @p addr (addr / blockBytes). */
    Addr blockOf(Addr addr) const { return addr >> blockShift_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Export hit/miss counters into @p stats under "<name>.". */
    void exportStats(StatSet &stats) const;

    /**
     * Serialize tags/LRU/counters (checkpointing, docs/SAMPLING.md).
     * Port state is not saved: a fast-forward never arbitrates for a
     * port, and a restore targets a freshly built cache.
     */
    void saveState(SerialWriter &w) const;
    /** Restore state written by saveState (geometry must match). */
    void loadState(SerialReader &r);

  private:
    std::uint64_t setIndex(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;

    CacheParams params_;
    std::uint64_t numSets_;
    // Both powers of two, so index and tag are shifts, not divisions.
    unsigned blockShift_;
    unsigned setShift_;

    /**
     * Ways are numSets * assoc, set-major. Tags and stamps are kept
     * apart so a hit scans one set's tags contiguously; an empty way
     * holds kEmpty, which no tag reaches (a tag has at most 63 bits).
     */
    static constexpr std::uint64_t kEmpty = ~0ULL;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lru_;   ///< last-touch stamp
    std::uint64_t stamp_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    Cycle portCycle_ = kNoCycle;
    unsigned portsUsed_ = 0;
};

} // namespace lsqscale

#endif // LSQSCALE_MEMORY_CACHE_HH
