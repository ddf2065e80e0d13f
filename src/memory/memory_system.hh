/**
 * @file
 * The full memory hierarchy: split L1 I/D, unified L2, flat memory.
 *
 * Latencies follow Table 1 of the paper: pipelined 2-cycle L1 hits
 * (64K, 2-way, 32B blocks; 2 I-ports / 4 D-ports), pipelined 12-cycle
 * L2 hits (2M, 8-way, 64B blocks), and a 150-cycle memory.
 */

#ifndef LSQSCALE_MEMORY_MEMORY_SYSTEM_HH
#define LSQSCALE_MEMORY_MEMORY_SYSTEM_HH

#include "common/stats.hh"
#include "common/types.hh"
#include "memory/cache.hh"

namespace lsqscale {

/** Hierarchy-wide configuration. */
struct MemoryParams
{
    CacheParams l1i{"l1i", 64 * 1024, 2, 32, 2, 2};
    CacheParams l1d{"l1d", 64 * 1024, 2, 32, 2, 4};
    CacheParams l2{"l2", 2 * 1024 * 1024, 8, 64, 12, 4};
    unsigned memLatency = 150;
};

/** Result of a timing access. */
struct MemAccessResult
{
    Cycle readyCycle;   ///< cycle the data (or write ack) is available
    bool l1Hit;
    bool l2Hit;         ///< meaningful only when !l1Hit
};

/**
 * Timing-only memory system.
 *
 * Accesses are non-blocking: each access independently computes its
 * completion cycle from the levels it traverses, with no limit on
 * outstanding misses (the paper names none; memory-level parallelism
 * is bounded by the load queue, see DESIGN.md §4). Port limits apply at
 * the L1s (the caller checks/consumes D-cache ports before issuing a
 * load; fetch consumes I-cache ports).
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemoryParams &params = MemoryParams());

    /** Data access (load or committed store). */
    MemAccessResult accessData(Cycle now, Addr addr, bool isWrite);

    /** Instruction fetch access for the block containing @p pc. */
    MemAccessResult accessInst(Cycle now, Addr pc);

    Cache &l1d() { return l1d_; }
    Cache &l1i() { return l1i_; }
    Cache &l2() { return l2_; }
    const MemoryParams &params() const { return params_; }

    void exportStats(StatSet &stats) const;

    /** Serialize all caches (checkpointing, docs/SAMPLING.md). */
    void saveState(SerialWriter &w) const;
    /** Restore state written by saveState (geometry must match). */
    void loadState(SerialReader &r);

  private:
    MemAccessResult walk(Cycle now, Addr addr, Cache &l1);

    MemoryParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
};

} // namespace lsqscale

#endif // LSQSCALE_MEMORY_MEMORY_SYSTEM_HH
