/**
 * @file
 * Golden sequential memory image for the ordering oracle.
 *
 * The oracle shadow-executes the *committed* instruction stream in
 * program order: every store updates the image when it commits, every
 * load is resolved against it when it commits. Because the pipeline
 * commits in order, the image at a load's commit contains exactly the
 * stores older than the load — so "the last committed writer of this
 * address" *is* the load's architecturally correct value source, with
 * no reasoning about in-flight state required (the QED-style reference
 * model of PAPERS.md).
 *
 * The image also keeps, per address, the last committed load's final
 * execute cycle: committed same-address loads must have monotonically
 * non-decreasing execute cycles when a load-load ordering policy is
 * active (a detected violation squashes and re-executes the younger
 * load, pushing its final execution later).
 */

#ifndef LSQSCALE_CHECK_MEMORY_ORACLE_HH
#define LSQSCALE_CHECK_MEMORY_ORACLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace lsqscale {

/** Program-order shadow memory consulted by the LsqChecker. */
class MemoryOracle
{
  public:
    /** Last committed store to an address. */
    struct StoreRecord
    {
        SeqNum seq = kNoSeq;
        Pc pc = 0;
        /** Cycle the store's address became architecturally visible. */
        Cycle addrReadyCycle = kNoCycle;
        /** Cycle the store committed (wrote the data cache). */
        Cycle commitCycle = kNoCycle;
    };

    /** Last committed load from an address. */
    struct LoadRecord
    {
        SeqNum seq = kNoSeq;
        Pc pc = 0;
        /** Final (committed) execution cycle. */
        Cycle executeCycle = kNoCycle;
    };

    /**
     * Retire a store into the golden image.
     * @return false if commit order regressed (seq not monotonically
     *         increasing over all committed memory ops).
     */
    bool commitStore(SeqNum seq, Pc pc, Addr addr, Cycle addrReadyCycle,
                     Cycle commitCycle);

    /**
     * Retire a load.
     * @return false if commit order regressed.
     */
    bool commitLoad(SeqNum seq, Pc pc, Addr addr, Cycle executeCycle);

    /** Youngest committed store to @p addr, or nullptr. */
    const StoreRecord *lastStore(Addr addr) const;

    /** Youngest committed load from @p addr, or nullptr. */
    const LoadRecord *lastLoad(Addr addr) const;

    std::uint64_t commits() const { return commits_; }

    // ------------------------------------- remote (coherence) writes --
    /**
     * Record a remote agent's write to @p addr that became globally
     * visible at @p visibleAt (the cycle its invalidation probe was
     * delivered). Per-address visibility times must be non-decreasing
     * — probes to one line are delivered in order.
     */
    void noteRemoteWrite(Addr addr, Cycle visibleAt);

    /**
     * True if a remote write to @p addr became visible strictly inside
     * the open interval (@p after, @p before). The probe-squash
     * invariant: a committed, non-forwarded load that executed at
     * `after` while an older load only executed at `before` must have
     * been squashed by any such write.
     */
    bool remoteWriteBetween(Addr addr, Cycle after, Cycle before) const;

    /**
     * Largest final execute cycle over all committed loads, or kNoCycle
     * before the first load commits.
     */
    Cycle maxCommittedLoadExec() const { return maxLoadExec_; }

  private:
    bool advanceCommitOrder(SeqNum seq);

    std::unordered_map<Addr, StoreRecord> image_;
    std::unordered_map<Addr, LoadRecord> loads_;
    /** Per-address visibility cycles of remote writes (sorted). */
    std::unordered_map<Addr, std::vector<Cycle>> remoteWrites_;
    SeqNum lastCommit_ = 0;
    bool anyCommit_ = false;
    std::uint64_t commits_ = 0;
    Cycle maxLoadExec_ = kNoCycle;
};

} // namespace lsqscale

#endif // LSQSCALE_CHECK_MEMORY_ORACLE_HH
