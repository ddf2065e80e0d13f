/**
 * @file
 * The load/store queue model.
 *
 * One class implements every design point of the paper:
 *
 *  - a conventional split LQ/SQ with N search ports (numSegments = 1);
 *  - the store-load pair predictor scheme: the core gates SQ searches
 *    per prediction and violation detection moves to store commit;
 *  - the load buffer: load-load ordering checks leave the LQ;
 *  - the segmented queue: per-segment ports, pipelined multi-segment
 *    searches, variable load latency, allocation policies, and the
 *    contention rule of Section 3.2.
 *
 * Three searches exist (Figure 1 of the paper):
 *  1. load execute  -> SQ  : youngest older matching store (forwarding)
 *  2. store (exec or commit) -> LQ : oldest younger premature load
 *     (store-load order violation)
 *  3. load execute  -> LQ or load buffer : younger same-address load
 *     issued out of order (load-load order violation)
 */

#ifndef LSQSCALE_LSQ_LSQ_HH
#define LSQSCALE_LSQ_LSQ_HH

#include <deque>
#include <span>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "lsq/load_buffer.hh"
#include "lsq/lsq_params.hh"
#include "lsq/port_schedule.hh"
#include "lsq/segment_allocator.hh"

namespace lsqscale {

class LsqChecker;
class Tracer;

/** Why a load could not issue this cycle. */
enum class LoadIssueStatus : std::uint8_t {
    Accepted,
    NoSqPort,       ///< no SQ search port free this cycle
    NoLqPort,       ///< no LQ search port free this cycle
    LoadBufferFull, ///< out-of-order load, load buffer full
    InOrderStall,   ///< in-order policy: an older load is non-issued
    Contention,     ///< future segment slot booked (squash & replay)
};

/** Result of a load issue attempt. */
struct LoadIssueOutcome
{
    LoadIssueStatus status = LoadIssueStatus::Accepted;

    bool searchedSq = false;
    bool forwarded = false;
    SeqNum forwardedFrom = kNoSeq;
    Pc forwardedFromPc = 0;

    /** Segments visited by the SQ forwarding search. */
    unsigned sqSegmentsVisited = 0;
    /** Cycle the (slower of the) searches completes. */
    Cycle searchDoneCycle = 0;
    /**
     * True when the load's latency is knowable at issue (head-segment
     * rule, Section 3): dependents keep early wakeup.
     */
    bool constantLatency = true;

    /**
     * Load-load order violations detected by this issue (the issuing
     * load's own search plus any deferred searches triggered by NILP
     * advancing). Values are the *violating* (younger) loads' seqs.
     */
    std::vector<SeqNum> llViolations;
};

/** Result of a store-initiated LQ search (execute- or commit-time). */
struct StoreSearchOutcome
{
    bool accepted = false;      ///< false: no port, retry next cycle
    bool contention = false;    ///< segmented: future slot booked
    SeqNum violationLoad = kNoSeq;
    Pc violationLoadPc = 0;
    unsigned segmentsVisited = 0;
    Cycle searchDoneCycle = 0;
};

/** The load/store queue. */
class Lsq
{
  public:
    Lsq(const LsqParams &params, StatSet &stats);

    // ------------------------------------------------ allocation -----
    bool canAllocateLoad() const { return loadAlloc().canAllocate(); }
    bool canAllocateStore() const
    {
        return storeAlloc().canAllocate();
    }
    void allocateLoad(SeqNum seq, Pc pc);
    void allocateStore(SeqNum seq, Pc pc);

    // ------------------------------------------------ oracle ---------
    /**
     * True if an older store with a valid matching address is in the
     * SQ. Used by the Perfect SQ-search policy and by tests.
     */
    bool olderMatchingStore(SeqNum loadSeq, Addr addr) const;

    /**
     * Store-set wait support: true if the store @p seq is still in the
     * SQ without a valid address (i.e. has not executed).
     */
    bool storePendingAddress(SeqNum seq) const;

    /**
     * Total-order baseline support: true if any store older than
     * @p loadSeq has not yet exposed its address.
     */
    bool anyOlderStoreUnaddressed(SeqNum loadSeq) const;

    // ------------------------------------------------ execution ------
    /**
     * Attempt to issue the load @p seq with effective address @p addr
     * at cycle @p now. @p wantSqSearch reflects the SQ-search policy
     * decision made by the core.
     */
    LoadIssueOutcome issueLoad(SeqNum seq, Addr addr, Cycle now,
                               bool wantSqSearch);

    /**
     * The store @p seq computed its address at cycle @p now. In the
     * conventional scheme this also performs the LQ violation search
     * (and can be rejected for lack of a port — retry next cycle).
     */
    StoreSearchOutcome storeAddrReady(SeqNum seq, Addr addr, Cycle now);

    /**
     * External invalidation (Section 2.2's "scheme 2", MIPS R10000
     * style): another processor wrote @p addr. Searches the LQ for
     * any outstanding load to that address; the caller squashes the
     * oldest match. Consumes an LQ search port (rejected when none is
     * free this cycle — the coherence controller retries).
     */
    StoreSearchOutcome invalidate(Addr addr, Cycle now);

    // ------------------------------------------------ commit ---------
    /**
     * Commit the store at the SQ head (must be @p seq). Performs the
     * commit-time LQ search when checkViolationsAtCommit is set; a
     * port shortfall rejects the commit (caller retries — "delaying
     * the commit of the store" per Section 3.2).
     */
    StoreSearchOutcome commitStore(SeqNum seq, Cycle now);

    /** Commit the load at the LQ head (must be @p seq). */
    void commitLoad(SeqNum seq);

    /**
     * Snapshot of the LQ-head load the core is about to commit:
     * feeds coherence-agent observation (memory/probe_agent.hh)
     * without widening commitLoad's interface.
     */
    struct CommittedLoadInfo
    {
        Addr addr = 0;
        Cycle executeCycle = kNoCycle;
        SeqNum forwardedFrom = kNoSeq;
    };
    CommittedLoadInfo
    headLoadInfo() const
    {
        LSQ_ASSERT(!lq_.empty(), "headLoadInfo on an empty LQ");
        const LoadEntry &e = lq_.front();
        return CommittedLoadInfo{e.addr, e.executeCycle,
                                 e.forwardedFrom};
    }

    // ------------------------------------------------ recovery -------
    /** Remove every entry with sequence number >= @p seq. */
    void squashFrom(SeqNum seq);

    // ------------------------------------------------ stats ----------
    /** Call once per cycle to sample occupancy histograms. */
    void sampleOccupancy();

    unsigned lqLive() const
    {
        return static_cast<unsigned>(lq_.size());
    }
    unsigned sqLive() const
    {
        return static_cast<unsigned>(sq_.size());
    }
    /** Live loads currently allocated to segment @p seg. */
    unsigned lqSegmentLive(unsigned seg) const
    {
        return loadAlloc().occupancy(seg);
    }
    /** Live stores currently allocated to segment @p seg. */
    unsigned sqSegmentLive(unsigned seg) const
    {
        return storeAlloc().occupancy(seg);
    }
    const LsqParams &params() const { return params_; }
    const LoadBuffer &loadBuffer() const { return lb_; }

    // ------------------------------------------------ checking -------
    /**
     * Attach a memory-ordering oracle (src/check/lsq_checker.hh): a
     * pure observer notified of every accepted state transition. The
     * hook sites cost one null-pointer test per LSQ event. Pass
     * nullptr to detach. The checker must outlive this Lsq (or be
     * detached).
     */
    void attachChecker(LsqChecker *checker) { checker_ = checker; }
    LsqChecker *checker() const { return checker_; }

    /**
     * Attach an event tracer (src/obs/trace.hh): a pure observer that
     * records search/forwarding/load-buffer events. Each hook site
     * costs one null-pointer test. Pass nullptr to detach. The tracer
     * must outlive this Lsq (or be detached).
     */
    void attachTracer(Tracer *tracer) { tracer_ = tracer; }
    Tracer *tracer() const { return tracer_; }

    // ------------------------------------------------ fault injection
    /**
     * Deterministically corrupt resident store-queue state: flip one
     * address bit in every store whose address is valid (the bit
     * position derives from @p seed). Models a latent datapath fault;
     * a run with LSQSCALE_CHECK=1 detects the divergence on the next
     * affected forwarding/ordering decision and panics with
     * provenance. @return false when no store had a valid address yet
     * (nothing corrupted — the injector retries next cycle).
     */
    bool injectStateCorruption(std::uint64_t seed);

    // ------------------------------------------------ checkpointing --
    /**
     * Serialize the drained-queue state (checkpointing,
     * docs/SAMPLING.md). Only legal when the queues are empty — a
     * checkpoint is taken at a quiesced pipeline — but the segment
     * allocators' rotation positions persist across the drain and are
     * captured here.
     */
    void saveState(SerialWriter &w) const;
    /** Restore state written by saveState (geometry must match). */
    void loadState(SerialReader &r);

  private:
    struct LoadEntry
    {
        SeqNum seq;
        Pc pc;
        unsigned segment;
        Addr addr = 0;
        bool executed = false;
        Cycle executeCycle = kNoCycle;
        SeqNum forwardedFrom = kNoSeq;
        bool wasOoo = false;
    };

    struct StoreEntry
    {
        SeqNum seq;
        Pc pc;
        unsigned segment;
        Addr addr = 0;
        bool addrValid = false;
    };

    // Both queues hold entries in program order, so every lookup by
    // sequence number is a binary search.
    LoadEntry *findLoad(SeqNum seq);
    StoreEntry *findStore(SeqNum seq);

    /**
     * First segment of the SQ forwarding walk for the load @p loadSeq:
     * its youngest older store's, else the SQ tail segment.
     */
    unsigned sqWalkStart(SeqNum loadSeq) const;
    /**
     * First segment of an LQ walk over loads younger than @p seq: the
     * first younger load's, else @p fallback.
     */
    unsigned lqWalkStart(SeqNum seq, unsigned fallback) const;

    /**
     * Plan the SQ forwarding search for (@p loadSeq, @p addr): the
     * ordered list of distinct segments visited (youngest-older store
     * first, toward the head) and the match, if any. The visit list
     * lives in sqVisit_ until the next SQ plan.
     */
    struct SqSearchPlan
    {
        std::span<const unsigned> visit;
        const StoreEntry *match = nullptr;
        bool endsAtHead = false;   ///< search covered the oldest stores
    };
    SqSearchPlan planSqSearch(SeqNum loadSeq, Addr addr);

    /**
     * An LQ search plan: segments visited (oldest load first, toward
     * the tail), stopping at the first violating load. The visit list
     * lives in lqVisit_ until the next LQ plan.
     */
    struct LqSearchPlan
    {
        std::span<const unsigned> visit;
        const LoadEntry *violator = nullptr;
    };
    /** A store's LQ violation search over loads younger than it. */
    LqSearchPlan planStoreLqSearch(SeqNum storeSeq, Addr addr);

    /**
     * A load's own LQ load-load search (conventional scheme); a load
     * with no younger load searches its own segment @p ownSegment.
     */
    LqSearchPlan planLoadLqSearch(SeqNum loadSeq, Addr addr,
                                  Cycle executeCycle,
                                  unsigned ownSegment);

    /**
     * Walk the LQ from @p from toward the tail, stopping at the first
     * load for which @p isViolator holds; @p fallback is the one
     * segment searched when the walk covers no load.
     */
    template <typename IsViolator>
    LqSearchPlan planLqWalk(std::deque<LoadEntry>::const_iterator from,
                            unsigned fallback, IsViolator &&isViolator);

    /** Start a plan's visit list in @p visit. */
    void startPlan(std::vector<unsigned> &visit);
    /** Append @p seg to @p visit unless this plan already visits it. */
    void noteVisit(std::vector<unsigned> &visit, unsigned seg);

    /**
     * Advance the NILP past issued loads, releasing load-buffer
     * entries and running their deferred ordering searches.
     */
    void advanceNilp(LoadIssueOutcome &outcome, Cycle now);

    /**
     * Squash the LQ's youngest load: settle its out-of-order count and
     * keep the NILP within the queue. The caller frees its allocator
     * entry.
     */
    void squashYoungestLoad();

    /** Allocator backing loads (shared in combined mode). */
    SegmentAllocator &loadAlloc() { return lqAlloc_; }
    const SegmentAllocator &loadAlloc() const { return lqAlloc_; }
    /** Allocator backing stores (shared in combined mode). */
    SegmentAllocator &
    storeAlloc()
    {
        return params_.combinedQueue ? lqAlloc_ : sqAlloc_;
    }
    const SegmentAllocator &
    storeAlloc() const
    {
        return params_.combinedQueue ? lqAlloc_ : sqAlloc_;
    }
    /** Port schedule for store-queue (forwarding) searches. */
    PortSchedule &
    sqPorts()
    {
        return params_.combinedQueue ? lqPorts_ : sqPorts_;
    }
    /** Port schedule for load-queue (ordering) searches. */
    PortSchedule &lqPorts() { return lqPorts_; }

    // lsqlint: no-serialize(construction config, fixed for the run)
    LsqParams params_;
    // lsqlint: no-serialize(measurement output, not architectural state)
    StatSet &stats_;
    // Histograms in stats_, each registered once with its bucket count.
    // lsqlint: no-serialize(measurement output, not architectural state)
    Histogram &lqOccupancy_;
    // lsqlint: no-serialize(measurement output, not architectural state)
    Histogram &sqOccupancy_;
    // lsqlint: no-serialize(measurement output, not architectural state)
    Histogram &oooInflight_;
    // lsqlint: no-serialize(measurement output, not architectural state)
    Histogram &sqSearchSegments_;

    std::deque<LoadEntry> lq_;
    std::deque<StoreEntry> sq_;
    SegmentAllocator lqAlloc_;
    SegmentAllocator sqAlloc_;
    // lsqlint: no-serialize(rolling reservation table; slots self-invalidate by cycle tag)
    PortSchedule lqPorts_;
    // lsqlint: no-serialize(rolling reservation table; slots self-invalidate by cycle tag)
    PortSchedule sqPorts_;
    LoadBuffer lb_;

    /** Live loads issued out of order and not yet passed by the NILP. */
    unsigned oooLive_ = 0;

    /**
     * The NILP: index in lq_ of the oldest non-issued load, lq_.size()
     * when every live load has issued. Loads before it are passed.
     */
    std::size_t nilp_ = 0;

    // Search-plan scratch, reserved at construction so that planning a
    // search never allocates.
    // lsqlint: no-serialize(per-search scratch, rebuilt by every plan)
    std::vector<unsigned> sqVisit_;
    // lsqlint: no-serialize(per-search scratch, rebuilt by every plan)
    std::vector<unsigned> lqVisit_;
    /** Per segment, the last plan that visited it (dedupes a walk). */
    // lsqlint: no-serialize(per-search scratch, rebuilt by every plan)
    std::vector<std::uint64_t> segStamp_;
    /** Number of plans started; the current plan's stamp. */
    // lsqlint: no-serialize(per-search scratch, rebuilt by every plan)
    std::uint64_t planStamp_ = 0;

    /** Attached ordering oracle, or nullptr (the common case). */
    // lsqlint: no-serialize(attached oracle, wired by the owning Simulator)
    LsqChecker *checker_ = nullptr;

    /** Attached event tracer, or nullptr (the common case). */
    // lsqlint: no-serialize(attached observer, wired by the owning Simulator)
    Tracer *tracer_ = nullptr;
};

} // namespace lsqscale

#endif // LSQSCALE_LSQ_LSQ_HH
