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

#include <span>
#include <vector>

#include "common/ring.hh"
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
     * Views the Lsq's scratch buffer: valid until the next issueLoad().
     */
    std::span<const SeqNum> llViolations;
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
    /**
     * @param window the span that live sequence numbers can cover (the
     *        ROB size): a seq-indexed slot array of that many entries,
     *        rounded up to a power of two, finds any live entry.
     */
    Lsq(const LsqParams &params, unsigned window, StatSet &stats);

    // ------------------------------------------------ allocation -----
    bool canAllocateLoad() const { return loadAlloc().canAllocate(); }
    bool canAllocateStore() const
    {
        return storeAlloc().canAllocate();
    }
    void allocateLoad(SeqNum seq, Pc pc);
    void allocateStore(SeqNum seq, Pc pc);

    /**
     * The most cycles after its issue that a load's searches can end
     * (LoadIssueOutcome::searchDoneCycle - now): a walk over every
     * segment, staggered by the combined queue's largest offset.
     */
    unsigned
    longestSearch() const
    {
        return params_.numSegments + kMaxStagger;
    }

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
    /**
     * Sample the occupancy histograms once per cycle; @p cycles
     * samples the same occupancies for that many cycles at once (a
     * skipped quiet stretch, Core::run).
     */
    void sampleOccupancy(std::uint64_t cycles = 1);

    /**
     * The load-buffer-full stall counter: a full load buffer blocks a
     * load until an event frees an entry, so Core::run adds a skipped
     * quiet stretch to it in one step.
     */
    LazyCounter &lbStallCounter() { return lbStallFull_; }

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

    /**
     * Check that every live entry's ticket, and every load's sqNext
     * and store's lqNext, agree with a recomputation from program
     * order. Debug builds run it after every mutation.
     */
    void checkPositions() const;

  private:
    /** Largest delay of a combined queue's ordering walk behind its
     *  forwarding walk. */
    static constexpr unsigned kMaxStagger = 4;

    struct LoadEntry
    {
        SeqNum seq;
        Pc pc;
        unsigned segment;
        /** The SQ's next ticket at allocation: older stores precede it. */
        std::uint64_t sqNext;
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
        /** The LQ's next ticket at allocation: younger loads start here. */
        std::uint64_t lqNext;
        Addr addr = 0;
        bool addrValid = false;
    };

    // Positions. Each queue numbers its allocations with tickets, so
    // an entry's ring index is its ticket minus the head's, and a
    // squash, which pops from the back, hands the tickets out again.
    // A seq-indexed slot array maps a live seq to its ticket, so a
    // lookup by sequence number is one index. A load keeps the SQ's
    // next ticket from its allocation (sqNext) and a store the LQ's
    // (lqNext), so where a search starts is one index too: stores
    // older than a load sit before its sqNext, loads younger than a
    // store from its lqNext on (DESIGN.md §5).

    /** Ring index of the load @p seq, or lq_.size() if not live. */
    std::size_t loadPos(SeqNum seq) const;
    /** Ring index of the store @p seq, or sq_.size() if not live. */
    std::size_t storePos(SeqNum seq) const;
    std::uint64_t lqNextTicket() const { return lqHead_ + lq_.size(); }
    std::uint64_t sqNextTicket() const { return sqHead_ + sq_.size(); }
    /** Record that the entry about to take @p ticket holds @p seq. */
    void notePosition(SeqNum seq, std::uint64_t ticket);

    /**
     * First segment of the SQ forwarding walk for the load @p e: its
     * youngest older store's, else the SQ tail segment.
     */
    unsigned sqWalkStart(const LoadEntry &e) const;
    /**
     * First segment of an LQ walk that starts at ring index @p from:
     * that load's, else (no load there) @p fallback.
     */
    unsigned lqWalkStart(std::size_t from, unsigned fallback) const;

    /**
     * Plan the SQ forwarding search for (@p load, @p addr): the
     * ordered list of distinct segments visited (youngest-older store
     * first, toward the head) and the match, if any. The visit list
     * lives in sqVisit_ until the next SQ plan.
     */
    struct SqSearchPlan
    {
        std::span<const unsigned> visit;
        const StoreEntry *match = nullptr;
        /**
         * Segmented queues: every older store sits in the one segment
         * visited, so the load's latency is knowable at issue.
         */
        bool oneSegment = false;
    };
    SqSearchPlan planSqSearch(const LoadEntry &load, Addr addr);

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
    LqSearchPlan planStoreLqSearch(const StoreEntry &store, Addr addr);

    /**
     * A load's own LQ load-load search (conventional scheme) for the
     * load at ring index @p pos; a load with no younger load searches
     * its own segment.
     */
    LqSearchPlan planLoadLqSearch(std::size_t pos, Addr addr,
                                  Cycle executeCycle);

    /**
     * Walk the LQ from @p from toward the tail, stopping at the first
     * load for which @p isViolator holds; @p fallback is the one
     * segment searched when the walk covers no load.
     */
    template <typename IsViolator>
    LqSearchPlan planLqWalk(Ring<LoadEntry>::const_iterator from,
                            unsigned fallback, IsViolator &&isViolator);

    /** Start a plan's visit list in @p visit. */
    void startPlan(std::vector<unsigned> &visit);
    /** Append @p seg to @p visit unless this plan already visits it. */
    void noteVisit(std::vector<unsigned> &visit, unsigned seg);

    /**
     * Advance the NILP past issued loads, releasing load-buffer
     * entries and running their deferred ordering searches.
     */
    void advanceNilp(Cycle now);

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

    LsqParams params_;
    StatSet &stats_;
    // Histograms in stats_, each registered once with its bucket count.
    Histogram &lqOccupancy_;
    Histogram &sqOccupancy_;
    Histogram &oooInflight_;
    Histogram &sqSearchSegments_;
    // Counters, bound on first touch.
    LazyCounter lbSearches_{stats_, "lb.searches"};
    LazyCounter lbStallFull_{stats_, "lb.stallfull"};
    LazyCounter lbInserts_{stats_, "lb.inserts"};
    LazyCounter lbProbes_{stats_, "lb.probes"};
    LazyCounter loadContention_{stats_, "lsq.contention.loads"};
    LazyCounter commitDelays_{stats_, "lsq.commit.delays"};
    LazyCounter sqSearches_{stats_, "sq.searches"};
    LazyCounter sqSearchesMatched_{stats_, "sq.searches.matched"};
    LazyCounter lqSearchesByLoad_{stats_, "lq.searches.byload"};
    LazyCounter lqSearchesByStore_{stats_, "lq.searches.bystore"};
    LazyCounter lqSearchesByInval_{stats_, "lq.searches.invalidation"};

    // Sized to the queues' capacities: pushes never allocate.
    Ring<LoadEntry> lq_;
    Ring<StoreEntry> sq_;
    SegmentAllocator lqAlloc_;
    SegmentAllocator sqAlloc_;
    PortSchedule lqPorts_;
    PortSchedule sqPorts_;
    LoadBuffer lb_;

    unsigned window_;
    /** Per seq & (size - 1), the ticket of the live entry holding it. */
    std::vector<std::uint64_t> tickets_;
    /** Tickets of the LQ and SQ heads. */
    std::uint64_t lqHead_ = 0;
    std::uint64_t sqHead_ = 0;

    /** Live loads issued out of order and not yet passed by the NILP. */
    unsigned oooLive_ = 0;

    /**
     * The NILP: index in lq_ of the oldest non-issued load, lq_.size()
     * when every live load has issued. Loads before it are passed.
     */
    std::size_t nilp_ = 0;

    // Search-plan scratch, reserved at construction so that planning a
    // search never allocates.
    std::vector<unsigned> sqVisit_;
    std::vector<unsigned> lqVisit_;
    /** Per segment, the last plan that visited it (dedupes a walk). */
    std::vector<std::uint64_t> segStamp_;
    /** Number of plans started; the current plan's stamp. */
    std::uint64_t planStamp_ = 0;
    /**
     * The load-load violations of the current issueLoad(), which its
     * outcome views. One issue finds at most one per passed load-buffer
     * entry plus its own search, so the reserve is never outgrown.
     */
    std::vector<SeqNum> llViolations_;

    /** Attached ordering oracle, or nullptr (the common case). */
    LsqChecker *checker_ = nullptr;

    /** Attached event tracer, or nullptr (the common case). */
    Tracer *tracer_ = nullptr;
};

} // namespace lsqscale

#endif // LSQSCALE_LSQ_LSQ_HH
