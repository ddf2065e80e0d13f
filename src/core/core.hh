/**
 * @file
 * The out-of-order superscalar pipeline.
 *
 * A cycle-level model in the sim-outorder tradition, trace-driven from
 * an InstStream. Stages run in reverse order each cycle (commit,
 * writeback, issue, dispatch, fetch) so information flows one cycle at
 * a time. Wrong-path execution after branch mispredictions is modeled
 * as a fetch stall of the full misprediction penalty (DESIGN.md §4);
 * memory-order violations perform a real squash-and-refetch through
 * the replayable instruction stream.
 */

#ifndef LSQSCALE_CORE_CORE_HH
#define LSQSCALE_CORE_CORE_HH

#include <array>
#include <memory>
#include <vector>

#include "common/ring.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/completion_calendar.hh"
#include "core/core_params.hh"
#include "core/issue_queue.hh"
#include "core/phys_reg_file.hh"
#include "core/rob.hh"
#include "lsq/lsq.hh"
#include "memory/memory_system.hh"
#include "predictor/branch_predictor.hh"
#include "predictor/store_set.hh"
#include "workload/inst_stream.hh"

namespace lsqscale {

class IntervalSampler;
class ProbeAgent;
class Tracer;

/** Why a squash happened (stat attribution). */
enum class SquashReason : std::uint8_t {
    StoreLoadExec,   ///< store found a premature load at execute
    StoreLoadCommit, ///< store found a premature load at commit
    LoadLoad,        ///< load-load ordering violation
    Invalidation,    ///< external invalidation hit an outstanding load
};

/** The processor. */
class Core
{
  public:
    /** Drive from the synthetic workload for (profile, seed). */
    Core(const CoreParams &coreParams, const LsqParams &lsqParams,
         const MemoryParams &memParams, const BenchmarkProfile &profile,
         std::uint64_t seed, StatSet &stats);

    /** Drive from any instruction source (e.g. a recorded trace). */
    Core(const CoreParams &coreParams, const LsqParams &lsqParams,
         const MemoryParams &memParams,
         std::unique_ptr<InstSource> source, StatSet &stats);

    /** Advance one cycle: the reference that run()'s skipping matches. */
    void tick();

    /**
     * Run until @p numInsts have committed (panics on no progress).
     * Equivalent to calling tick() until then, but a quiet tick (one
     * that changed nothing but per-cycle accumulators) jumps the clock
     * to the next event in one step (DESIGN.md §5).
     */
    void run(std::uint64_t numInsts);

    Cycle cycle() const { return now_; }
    std::uint64_t committed() const { return committed_; }
    double
    ipc() const
    {
        return now_ ? static_cast<double>(committed_) /
                          static_cast<double>(now_)
                    : 0.0;
    }

    /** Diagnostic dump of the stall state (used on no-progress panic). */
    std::string debugDump() const;

    Lsq &lsq() { return lsq_; }
    const Lsq &lsq() const { return lsq_; }
    MemorySystem &memory() { return mem_; }
    const HybridBranchPredictor &branchPredictor() const { return bp_; }
    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    // ------------------------------ fast-forward / checkpoint support ----
    /** Workload stream (checkpointing, docs/SAMPLING.md). */
    InstStream &stream() { return stream_; }
    /** Mutable branch predictor (checkpointing). */
    HybridBranchPredictor &branchPredictorMut() { return bp_; }

    /**
     * True when no instruction is in flight anywhere in the core and
     * the stream holds nothing for replay: every instruction it has
     * generated has committed. A fresh, fast-forwarded or restored
     * core is quiescent.
     */
    bool quiescent() const;

    /**
     * Functional fast-forward: advance @p numInsts instructions
     * through the workload generator, memory image, and branch
     * predictor without the OoO pipeline. Requires quiescent(). Emits
     * no stats counters, so a measurement window entered through a
     * fast-forward is bit-identical to one entered by restoring a
     * checkpoint taken at the same boundary.
     */
    void fastForward(std::uint64_t numInsts);

    /** Serialize scalar core state (checkpointing, docs/SAMPLING.md). */
    void saveState(SerialWriter &w) const;
    /** Restore state written by saveState. Requires quiescent(). */
    void loadState(SerialReader &r);

    /** Live ROB entries (interval sampling). */
    std::size_t robOccupancy() const { return rob_.size(); }
    /** Live IQ entries (interval sampling). */
    std::size_t iqOccupancy() const { return iq_.size(); }

    /**
     * Attach an event tracer (src/obs/trace.hh) to this core and its
     * Lsq. Pure observer. Pass nullptr to detach. The tracer must outlive the
     * core (or be detached).
     */
    void attachTracer(Tracer *tracer);
    Tracer *tracer() const { return tracer_; }

    /**
     * Attach an external coherence agent (src/memory/probe_agent.hh),
     * the only source of external invalidations: its due probes are
     * delivered through Lsq::invalidate, and a probe that hits a
     * speculatively executed load squashes it. Attached after warmup
     * like a tracer —
     * outside the checkpoint format — and a detached core pays one
     * pointer test per cycle. Pass nullptr to detach. The agent must
     * outlive the core (or be detached).
     */
    void attachCoherenceAgent(ProbeAgent *agent) { coherence_ = agent; }
    ProbeAgent *coherenceAgent() const { return coherence_; }

    /**
     * Attach an interval sampler (src/core/interval.hh). run() polls
     * it only when the cached next-sample cycle is due, so both the
     * detached case and the common not-yet-due case cost one
     * predictable compare per cycle. Pass nullptr to detach. The
     * sampler must outlive the core (or be detached).
     */
    void attachSampler(IntervalSampler *sampler);

    /**
     * Arm the host-profiler's burst sampling of tick() stages
     * (src/metrics/hostprof.hh): every 2^HostProfiler::kSampleShift-th
     * executed tick runs tickStages<true>(). Counting executed ticks,
     * not cycles, keeps skipped quiet cycles out of the choice.
     * Simulation behavior is bit-identical — the profiled instance
     * only adds clock reads. Disarmed, the per-tick cost is one
     * always-false mask compare.
     */
    void enableHostProfile();

  private:
    struct FetchedInst
    {
        MicroOp op;
        Cycle fetchCycle;
        bool mispredicted = false;
    };

    // Pipeline stages (called newest-to-oldest each tick).
    void invalidationStage();
    /** Probe delivery from an attached coherence agent (out of line
     *  so invalidationStage stays one predicted-false test). */
    void coherenceStage();
    void commitStage();
    void writebackStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    /**
     * The stage sequence of one cycle. The profiled instance adds
     * lap-style clock reads at the stage boundaries
     * (src/metrics/hostprof.hh) and runs only on host-profile sample
     * cycles; both instances simulate identically.
     */
    template <bool kProfiled>
    void tickStages();

    /**
     * What a tick changes when it is busy, compared before and after
     * it: a quiet tick commits, writes back, issues, dispatches and
     * fetches nothing, and retries no issue that a free port or a
     * passing cycle alone could unblock.
     */
    struct Progress
    {
        std::uint64_t committed;
        std::uint64_t dispatched;   ///< nextRobId_
        std::uint64_t scheduled;    ///< completions_.scheduled()
        std::uint64_t pending;      ///< completions_.size()
        std::uint64_t fetchQueued;  ///< fetchQ_.size()
        /** Issue retries on a port, a booking or a contention replay. */
        std::uint64_t timedRetries;

        bool operator==(const Progress &) const = default;
    };
    /** Event-bound issue retries: only an event unblocks them. */
    static constexpr std::size_t kNumWaits = 4;
    /** The state of one tick's start. */
    struct TickMark
    {
        Progress progress;
        /** Each event-bound retry counter, as waitCounters() lists them. */
        std::uint64_t waits[kNumWaits];
    };

    Progress progress() const;
    TickMark markTick();
    /** The counters of issue retries that only an event can unblock. */
    std::array<LazyCounter *, kNumWaits> waitCounters();

    /**
     * tick(), then, if that tick was quiet, jump the clock to the next
     * event (at most to @p limit) and add the skipped cycles to every
     * per-cycle accumulator. The step of run().
     */
    void step(Cycle limit);
    /** The jump of step(), after a tick that started at @p mark. */
    void skipQuietCycles(const TickMark &mark, Cycle limit);

    /**
     * Service the fault-injection / heartbeat hook (src/inject): emit
     * a due heartbeat and apply a due state-corruption fault. Out of
     * line so run()'s per-cycle cost is one predicted-false test.
     */
    void applyInjection();

    // Issue helpers. Return true if the instruction issued (or caused
    // a squash) and the caller should count an issue slot.
    bool tryIssueLoad(RobEntry &re, IqEntry &qe);
    bool tryIssueStore(RobEntry &re, IqEntry &qe);
    bool tryIssueAlu(RobEntry &re, IqEntry &qe, unsigned &intUsed,
                     unsigned &fpUsed);

    /** Decide whether this load should search the store queue. */
    bool wantSqSearch(const RobEntry &re, Addr addr) const;

    /** The cached commit-stall counter of a head that is not done. */
    Counter &commitBlockCounter(const RobEntry &head);
    /**
     * The stall counter of a dispatch of @p op that the LQ, SQ or the
     * free-register list blocks, or nullptr when none of them does.
     */
    LazyCounter *dispatchStall(const MicroOp &op);

    void scheduleCompletion(const RobEntry &re, Cycle when);
    void performSquash(SeqNum from, SquashReason reason);
    void finishCommit(RobEntry &head);

    PhysRegFile &fileFor(ArchReg flat);
    bool regReady(PhysReg p, bool fp) const;
    static unsigned classIndex(ArchReg flat);

    CoreParams cp_;
    LsqParams lsqp_;
    StatSet &stats_;
    // Histograms in stats_, each registered once with its bucket count.
    Histogram &loadCommitDelay_;
    Histogram &loadIssueDelay_;
    Histogram &loadDataLat_;
    // Counters on the retry and per-cycle paths, bound on first touch.
    LazyCounter issuedCount_{stats_, "core.issued"};
    LazyCounter fetchedCount_{stats_, "fetch.fetched"};
    LazyCounter loadPortStalls_{stats_, "loads.lsq.portstall"};
    LazyCounter storePortStalls_{stats_, "stores.lsq.portstall"};
    LazyCounter loadStoreSetWaits_{stats_, "loads.storeset.wait"};
    LazyCounter loadDcachePortStalls_{stats_, "loads.dcache.portstall"};
    // Every other counter the core bumps, bound the same way.
    LazyCounter probeDelivered_{stats_, "probe.delivered"};
    LazyCounter committedCount_{stats_, "core.committed"};
    LazyCounter committedLoads_{stats_, "core.committed.loads"};
    LazyCounter committedStores_{stats_, "core.committed.stores"};
    LazyCounter committedBranches_{stats_, "core.committed.branches"};
    LazyCounter loadTotalOrderWaits_{stats_, "loads.totalorder.wait"};
    LazyCounter loadContentionReplays_{stats_, "loads.contention.replay"};
    LazyCounter pairPredDependent_{stats_, "pair.pred.dependent"};
    LazyCounter pairPredNoMatch_{stats_, "pair.pred.dependent.nomatch"};
    LazyCounter loadsForwarded_{stats_, "loads.forwarded"};
    LazyCounter loadsIssued_{stats_, "loads.issued"};
    LazyCounter storeStoreSetWaits_{stats_, "stores.storeset.wait"};
    LazyCounter storesIssued_{stats_, "stores.issued"};
    LazyCounter dispatchLqFull_{stats_, "dispatch.lqfull"};
    LazyCounter dispatchSqFull_{stats_, "dispatch.sqfull"};
    LazyCounter dispatchNoRegs_{stats_, "dispatch.noregs"};
    LazyCounter fetchMispredicts_{stats_, "fetch.mispredicts"};
    LazyCounter squashTotal_{stats_, "squash.total"};
    LazyCounter squashInsts_{stats_, "squash.instructions"};
    LazyCounter squashInvalidation_{stats_, "squash.invalidation"};
    LazyCounter squashStoreLoadCommit_{stats_, "squash.storeload.commit"};
    LazyCounter squashStoreLoadExec_{stats_, "squash.storeload.exec"};
    LazyCounter squashLoadLoad_{stats_, "squash.loadload"};

    InstStream stream_;
    MemorySystem mem_;
    Lsq lsq_;
    HybridBranchPredictor bp_;
    StoreSetPredictor ssp_;
    Rob rob_;
    IssueQueue iq_;
    PhysRegFile intRegs_;
    PhysRegFile fpRegs_;

    Ring<FetchedInst> fetchQ_;
    /** Scheduled writebacks. */
    CompletionCalendar completions_;

    Cycle now_ = 0;
    std::uint64_t committed_ = 0;
    std::uint64_t nextRobId_ = 1;

    Cycle fetchResumeCycle_ = 0;
    SeqNum pendingBranch_ = kNoSeq;
    /** Highest branch seq already trained (replays skip training). */
    SeqNum bpTrainedUpTo_ = 0;
    bool bpEverTrained_ = false;

    Addr lastFetchBlock_ = ~0ULL;

    /** Cached commit-stall counters, indexed (opClass * 2 + state). */
    Counter *commitBlockCounters_[kNumOpClasses * 2] = {};

    /** Attached coherence agent, or nullptr (the common case). */
    ProbeAgent *coherence_ = nullptr;

    /** Attached event tracer, or nullptr (the common case). */
    Tracer *tracer_ = nullptr;
    /** Attached interval sampler, or nullptr (the common case). */
    IntervalSampler *sampler_ = nullptr;
    /** Cycle at which the attached sampler is next due (UINT64_MAX
     *  when detached), so run() pays one compare, not a poll. */
    Cycle nextSampleAt_ = ~Cycle(0);

    /** Host-profile stage-sampling mask: tick() takes the profiled
     *  stage sequence when (profTicks_ & mask) == 0. All-ones =
     *  disarmed. */
    std::uint64_t profMask_ = ~std::uint64_t(0);
    /** Ticks executed so far (skipped cycles excluded). */
    std::uint64_t profTicks_ = 0;
    /** True inside a profiled tick: issue helpers lap the LSQ search. */
    bool profLap_ = false;
    /** LSQ search+forward nanoseconds lapped this profiled tick. */
    std::uint64_t profLsqNs_ = 0;
};

} // namespace lsqscale

#endif // LSQSCALE_CORE_CORE_HH
