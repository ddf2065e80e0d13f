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

#include <deque>
#include <map>
#include <memory>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/core_params.hh"
#include "core/issue_queue.hh"
#include "core/phys_reg_file.hh"
#include "core/rob.hh"
#include "lsq/lsq.hh"
#include "memory/memory_system.hh"
#include "predictor/branch_predictor.hh"
#include "predictor/store_set.hh"
#include "sample/serialize.hh"
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

    /** Advance one cycle. */
    void tick();

    /** Run until @p numInsts have committed (panics on no progress). */
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

    // ------------------------------------------- sampling support ----
    /** Workload stream (checkpointing, docs/SAMPLING.md). */
    InstStream &stream() { return stream_; }
    /** Mutable branch predictor (checkpointing). */
    HybridBranchPredictor &branchPredictorMut() { return bp_; }
    /** Store-set predictor (checkpointing). */
    StoreSetPredictor &storeSets() { return ssp_; }

    /** True when no instruction is in flight anywhere in the core. */
    bool quiescent() const;

    /**
     * Drain the pipeline: stop fetching, tick until every in-flight
     * instruction commits, then rewind the stream to the commit point.
     * Afterwards quiescent() holds and the core can be checkpointed or
     * fast-forwarded. Stats counters do advance while draining.
     */
    void drain();

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
     * Attach an interval sampler (src/obs/interval.hh). run() polls
     * it only when the cached next-sample cycle is due, so both the
     * detached case and the common not-yet-due case cost one
     * predictable compare per cycle. Pass nullptr to detach. The
     * sampler must outlive the core (or be detached).
     */
    void attachSampler(IntervalSampler *sampler);

    /**
     * Arm the host-profiler's burst sampling of tick() stages
     * (src/metrics/hostprof.hh): every 2^HostProfiler::kSampleShift-th
     * cycle runs tickStages<true>(). Simulation behavior is
     * bit-identical — the profiled instance only adds clock reads.
     * Disarmed, the per-cycle cost is one always-false mask compare.
     */
    void enableHostProfile();

  private:
    struct FetchedInst
    {
        MicroOp op;
        Cycle fetchCycle;
        bool mispredicted = false;
    };

    struct CompletionEvent
    {
        SeqNum seq;
        std::uint64_t robId;
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

    void scheduleCompletion(const RobEntry &re, Cycle when);
    void performSquash(SeqNum from, SquashReason reason);
    void finishCommit(RobEntry &head);

    PhysRegFile &fileFor(ArchReg flat);
    static unsigned classIndex(ArchReg flat);

    // lsqlint: no-serialize(construction config, fixed for the run)
    CoreParams cp_;
    // lsqlint: no-serialize(construction config, fixed for the run)
    LsqParams lsqp_;
    // lsqlint: no-serialize(measurement output, not architectural state)
    StatSet &stats_;
    // Histograms in stats_, each registered once with its bucket count.
    // lsqlint: no-serialize(measurement output, not architectural state)
    Histogram &loadCommitDelay_;
    // lsqlint: no-serialize(measurement output, not architectural state)
    Histogram &loadIssueDelay_;
    // lsqlint: no-serialize(measurement output, not architectural state)
    Histogram &loadDataLat_;
    // Counters on the retry and per-cycle paths, bound on first touch.
    // lsqlint: no-serialize(measurement output, not architectural state)
    LazyCounter issuedCount_{stats_, "core.issued"};
    // lsqlint: no-serialize(measurement output, not architectural state)
    LazyCounter fetchedCount_{stats_, "fetch.fetched"};
    // lsqlint: no-serialize(measurement output, not architectural state)
    LazyCounter loadPortStalls_{stats_, "loads.lsq.portstall"};
    // lsqlint: no-serialize(measurement output, not architectural state)
    LazyCounter storePortStalls_{stats_, "stores.lsq.portstall"};
    // lsqlint: no-serialize(measurement output, not architectural state)
    LazyCounter loadStoreSetWaits_{stats_, "loads.storeset.wait"};
    // lsqlint: no-serialize(measurement output, not architectural state)
    LazyCounter loadDcachePortStalls_{stats_, "loads.dcache.portstall"};
    // lsqlint: no-serialize(measurement output, not architectural state)
    LazyCounter loadMshrStalls_{stats_, "loads.mshr.stall"};

    // lsqlint: no-serialize(own checkpoint section STRM)
    InstStream stream_;
    // lsqlint: no-serialize(own checkpoint section MEM)
    MemorySystem mem_;
    // lsqlint: no-serialize(own checkpoint section LSQ)
    Lsq lsq_;
    // lsqlint: no-serialize(own checkpoint section BP)
    HybridBranchPredictor bp_;
    // lsqlint: no-serialize(own checkpoint section SSP)
    StoreSetPredictor ssp_;
    // lsqlint: no-serialize(empty at quiescence; saveState asserts quiescent())
    Rob rob_;
    // lsqlint: no-serialize(empty at quiescence; saveState asserts quiescent())
    IssueQueue iq_;
    // lsqlint: no-serialize(ready-bits only; quiescence leaves every register ready)
    PhysRegFile intRegs_;
    // lsqlint: no-serialize(ready-bits only; quiescence leaves every register ready)
    PhysRegFile fpRegs_;

    // lsqlint: no-serialize(empty at quiescence; saveState asserts quiescent())
    std::deque<FetchedInst> fetchQ_;
    // lsqlint: no-serialize(empty at quiescence; saveState asserts quiescent())
    std::multimap<Cycle, CompletionEvent> completions_;
    /** issueStage's candidate seqs, reserved to the IQ's capacity. */
    // lsqlint: no-serialize(per-cycle scratch, rebuilt by every issueStage)
    std::vector<SeqNum> issueCands_;

    Cycle now_ = 0;
    std::uint64_t committed_ = 0;
    std::uint64_t nextRobId_ = 1;

    Cycle fetchResumeCycle_ = 0;
    // lsqlint: no-serialize(kNoSeq at quiescence, part of the quiescent() predicate)
    SeqNum pendingBranch_ = kNoSeq;
    /** Highest branch seq already trained (replays skip training). */
    SeqNum bpTrainedUpTo_ = 0;
    bool bpEverTrained_ = false;

    Addr lastFetchBlock_ = ~0ULL;

    /** True while drain() runs: fetchStage stops pulling the stream. */
    // lsqlint: no-serialize(transient drain() flag, false outside drain)
    bool draining_ = false;

    /** Cached commit-stall counters, indexed (opClass * 2 + state). */
    // lsqlint: no-serialize(cached StatSet counter pointers, rebuilt in the constructor)
    Counter *commitBlockCounters_[kNumOpClasses * 2] = {};

    /** Attached coherence agent, or nullptr (the common case). */
    // lsqlint: no-serialize(attached coherence agent, wired by the owning harness)
    ProbeAgent *coherence_ = nullptr;

    /** Attached event tracer, or nullptr (the common case). */
    // lsqlint: no-serialize(attached observer, wired by the owning Simulator)
    Tracer *tracer_ = nullptr;
    /** Attached interval sampler, or nullptr (the common case). */
    // lsqlint: no-serialize(attached observer, wired by the owning Simulator)
    IntervalSampler *sampler_ = nullptr;
    /** Cycle at which the attached sampler is next due (UINT64_MAX
     *  when detached), so run() pays one compare, not a poll. */
    // lsqlint: no-serialize(observer schedule cache, rebuilt by attachSampler)
    Cycle nextSampleAt_ = ~Cycle(0);

    /** Host-profile stage-sampling mask: tick() takes the profiled
     *  stage sequence when (now_ & mask) == 0. All-ones = disarmed. */
    // lsqlint: no-serialize(host-profiler sampling mask, observer-only)
    std::uint64_t profMask_ = ~std::uint64_t(0);
    /** True inside a profiled tick: issue helpers lap the LSQ search. */
    // lsqlint: no-serialize(transient host-profiler flag, false between ticks)
    bool profLap_ = false;
    /** LSQ search+forward nanoseconds lapped this profiled tick. */
    // lsqlint: no-serialize(host-profiler scratch, observer-only)
    std::uint64_t profLsqNs_ = 0;
};

} // namespace lsqscale

#endif // LSQSCALE_CORE_CORE_HH
