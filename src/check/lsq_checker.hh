/**
 * @file
 * Event-driven memory-ordering oracle for the LSQ.
 *
 * The checker observes every state transition of an Lsq (allocation,
 * load issue, store AGEN, commit, squash, invalidation) through the
 * hooks in lsq.cc and cross-checks each LoadIssueOutcome /
 * StoreSearchOutcome against two reference models:
 *
 *  1. a *shadow LSQ* — plain program-order deques updated by the same
 *     event stream, used to recompute what each CAM search should have
 *     returned (youngest-older forwarder, oldest-younger violator)
 *     with none of the segmentation/port/load-buffer machinery; and
 *  2. a MemoryOracle — a golden sequential memory image that resolves
 *     every *committed* load to its architecturally correct value
 *     source (the decisive end-to-end check: a wrong forwarding or
 *     missed-violation decision that survives to commit is flagged
 *     here even if every intermediate report looked plausible).
 *
 * The checker is a pure observer: it never touches the Lsq, so checked
 * and unchecked runs are cycle-for-cycle identical. Attach one with
 * Lsq::attachChecker(); set LSQSCALE_CHECK=1 to have the Simulator
 * attach one to every run and panic on any mismatch.
 */
// lsqlint: layer(lsq) -- checker interface consumed by Lsq itself (lsq.cc drives the hooks); the oracle implementation stays in layer-3 lsq_checker.cc

#ifndef LSQSCALE_CHECK_LSQCHECKER_HH
#define LSQSCALE_CHECK_LSQCHECKER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "check/memory_oracle.hh"
#include "common/types.hh"
#include "lsq/lsq.hh"

namespace lsqscale {

/** Classification of an oracle mismatch. */
enum class CheckErrorKind : std::uint8_t {
    /** Load forwarded from a store other than the youngest older match. */
    WrongForwarder,
    /** Searched-SQ load missed a visible older matching store. */
    MissedForward,
    /** Load forwarded although no older matching store was visible. */
    PhantomForward,
    /**
     * Load committed a premature execution: the correct older store had
     * not yet exposed its address at the load's final execute cycle and
     * no violation squash ever replayed the load.
     */
    MissedStoreLoadViolation,
    /** Store search reported a violator the reference rule rejects. */
    PhantomStoreLoadViolation,
    /** Store search missed (or mis-picked) the oldest true violator. */
    MissedStoreLoadDetection,
    /** Reported load-load violation with no genuine violating pair. */
    PhantomLoadLoadViolation,
    /**
     * Committed same-address loads executed out of order although a
     * load-load ordering policy was active (load buffer / LQ search
     * failed to squash the younger load).
     */
    UndetectedLoadLoadOrder,
    /** Event-protocol breakage: bad commit order, unknown seq, ... */
    BrokenProtocol,
    /**
     * A coherence probe failed to squash the load the vulnerability
     * rule demands (or a probe-marked victim later committed without
     * an intervening squash, or a committed load turned out to have
     * read a value a remote write had already made stale relative to
     * an older load's execution).
     */
    MissedProbeSquash,
    /** A probe squashed a load the vulnerability rule exempts. */
    SpuriousProbeSquash,
};

/** Number of CheckErrorKind values (array sizing). */
inline constexpr unsigned kNumCheckErrorKinds = 11;

const char *checkErrorKindName(CheckErrorKind kind);

/** One oracle mismatch, with full per-op provenance. */
struct CheckError
{
    CheckErrorKind kind;
    SeqNum seq = kNoSeq;      ///< the op being checked
    Pc pc = 0;
    Addr addr = 0;
    Cycle cycle = kNoCycle;   ///< cycle of the checked event
    SeqNum expected = kNoSeq; ///< reference model's answer (if any)
    SeqNum actual = kNoSeq;   ///< the LSQ's answer (if any)
    std::string detail;       ///< human-readable provenance
};

/** Shadow-executing oracle checker for one Lsq instance. */
class LsqChecker
{
  public:
    explicit LsqChecker(const LsqParams &params);

    // ------------------------------------------------ hooks ----------
    // Called by Lsq (see LSQ_CHECK_HOOK in lsq.cc) after the mirrored
    // mutation took effect. Rejected operations (accepted == false /
    // status != Accepted) did not mutate the Lsq and are ignored here.
    void onAllocateLoad(SeqNum seq, Pc pc);
    void onAllocateStore(SeqNum seq, Pc pc);
    void onLoadIssue(SeqNum seq, Addr addr, Cycle now,
                     const LoadIssueOutcome &out);
    void onStoreAddrReady(SeqNum seq, Addr addr, Cycle now,
                          const StoreSearchOutcome &out);
    void onStoreCommit(SeqNum seq, Cycle now,
                       const StoreSearchOutcome &out);
    void onLoadCommit(SeqNum seq);
    void onInvalidate(Addr addr, Cycle now,
                      const StoreSearchOutcome &out);
    void onSquash(SeqNum from);

    // ------------------------------------------------ results --------
    /** Total mismatches found so far. */
    std::uint64_t mismatches() const { return mismatches_; }
    /** Events validated (allocations, issues, AGENs, commits). */
    std::uint64_t opsChecked() const { return opsChecked_; }
    /** First kMaxStoredErrors mismatches, with provenance. */
    const std::vector<CheckError> &errors() const { return errors_; }
    /** Multi-line report of every stored mismatch. */
    std::string report() const;

    /** Panic immediately on the first mismatch (localizes failures). */
    void setAbortOnError(bool abort) { abortOnError_ = abort; }

    static constexpr std::size_t kMaxStoredErrors = 32;

  private:
    struct ShadowLoad
    {
        SeqNum seq;
        Pc pc;
        Addr addr = 0;
        bool executed = false;
        Cycle executeCycle = kNoCycle;
        SeqNum forwardedFrom = kNoSeq;
        bool searchedSq = false;
    };

    struct ShadowStore
    {
        SeqNum seq;
        Pc pc;
        Addr addr = 0;
        bool addrValid = false;
        Cycle addrReadyCycle = kNoCycle;
    };

    ShadowLoad *findLoad(SeqNum seq);
    ShadowStore *findStore(SeqNum seq);

    /** Youngest older addr-valid matching store (reference rule 1). */
    const ShadowStore *expectedForwarder(SeqNum loadSeq, Addr addr) const;
    /** Oldest younger executed stale matching load (reference rule 2). */
    const ShadowLoad *expectedViolator(SeqNum storeSeq, Addr addr) const;

    void checkStoreSearch(SeqNum seq, Addr addr, Cycle now,
                          const StoreSearchOutcome &out,
                          const char *when);

    void fail(CheckError err);
    void protocolFail(SeqNum seq, Cycle cycle, const std::string &what);

    /**
     * Reference squash target for an accepted probe under the active
     * load-check policy (see onInvalidate), or kNoSeq.
     */
    SeqNum probeVictimReference(Addr addr) const;

    LsqParams params_;
    MemoryOracle oracle_;
    std::deque<ShadowLoad> lq_;
    std::deque<ShadowStore> sq_;

    /**
     * Oldest probe-reported victim whose squash has not yet been
     * observed: any load >= this committing first is a missed squash.
     */
    SeqNum pendingProbeVictim_ = kNoSeq;

    std::uint64_t mismatches_ = 0;
    std::uint64_t opsChecked_ = 0;
    std::vector<CheckError> errors_;
    bool abortOnError_ = false;
};

} // namespace lsqscale

#endif // LSQSCALE_CHECK_LSQCHECKER_HH
