/**
 * @file
 * Tests for the memory-ordering oracle (src/check/).
 *
 * Two halves:
 *
 *  1. Mutant detection. The checker observes the LSQ through a narrow
 *     event interface, so a broken LSQ is modeled precisely by the
 *     event stream it would emit. Each mutant below replays the stream
 *     of a deliberately broken implementation — a skipped SQ search, a
 *     dropped violation squash, a mis-ordered load-buffer check, a
 *     wrong forwarder pick — and the test asserts the oracle flags it
 *     with the right CheckErrorKind. Driving events directly keeps the
 *     mutants alive in every build flavor (no #ifdef'd sabotage code
 *     in lsq.cc).
 *
 *  2. Clean runs. Whole-core simulations across the paper's design
 *     points with a checker attached must report zero mismatches:
 *     the oracle accepts every legal behavior of the real machine.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "check/lsq_checker.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "lsq/lsq_params.hh"
#include "sim/sim_config.hh"
#include "workload/benchmark_profile.hh"

using namespace lsqscale;

namespace {

// Event-building helpers: outcomes as the real Lsq would report them.

LoadIssueOutcome
issued(bool searchedSq, SeqNum forwardedFrom = kNoSeq)
{
    LoadIssueOutcome out;
    out.status = LoadIssueStatus::Accepted;
    out.searchedSq = searchedSq;
    out.forwarded = forwardedFrom != kNoSeq;
    out.forwardedFrom = forwardedFrom;
    return out;
}

StoreSearchOutcome
searched(SeqNum violationLoad = kNoSeq)
{
    StoreSearchOutcome out;
    out.accepted = true;
    out.violationLoad = violationLoad;
    return out;
}

bool
hasKind(const LsqChecker &c, CheckErrorKind kind)
{
    for (const CheckError &e : c.errors())
        if (e.kind == kind)
            return true;
    return false;
}

std::string
kinds(const LsqChecker &c)
{
    std::string out;
    for (const CheckError &e : c.errors()) {
        out += checkErrorKindName(e.kind);
        out += ' ';
    }
    return out;
}

constexpr Addr kA = 0x9000;
constexpr Addr kB = 0x9100;

} // namespace

// ----------------------------------------------------- clean streams --

TEST(CheckerClean, ForwardedLoadCommitsClean)
{
    LsqParams p;
    LsqChecker c(p);
    c.onAllocateStore(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onStoreAddrReady(0, kA, 5, searched());
    c.onLoadIssue(1, kA, 10, issued(true, 0));
    c.onStoreCommit(0, 20, searched());
    c.onLoadCommit(1);
    EXPECT_EQ(c.mismatches(), 0u) << c.report();
    EXPECT_EQ(c.opsChecked(), 6u);
}

TEST(CheckerClean, RejectedEventsAreIgnored)
{
    // Rejected operations (no port / delayed commit) never mutate the
    // Lsq; the hooks still fire and the checker must not advance its
    // shadow state on them.
    LsqParams p;
    LsqChecker c(p);
    c.onAllocateStore(0, 0x100);

    StoreSearchOutcome noPort;   // accepted == false
    c.onStoreAddrReady(0, kA, 4, noPort);
    c.onStoreCommit(0, 5, noPort);

    LoadIssueOutcome stalled;
    stalled.status = LoadIssueStatus::NoSqPort;
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kA, 6, stalled);

    c.onStoreAddrReady(0, kA, 7, searched());
    c.onLoadIssue(1, kA, 9, issued(true, 0));
    c.onStoreCommit(0, 12, searched());
    c.onLoadCommit(1);
    EXPECT_EQ(c.mismatches(), 0u) << c.report();
}

TEST(CheckerClean, PairSchemeSquashReplayAccepted)
{
    // Pair-predictor scheme: a premature load is caught at the store's
    // commit, squashed, and replayed. The full legal sequence must
    // check clean end to end.
    LsqParams p;
    p.checkViolationsAtCommit = true;
    LsqChecker c(p);

    c.onAllocateStore(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kA, 5, issued(false));      // gated off, premature
    c.onStoreAddrReady(0, kA, 10, searched());   // no search in pair mode
    c.onStoreCommit(0, 20, searched(1));         // commit-time detection
    c.onSquash(1);                               // core squashes the load
    c.onAllocateLoad(1, 0x104);                  // replay
    c.onLoadIssue(1, kA, 25, issued(true));      // store gone: from memory
    c.onLoadCommit(1);
    EXPECT_EQ(c.mismatches(), 0u) << c.report();
}

// ------------------------------------------------------ mutant streams --

// Each mutant stream replays the events a deliberately broken LSQ
// would emit and returns the checker that watched them.
// CheckerMutant.IsFlagged requires each to be flagged with its kind,
// and CheckerTaxonomy.EveryKindIsFlagged requires the flagged kinds,
// taken together, to cover every CheckErrorKind.

namespace {

// Mutant A1: the LSQ "searches" the SQ but its CAM match is broken —
// an older matching addr-valid store is missed at issue time.
LsqChecker
brokenSqSearch()
{
    LsqChecker c{LsqParams{}};
    c.onAllocateStore(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onStoreAddrReady(0, kA, 5, searched());
    c.onLoadIssue(1, kA, 10, issued(true));   // searched, found nothing
    EXPECT_EQ(c.errors().front().seq, 1u);
    EXPECT_EQ(c.errors().front().expected, 0u);
    return c;
}

// Mutant A2: the SQ search is skipped outright (broken gating) and no
// later violation check compensates. Issue time cannot flag this —
// skipping is legal under prediction — so the decisive check is the
// golden-memory comparison at commit.
LsqChecker
skippedSqSearch()
{
    LsqChecker c{LsqParams{}};
    c.onAllocateStore(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onStoreAddrReady(0, kA, 5, searched());
    c.onLoadIssue(1, kA, 10, issued(false));  // never searched
    EXPECT_EQ(c.mismatches(), 0u) << c.report();

    c.onStoreCommit(0, 20, searched());
    c.onLoadCommit(1);   // committed a stale value: store was visible
    return c;
}

// Mutant B: a load executes before an older store's AGEN and the
// violation machinery never reports it. Both defenses must fire: the
// reference violator comparison at the store's search, and the golden
// memory comparison at the load's commit.
LsqChecker
droppedViolation()
{
    LsqChecker c{LsqParams{}};
    c.onAllocateStore(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kA, 5, issued(true));      // premature, clean so far
    EXPECT_EQ(c.mismatches(), 0u) << c.report();

    c.onStoreAddrReady(0, kA, 10, searched());  // mutant: reports nothing
    EXPECT_TRUE(hasKind(c, CheckErrorKind::MissedStoreLoadDetection))
        << kinds(c);

    c.onStoreCommit(0, 20, searched());
    c.onLoadCommit(1);                          // stale value committed
    EXPECT_GE(c.mismatches(), 2u);
    return c;
}

// Mutant B2 (pair scheme): commit-time detection is dropped.
LsqChecker
droppedCommitTimeDetection()
{
    LsqParams p;
    p.checkViolationsAtCommit = true;
    LsqChecker c(p);
    c.onAllocateStore(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kA, 5, issued(false));
    c.onStoreAddrReady(0, kA, 10, searched());
    c.onStoreCommit(0, 20, searched());   // mutant: no violator reported
    return c;
}

// Mutant B3: the violation CAM reports a violator that never touched
// the store's address — an aliasing/mask bug selecting the wrong LQ
// entry. The reference rule expects no violator, so the report itself
// is the error.
LsqChecker
phantomViolation()
{
    LsqChecker c{LsqParams{}};
    c.onAllocateStore(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kB, 5, issued(true));       // different address
    c.onStoreAddrReady(0, kA, 10, searched(1));  // phantom violator
    return c;
}

// Mutant C: the CAM priority encoder picks the *oldest* matching store
// instead of the youngest older one.
LsqChecker
wrongForwarder()
{
    LsqChecker c{LsqParams{}};
    c.onAllocateStore(0, 0x100);
    c.onAllocateStore(1, 0x104);
    c.onAllocateLoad(2, 0x108);
    c.onStoreAddrReady(0, kA, 2, searched());
    c.onStoreAddrReady(1, kA, 4, searched());
    c.onLoadIssue(2, kA, 10, issued(true, 0));   // should be store 1
    EXPECT_EQ(c.errors().front().expected, 1u);
    EXPECT_EQ(c.errors().front().actual, 0u);
    return c;
}

// Mutant C2: forwarding from thin air — no older matching store exists.
LsqChecker
phantomForward()
{
    LsqChecker c{LsqParams{}};
    c.onAllocateStore(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onStoreAddrReady(0, kB, 2, searched());    // different address
    c.onLoadIssue(1, kA, 10, issued(true, 0));
    return c;
}

// Mutant D: the load buffer (or LQ load-load search) fails to flag a
// younger same-address load that issued early. Neither load's issue
// reports a violation, both commit — the commit-order invariant fires.
LsqChecker
undetectedLoadLoadOrder()
{
    LsqParams p;
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    LsqChecker c(p);
    c.onAllocateLoad(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kA, 3, issued(true));   // younger issues first
    c.onLoadIssue(0, kA, 8, issued(true));   // mutant: no violation
    c.onLoadCommit(0);
    EXPECT_EQ(c.mismatches(), 0u) << c.report();
    c.onLoadCommit(1);
    return c;
}

// Mutant D2: the ordering check cries wolf — reports a violating pair
// that does not exist (different addresses).
LsqChecker
phantomLoadLoadViolation()
{
    LsqParams p;
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    LsqChecker c(p);
    c.onAllocateLoad(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kB, 3, issued(true));   // younger, other address
    LoadIssueOutcome out = issued(true);
    out.llViolations.push_back(1);           // mutant: bogus report
    c.onLoadIssue(0, kA, 8, out);
    return c;
}

// Mutant P1: the load-buffer CAM misses on a probe — a vulnerable
// load is resident but the snoop reports no victim.
LsqChecker
probeSnoopMiss()
{
    LsqParams p;
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    LsqChecker c(p);
    c.onAllocateLoad(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kA, 3, issued(true));   // vulnerable resident
    c.onInvalidate(kA, 6, searched());       // mutant: no victim found
    EXPECT_EQ(c.errors().front().expected, 1u);
    return c;
}

// Mutant P1b: same bug on a conventional design — the invalidation LQ
// walk fails to report the outstanding load.
LsqChecker
probeWalkMiss()
{
    LsqChecker c{LsqParams{}};   // SearchLoadQueue
    c.onAllocateLoad(0, 0x100);
    c.onLoadIssue(0, kA, 2, issued(true));
    c.onInvalidate(kA, 5, searched());       // mutant: walk found nothing
    return c;
}

// Mutant P2: the snoop reports the right victim but the core drops
// the squash — the victim retires with its stale value. Both the
// pending-obligation check and the end-to-end remote-write rule fire.
LsqChecker
droppedProbeSquash()
{
    LsqParams p;
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    LsqChecker c(p);
    c.onAllocateLoad(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kA, 3, issued(true));
    c.onInvalidate(kA, 6, searched(1));      // agreement: squash owed
    EXPECT_EQ(c.mismatches(), 0u) << c.report();
    c.onLoadIssue(0, kB, 8, issued(true));   // mutant: no squash happens
    c.onLoadCommit(0);
    c.onLoadCommit(1);                       // stale value retires
    return c;
}

// Mutant P3: the snoop cries wolf — an in-order-issued load (never in
// the buffer, not vulnerable) is reported as a probe victim.
LsqChecker
spuriousProbeSquash()
{
    LsqParams p;
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    LsqChecker c(p);
    c.onAllocateLoad(0, 0x100);
    c.onLoadIssue(0, kA, 2, issued(true));   // oldest: issued in order
    c.onInvalidate(kA, 5, searched(0));      // mutant: phantom victim
    return c;
}

// Mutant P3b: over-squash — the snoop selects a load *older* than the
// oldest vulnerable one, wiping work the probe did not invalidate.
LsqChecker
probeOverSquash()
{
    LsqParams p;
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    LsqChecker c(p);
    c.onAllocateLoad(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onAllocateLoad(2, 0x108);
    c.onLoadIssue(1, kA, 3, issued(true));   // the true victim
    c.onLoadIssue(2, kA, 4, issued(true));
    c.onInvalidate(kA, 6, searched(0));      // mutant: squashes seq 0
    return c;
}

// Mutant E1: a load commits past the LQ head.
LsqChecker
outOfOrderCommit()
{
    LsqChecker c{LsqParams{}};
    c.onAllocateLoad(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(0, kA, 2, issued(true));
    c.onLoadIssue(1, kA, 4, issued(true));
    c.onLoadCommit(1);   // mutant: commits past the LQ head
    return c;
}

// Mutant E2: a load issues twice with no squash in between.
LsqChecker
doubleIssue()
{
    LsqChecker c{LsqParams{}};
    c.onAllocateLoad(0, 0x100);
    c.onLoadIssue(0, kA, 2, issued(true));
    c.onLoadIssue(0, kA, 5, issued(true));   // no squash in between
    return c;
}

struct Mutant
{
    const char *name;
    LsqChecker (*replay)();
    CheckErrorKind kind;   ///< the kind it must be flagged with
};

void
PrintTo(const Mutant &m, std::ostream *os)
{
    *os << m.name;
}

const Mutant kMutants[] = {
    {"BrokenSqSearch", brokenSqSearch, CheckErrorKind::MissedForward},
    {"SkippedSqSearch", skippedSqSearch, CheckErrorKind::MissedForward},
    {"DroppedViolation", droppedViolation,
     CheckErrorKind::MissedStoreLoadViolation},
    {"DroppedCommitTimeDetection", droppedCommitTimeDetection,
     CheckErrorKind::MissedStoreLoadDetection},
    {"PhantomViolation", phantomViolation,
     CheckErrorKind::PhantomStoreLoadViolation},
    {"WrongForwarder", wrongForwarder, CheckErrorKind::WrongForwarder},
    {"PhantomForward", phantomForward, CheckErrorKind::PhantomForward},
    {"UndetectedLoadLoadOrder", undetectedLoadLoadOrder,
     CheckErrorKind::UndetectedLoadLoadOrder},
    {"PhantomLoadLoadViolation", phantomLoadLoadViolation,
     CheckErrorKind::PhantomLoadLoadViolation},
    {"ProbeSnoopMiss", probeSnoopMiss, CheckErrorKind::MissedProbeSquash},
    {"ProbeWalkMiss", probeWalkMiss, CheckErrorKind::MissedProbeSquash},
    {"DroppedProbeSquash", droppedProbeSquash,
     CheckErrorKind::MissedProbeSquash},
    {"SpuriousProbeSquash", spuriousProbeSquash,
     CheckErrorKind::SpuriousProbeSquash},
    {"ProbeOverSquash", probeOverSquash,
     CheckErrorKind::SpuriousProbeSquash},
    {"OutOfOrderCommit", outOfOrderCommit, CheckErrorKind::BrokenProtocol},
    {"DoubleIssue", doubleIssue, CheckErrorKind::BrokenProtocol},
};

class CheckerMutant : public ::testing::TestWithParam<Mutant>
{
};

TEST_P(CheckerMutant, IsFlagged)
{
    LsqChecker c = GetParam().replay();
    EXPECT_TRUE(hasKind(c, GetParam().kind)) << kinds(c);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, CheckerMutant, ::testing::ValuesIn(kMutants),
    [](const ::testing::TestParamInfo<Mutant> &info) {
        return std::string(info.param.name);
    });

TEST(CheckerTaxonomy, EveryKindIsFlagged)
{
    // A CheckErrorKind no mutant provokes is an oracle path nobody has
    // seen fire.
    std::array<bool, kNumCheckErrorKinds> flagged{};
    for (const Mutant &m : kMutants) {
        LsqChecker c = m.replay();
        for (const CheckError &e : c.errors())
            flagged[static_cast<unsigned>(e.kind)] = true;
    }
    for (unsigned k = 0; k < kNumCheckErrorKinds; ++k)
        EXPECT_TRUE(flagged[k])
            << checkErrorKindName(static_cast<CheckErrorKind>(k))
            << " is flagged by no mutant stream";
}

} // namespace

// With ordering deliberately unenforced (ablation), the undetected
// load-load stream is architecturally acceptable and must check clean.
TEST(CheckerClean, LoadLoadOrderIgnoredWhenPolicyNone)
{
    LsqParams p;
    p.loadCheck = LoadCheckPolicy::None;
    LsqChecker c(p);
    c.onAllocateLoad(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kA, 3, issued(true));
    c.onLoadIssue(0, kA, 8, issued(true));
    c.onLoadCommit(0);
    c.onLoadCommit(1);
    EXPECT_EQ(c.mismatches(), 0u) << c.report();
}

// Clean reference stream: a probe hits a vulnerable load, the LSQ
// reports it, the core squashes and replays. Every step is legal.
TEST(CheckerClean, ProbeSquashReplayAccepted)
{
    LsqParams p;
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    LsqChecker c(p);
    c.onAllocateLoad(0, 0x100);
    c.onAllocateLoad(1, 0x104);
    c.onLoadIssue(1, kA, 3, issued(true));   // OOO past load 0: vulnerable
    c.onInvalidate(kA, 6, searched(1));      // snoop reports the victim
    c.onSquash(1);                           // core squashes from it
    c.onAllocateLoad(1, 0x104);              // replay
    c.onLoadIssue(0, kB, 8, issued(true));
    c.onLoadIssue(1, kA, 10, issued(true));  // re-executes after the write
    c.onLoadCommit(0);
    c.onLoadCommit(1);
    EXPECT_EQ(c.mismatches(), 0u) << c.report();
}

TEST(CheckerClean, RejectedProbeIsIgnored)
{
    // A rejected delivery (no LQ port) is retried by the coherence
    // agent; it is not a visibility point and must not create a squash
    // obligation.
    LsqParams p;
    LsqChecker c(p);
    c.onAllocateLoad(0, 0x100);
    c.onLoadIssue(0, kA, 2, issued(true));
    StoreSearchOutcome noPort;   // accepted == false
    c.onInvalidate(kA, 4, noPort);
    c.onLoadCommit(0);
    EXPECT_EQ(c.mismatches(), 0u) << c.report();
}

// --------------------------------------------- whole-core clean runs --

namespace {

/**
 * Run @p insts instructions of the synthetic workload on a real Core
 * with a checker attached; the oracle must stay silent.
 */
void
runChecked(const SimConfig &cfg, std::uint64_t insts)
{
    StatSet stats;
    Core core(cfg.core, cfg.lsq, cfg.memory, profileFor(cfg.benchmark),
              cfg.seed, stats);
    LsqChecker checker(cfg.lsq);
    core.lsq().attachChecker(&checker);
    core.run(insts);
    core.lsq().attachChecker(nullptr);
    EXPECT_EQ(checker.mismatches(), 0u) << checker.report();
    EXPECT_GT(checker.opsChecked(), insts / 4)
        << "checker saw implausibly few memory events";
}

} // namespace

TEST(CheckerCoreRuns, ConventionalBaseline)
{
    runChecked(configs::base("bzip"), 6000);
}

TEST(CheckerCoreRuns, SegmentedNoSelfCircular)
{
    runChecked(configs::withSegmentation(configs::base("bzip"), 4, 16,
                                         SegAllocPolicy::NoSelfCircular),
               6000);
}

TEST(CheckerCoreRuns, SegmentedSelfCircular)
{
    runChecked(configs::withSegmentation(configs::base("mcf"), 4, 16,
                                         SegAllocPolicy::SelfCircular),
               6000);
}

TEST(CheckerCoreRuns, PairPredictor)
{
    runChecked(configs::withPairPredictor(configs::base("bzip")), 6000);
}

TEST(CheckerCoreRuns, LoadBuffer)
{
    runChecked(configs::withLoadBuffer(configs::base("vortex"), 2), 6000);
}

TEST(CheckerCoreRuns, AllTechniquesSegmented)
{
    runChecked(configs::withSegmentation(
                   configs::allTechniques(configs::base("bzip")), 4, 16,
                   SegAllocPolicy::SelfCircular),
               6000);
}

TEST(CheckerCoreRuns, CombinedQueue)
{
    runChecked(configs::withCombinedQueue(configs::base("bzip"), 32),
               6000);
}

TEST(CheckerCoreRuns, InOrderLoads)
{
    runChecked(configs::withInOrderLoads(configs::base("bzip"), true),
               6000);
}
