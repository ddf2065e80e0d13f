/**
 * @file
 * Unit tests for src/core: renaming, ROB, issue queue, and whole-
 * pipeline behaviour of the Core.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "core/issue_queue.hh"
#include "core/phys_reg_file.hh"
#include "core/rob.hh"
#include "memory/probe_agent.hh"
#include "workload/benchmark_profile.hh"

using namespace lsqscale;

// ---------------------------------------------------- PhysRegFile -----

TEST(PhysRegFile, InitialMappingReady)
{
    PhysRegFile f(32, 64);
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_EQ(f.lookup(i), i);
        EXPECT_TRUE(f.isReady(f.lookup(i)));
    }
    EXPECT_EQ(f.freeRegs(), 32u);
}

TEST(PhysRegFile, RenameAllocatesNotReady)
{
    PhysRegFile f(32, 64);
    PhysReg prev = f.rename(5);
    EXPECT_EQ(prev, 5);
    PhysReg fresh = f.lookup(5);
    EXPECT_NE(fresh, prev);
    EXPECT_FALSE(f.isReady(fresh));
    f.setReady(fresh);
    EXPECT_TRUE(f.isReady(fresh));
}

TEST(PhysRegFile, FreeListExhaustion)
{
    PhysRegFile f(4, 8);
    for (int i = 0; i < 4; ++i)
        f.rename(0);
    EXPECT_FALSE(f.hasFreeReg());
    EXPECT_DEATH({ f.rename(0); }, "free register");
}

TEST(PhysRegFile, WalkBackRestoresMapping)
{
    PhysRegFile f(8, 16);
    PhysReg prev1 = f.rename(3);
    PhysReg p1 = f.lookup(3);
    PhysReg prev2 = f.rename(3);
    PhysReg p2 = f.lookup(3);
    EXPECT_EQ(prev2, p1);
    // Undo newest-first.
    f.restoreMapping(3, p2, prev2);
    EXPECT_EQ(f.lookup(3), p1);
    f.restoreMapping(3, p1, prev1);
    EXPECT_EQ(f.lookup(3), prev1);
    EXPECT_EQ(f.freeRegs(), 8u);
}

TEST(PhysRegFile, OutOfOrderWalkBackDies)
{
    PhysRegFile f(8, 16);
    PhysReg prev1 = f.rename(3);
    PhysReg p1 = f.lookup(3);
    f.rename(3);
    EXPECT_DEATH({ f.restoreMapping(3, p1, prev1); }, "walk-back");
}

TEST(PhysRegFile, CommitRecyclesPrev)
{
    PhysRegFile f(8, 16);
    std::size_t before = f.freeRegs();
    PhysReg prev = f.rename(2);
    EXPECT_EQ(f.freeRegs(), before - 1);
    f.releaseAtCommit(prev);
    EXPECT_EQ(f.freeRegs(), before);
}

// ------------------------------------------------------------ Rob -----

TEST(Rob, PushPopInOrder)
{
    Rob rob(4);
    MicroOp op;
    for (SeqNum i = 0; i < 4; ++i) {
        op.seq = i;
        rob.push(op, 0);
    }
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head().op.seq, 0u);
    rob.popHead();
    EXPECT_EQ(rob.head().op.seq, 1u);
    EXPECT_EQ(rob.back().op.seq, 3u);
    rob.popBack();
    EXPECT_EQ(rob.size(), 2u);
}

TEST(Rob, FindBinarySearch)
{
    Rob rob(16);
    MicroOp op;
    for (SeqNum i = 10; i < 20; ++i) {
        op.seq = i;
        rob.push(op, 0);
    }
    EXPECT_NE(rob.find(14), nullptr);
    EXPECT_EQ(rob.find(14)->op.seq, 14u);
    EXPECT_EQ(rob.find(9), nullptr);
    EXPECT_EQ(rob.find(20), nullptr);
    EXPECT_EQ(rob.find(100), nullptr);
}

TEST(Rob, FindIndexesContiguousRange)
{
    Rob rob(8);
    MicroOp op;
    for (SeqNum i = 0; i < 8; ++i) {
        op.seq = i;
        rob.push(op, 0);
    }
    rob.popHead();
    rob.popHead();   // commit 0, 1
    for (SeqNum i = 2; i < 8; ++i) {
        ASSERT_NE(rob.find(i), nullptr);
        EXPECT_EQ(rob.find(i)->op.seq, i);
    }
    EXPECT_EQ(rob.find(1), nullptr);
    EXPECT_EQ(rob.find(8), nullptr);
    // Squash from 5, then refetch 5 and 6.
    rob.popBack();
    rob.popBack();
    rob.popBack();
    EXPECT_EQ(rob.find(5), nullptr);
    for (SeqNum i = 5; i < 7; ++i) {
        op.seq = i;
        rob.push(op, 1);
    }
    ASSERT_NE(rob.find(5), nullptr);
    EXPECT_EQ(rob.find(5)->dispatchCycle, 1u);
    EXPECT_EQ(rob.find(6)->op.seq, 6u);
    EXPECT_EQ(rob.find(7), nullptr);
    EXPECT_EQ(rob.find(2)->op.seq, 2u);
}

TEST(Rob, SeqGapDies)
{
    Rob rob(4);
    MicroOp op;
    op.seq = 0;
    rob.push(op, 0);
    op.seq = 2;
    EXPECT_DEATH({ rob.push(op, 0); }, "dense");
}

TEST(Rob, OutOfOrderPushDies)
{
    Rob rob(4);
    MicroOp op;
    op.seq = 5;
    rob.push(op, 0);
    op.seq = 3;
    EXPECT_DEATH({ rob.push(op, 0); }, "program order");
}

TEST(Rob, OverflowDies)
{
    Rob rob(2);
    MicroOp op;
    op.seq = 0;
    rob.push(op, 0);
    op.seq = 1;
    rob.push(op, 0);
    op.seq = 2;
    EXPECT_DEATH({ rob.push(op, 0); }, "overflow");
}

// ----------------------------------------------------- IssueQueue -----

TEST(IssueQueue, SelectRespectsReadiness)
{
    IssueQueue iq(8);
    IqEntry e;
    e.seq = 1;
    e.src1 = 10;
    iq.push(e);
    e.seq = 2;
    e.src1 = kNoReg;
    iq.push(e);

    auto notReady = [](PhysReg, bool) { return false; };
    auto allReady = [](PhysReg, bool) { return true; };
    std::vector<SeqNum> ready;
    iq.selectReady(5, notReady, ready);
    EXPECT_EQ(ready, std::vector<SeqNum>{2});
    iq.selectReady(5, allReady, ready);
    EXPECT_EQ(ready.size(), 2u);
}

TEST(IssueQueue, SelectRespectsNotBefore)
{
    IssueQueue iq(8);
    IqEntry e;
    e.seq = 1;
    e.notBefore = 10;
    iq.push(e);
    auto allReady = [](PhysReg, bool) { return true; };
    std::vector<SeqNum> ready;
    iq.selectReady(9, allReady, ready);
    EXPECT_TRUE(ready.empty());
    iq.selectReady(10, allReady, ready);
    EXPECT_EQ(ready.size(), 1u);
}

TEST(IssueQueue, OldestFirstOrder)
{
    IssueQueue iq(8);
    IqEntry e;
    for (SeqNum s : {3u, 7u, 9u}) {
        e.seq = s;
        iq.push(e);
    }
    auto allReady = [](PhysReg, bool) { return true; };
    std::vector<SeqNum> ready;
    iq.selectReady(0, allReady, ready);
    ASSERT_EQ(ready.size(), 3u);
    EXPECT_EQ(ready[0], 3u);
    EXPECT_EQ(ready[2], 9u);
}

TEST(IssueQueue, RemoveAndSquash)
{
    IssueQueue iq(8);
    IqEntry e;
    for (SeqNum s = 0; s < 6; ++s) {
        e.seq = s;
        iq.push(e);
    }
    iq.remove(2);
    EXPECT_EQ(iq.size(), 5u);
    EXPECT_EQ(iq.find(2), nullptr);
    iq.squashFrom(4);
    EXPECT_EQ(iq.size(), 3u);   // 0, 1, 3
    EXPECT_NE(iq.find(3), nullptr);
    EXPECT_EQ(iq.find(5), nullptr);
}

TEST(IssueQueue, RemoveMissingDies)
{
    IssueQueue iq(4);
    EXPECT_DEATH({ iq.remove(9); }, "not present");
}

TEST(IssueQueue, FullStops)
{
    IssueQueue iq(2);
    IqEntry e;
    e.seq = 0;
    iq.push(e);
    e.seq = 1;
    iq.push(e);
    EXPECT_TRUE(iq.full());
    e.seq = 2;
    EXPECT_DEATH({ iq.push(e); }, "overflow");
}

// ----------------------------------------------------------- Core -----

namespace {

struct CoreFixture
{
    StatSet stats;
    Core core;

    explicit CoreFixture(const std::string &bench = "bzip",
                         CoreParams cp = CoreParams(),
                         LsqParams lp = LsqParams(),
                         std::uint64_t seed = 1)
        : core(cp, lp, MemoryParams(), profileFor(bench), seed, stats)
    {}
};

/** Random-mode coherence agent: ~@p rate probes per kilocycle. */
ProbeAgentParams
randomProbes(double rate)
{
    ProbeAgentParams pp;
    pp.enabled = true;
    pp.probesPerKCycle = rate;
    return pp;
}

} // namespace

TEST(Core, MakesForwardProgress)
{
    CoreFixture f;
    f.core.run(5000);
    EXPECT_GE(f.core.committed(), 5000u);
    EXPECT_GT(f.core.cycle(), 0u);
    EXPECT_GT(f.core.ipc(), 0.1);
    EXPECT_LT(f.core.ipc(), 8.0);
}

TEST(Core, DeterministicAcrossRuns)
{
    CoreFixture a, b;
    a.core.run(3000);
    b.core.run(3000);
    EXPECT_EQ(a.core.cycle(), b.core.cycle());
    EXPECT_EQ(a.core.committed(), b.core.committed());
    EXPECT_EQ(a.stats.value("sq.searches"),
              b.stats.value("sq.searches"));
    EXPECT_EQ(a.stats.value("squash.total"),
              b.stats.value("squash.total"));
}

TEST(Core, DifferentSeedsDiffer)
{
    CoreFixture a("bzip", CoreParams(), LsqParams(), 1);
    CoreFixture b("bzip", CoreParams(), LsqParams(), 2);
    a.core.run(3000);
    b.core.run(3000);
    EXPECT_NE(a.core.cycle(), b.core.cycle());
}

TEST(Core, CommitsEveryClass)
{
    CoreFixture f("gcc");
    f.core.run(20000);
    EXPECT_GT(f.stats.value("core.committed.loads"), 1000u);
    EXPECT_GT(f.stats.value("core.committed.stores"), 500u);
    EXPECT_GT(f.stats.value("core.committed.branches"), 500u);
}

TEST(Core, ConventionalModeSearchCounts)
{
    CoreFixture f;
    f.core.run(10000);
    // Every load searches the SQ in the conventional base, possibly
    // several times through replays, never fewer than issued loads.
    EXPECT_GE(f.stats.value("sq.searches"),
              f.stats.value("core.committed.loads"));
    // Load-load checks by loads plus store checks populate the LQ.
    EXPECT_GE(f.stats.value("lq.searches.byload"),
              f.stats.value("core.committed.loads"));
}

TEST(Core, PairSchemeSearchesLess)
{
    LsqParams pair;
    pair.sqPolicy = SqSearchPolicy::Pair;
    pair.checkViolationsAtCommit = true;
    CoreFixture base("bzip");
    CoreFixture gated("bzip", CoreParams(), pair);
    base.core.run(20000);
    gated.core.run(20000);
    EXPECT_LT(gated.stats.value("sq.searches"),
              base.stats.value("sq.searches") / 2);
}

TEST(Core, PerfectPolicySearchesOnlyMatches)
{
    LsqParams perfect;
    perfect.sqPolicy = SqSearchPolicy::Perfect;
    CoreFixture f("bzip", CoreParams(), perfect);
    f.core.run(20000);
    // Every search the oracle allows finds a match.
    EXPECT_EQ(f.stats.value("sq.searches"),
              f.stats.value("sq.searches.matched"));
}

TEST(Core, LoadBufferEliminatesLoadLqSearches)
{
    LsqParams lb;
    lb.loadCheck = LoadCheckPolicy::LoadBuffer;
    lb.loadBufferEntries = 2;
    CoreFixture f("bzip", CoreParams(), lb);
    f.core.run(20000);
    EXPECT_EQ(f.stats.value("lq.searches.byload"), 0u);
    EXPECT_GT(f.stats.value("lb.searches"), 0u);
}

TEST(Core, MorePortsNeverSlower)
{
    LsqParams one = LsqParams();
    one.searchPorts = 1;
    LsqParams four = LsqParams();
    four.searchPorts = 4;
    CoreFixture p1("equake", CoreParams(), one);
    CoreFixture p4("equake", CoreParams(), four);
    p1.core.run(20000);
    p4.core.run(20000);
    // Identical traces; more search bandwidth can only help (allow a
    // sliver of slack for squash-timing noise).
    EXPECT_LE(p4.core.cycle(),
              p1.core.cycle() + p1.core.cycle() / 50);
}

TEST(Core, BiggerLsqNeverMuchSlower)
{
    LsqParams small;   // 32+32
    LsqParams big;
    big.lqEntries = 128;
    big.sqEntries = 128;
    CoreFixture s("swim", CoreParams(), small);
    CoreFixture b("swim", CoreParams(), big);
    s.core.run(20000);
    b.core.run(20000);
    EXPECT_LE(b.core.cycle(),
              s.core.cycle() + s.core.cycle() / 50);
}

TEST(Core, SquashesAreRecoverable)
{
    // perl has the richest alias behaviour; run long enough to see
    // squashes and verify the pipeline still retires everything.
    CoreFixture f("perl");
    f.core.run(30000);
    EXPECT_GT(f.stats.value("squash.total"), 0u);
    EXPECT_GE(f.core.committed(), 30000u);
}

TEST(Core, BranchPredictorIsUsed)
{
    CoreFixture f("gcc");
    f.core.run(20000);
    EXPECT_GT(f.core.branchPredictor().lookups(), 1000u);
    EXPECT_GT(f.stats.value("fetch.mispredicts"), 0u);
    // Accuracy is sane (> 70%).
    double acc = 1.0 - static_cast<double>(
                           f.core.branchPredictor().mispredicts()) /
                           f.core.branchPredictor().lookups();
    EXPECT_GT(acc, 0.7);
}

TEST(Core, OccupancyNeverExceedsCapacity)
{
    LsqParams p;
    p.lqEntries = 16;
    p.sqEntries = 16;
    CoreFixture f("mgrid", CoreParams(), p);
    for (int i = 0; i < 5000; ++i) {
        f.core.tick();
        ASSERT_LE(f.core.lsq().lqLive(), 16u);
        ASSERT_LE(f.core.lsq().sqLive(), 16u);
    }
}

TEST(Core, ScaledProcessorRunsWider)
{
    CoreParams wide;
    wide.fetchWidth = 12;
    wide.dispatchWidth = 12;
    wide.issueWidth = 12;
    wide.commitWidth = 12;
    wide.iqEntries = 96;
    CoreFixture f("mesa", wide);
    f.core.run(10000);
    EXPECT_GE(f.core.committed(), 10000u);
}

TEST(Core, InOrderLoadsSlower)
{
    LsqParams inorder;
    inorder.loadCheck = LoadCheckPolicy::InOrderAlwaysSearch;
    CoreFixture base("mcf");
    CoreFixture ord("mcf", CoreParams(), inorder);
    base.core.run(8000);
    ord.core.run(8000);
    EXPECT_GE(ord.core.cycle(), base.core.cycle());
}

TEST(Core, SegmentedCapacityHelpsLoadBound)
{
    LsqParams seg;
    seg.numSegments = 4;
    seg.lqEntries = 28;
    seg.sqEntries = 28;
    seg.allocPolicy = SegAllocPolicy::SelfCircular;
    CoreFixture base("art");
    CoreFixture wide("art", CoreParams(), seg);
    base.core.run(8000);
    wide.core.run(8000);
    EXPECT_LT(wide.core.cycle(), base.core.cycle());
}

TEST(Core, DebugDumpMentionsState)
{
    CoreFixture f;
    f.core.run(100);
    std::string d = f.core.debugDump();
    EXPECT_NE(d.find("rob="), std::string::npos);
    EXPECT_NE(d.find("lq="), std::string::npos);
}

// Every benchmark makes progress on the base machine.
class CoreAllBench : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CoreAllBench, RunsCleanly)
{
    CoreFixture f(GetParam());
    f.core.run(4000);
    EXPECT_GE(f.core.committed(), 4000u);
    EXPECT_GT(f.core.ipc(), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, CoreAllBench,
                         ::testing::ValuesIn(allBenchmarks()));

// -------------------------------------- external invalidations -------

TEST(Core, InvalidationTrafficSquashesAndRecovers)
{
    ProbeAgent probes(randomProbes(20.0));   // heavy coherence traffic
    CoreFixture f("equake");
    f.core.attachCoherenceAgent(&probes);
    f.core.run(15000);
    EXPECT_GT(f.stats.value("probe.delivered"), 10u);
    EXPECT_GT(f.stats.value("squash.invalidation"), 0u);
    EXPECT_GE(f.core.committed(), 15000u);
}

TEST(Core, HeavyInvalidationTrafficCostsPerformance)
{
    // At a realistic rate the effect drowns in timing noise; at an
    // extreme rate (one invalidation every ~3 cycles, each taking an
    // LQ port and squashing matching loads) the cost must show.
    ProbeAgent probes(randomProbes(300.0));
    CoreFixture q("equake");
    CoreFixture n("equake");
    n.core.attachCoherenceAgent(&probes);
    q.core.run(12000);
    n.core.run(12000);
    EXPECT_GT(n.core.cycle(), q.core.cycle());
    EXPECT_GT(n.stats.value("squash.invalidation"), 20u);
}

TEST(Core, NoInvalidationsByDefault)
{
    // A default-configured agent has no random rate and no scripted
    // writers, so nothing reaches the LSQ.
    ProbeAgentParams pp;
    pp.enabled = true;
    ProbeAgent probes(pp);
    CoreFixture f("equake");
    f.core.attachCoherenceAgent(&probes);
    f.core.run(8000);
    EXPECT_EQ(f.stats.value("probe.delivered"), 0u);
}

// ------------------------------------ memory-dependence baselines -----

TEST(Core, TotalOrderNeverViolatesStoreLoad)
{
    CoreParams cp;
    cp.memDepPolicy = MemDepPolicy::TotalOrder;
    CoreFixture f("perl", cp);
    f.core.run(15000);
    EXPECT_EQ(f.stats.value("squash.storeload.exec"), 0u);
    EXPECT_GT(f.stats.value("loads.totalorder.wait"), 0u);
}

TEST(Core, BlindSpeculationViolatesMore)
{
    CoreParams blind;
    blind.memDepPolicy = MemDepPolicy::BlindSpeculation;
    CoreFixture b("perl", blind);
    CoreFixture s("perl");   // StoreSet default
    b.core.run(15000);
    s.core.run(15000);
    EXPECT_GT(b.stats.value("squash.storeload.exec"),
              s.stats.value("squash.storeload.exec"));
}

TEST(Core, DependenceDisciplineOrdering)
{
    // On an alias-heavy benchmark the predictor should not lose badly
    // to either baseline extreme.
    CoreParams blind, total;
    blind.memDepPolicy = MemDepPolicy::BlindSpeculation;
    total.memDepPolicy = MemDepPolicy::TotalOrder;
    CoreFixture b("vortex", blind);
    CoreFixture t("vortex", total);
    CoreFixture s("vortex");
    b.core.run(12000);
    t.core.run(12000);
    s.core.run(12000);
    EXPECT_LE(s.core.cycle(),
              std::max(b.core.cycle(), t.core.cycle()));
}

TEST(Core, CombinedQueueRunsEndToEnd)
{
    LsqParams lp;
    lp.combinedQueue = true;
    lp.numSegments = 4;
    lp.lqEntries = 28;   // 112 shared entries
    lp.searchPorts = 1;
    CoreFixture f("equake", CoreParams(), lp);
    f.core.run(10000);
    EXPECT_GE(f.core.committed(), 10000u);
    EXPECT_GT(f.core.ipc(), 0.1);
}

TEST(Core, CombinedQueueContentionOccursInPractice)
{
    // With one shared port and cross-direction searches, the paper's
    // Section 3.2 contention events actually fire on a real workload.
    LsqParams lp;
    lp.combinedQueue = true;
    lp.numSegments = 4;
    lp.lqEntries = 28;
    lp.searchPorts = 1;
    CoreFixture f("vortex", CoreParams(), lp);
    f.core.run(30000);
    EXPECT_GT(f.stats.value("lsq.contention.loads"), 0u);
}
