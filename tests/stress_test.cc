/**
 * @file
 * Stress tests: run the full pipeline with deliberately tiny or
 * extreme structures so every stall/recovery path is exercised, and
 * sweep full design points end-to-end.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "memory/probe_agent.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"

using namespace lsqscale;

namespace {

void
runCore(const CoreParams &cp, const LsqParams &lp,
        const MemoryParams &mp, const std::string &bench,
        std::uint64_t insts, ProbeAgent *probes = nullptr)
{
    StatSet stats;
    Core core(cp, lp, mp, profileFor(bench), 1, stats);
    core.attachCoherenceAgent(probes);
    core.run(insts);
    EXPECT_GE(core.committed(), insts);
    EXPECT_GT(core.ipc(), 0.005);
}

} // namespace

TEST(Stress, TinyRob)
{
    CoreParams cp;
    cp.robEntries = 8;
    cp.iqEntries = 8;
    runCore(cp, LsqParams(), MemoryParams(), "gcc", 5000);
}

TEST(Stress, TinyIssueQueue)
{
    CoreParams cp;
    cp.iqEntries = 4;
    runCore(cp, LsqParams(), MemoryParams(), "equake", 5000);
}

TEST(Stress, MinimalPhysicalRegisters)
{
    // Just above the architectural minimum: rename stalls constantly.
    CoreParams cp;
    cp.intPhysRegs = 40;
    cp.fpPhysRegs = 40;
    runCore(cp, LsqParams(), MemoryParams(), "bzip", 5000);
}

TEST(Stress, SingleWidePipeline)
{
    CoreParams cp;
    cp.fetchWidth = 1;
    cp.dispatchWidth = 1;
    cp.issueWidth = 1;
    cp.commitWidth = 1;
    runCore(cp, LsqParams(), MemoryParams(), "perl", 4000);
}

TEST(Stress, TinyLsq)
{
    LsqParams lp;
    lp.lqEntries = 2;
    lp.sqEntries = 2;
    lp.searchPorts = 1;
    runCore(CoreParams(), lp, MemoryParams(), "vortex", 4000);
}

TEST(Stress, ManyTinySegments)
{
    LsqParams lp;
    lp.numSegments = 8;
    lp.lqEntries = 2;
    lp.sqEntries = 2;
    lp.searchPorts = 1;
    lp.allocPolicy = SegAllocPolicy::NoSelfCircular;
    runCore(CoreParams(), lp, MemoryParams(), "twolf", 4000);
}

TEST(Stress, SegmentedWithLoadBufferAndPair)
{
    LsqParams lp;
    lp.numSegments = 8;
    lp.lqEntries = 4;
    lp.sqEntries = 4;
    lp.searchPorts = 1;
    lp.sqPolicy = SqSearchPolicy::Pair;
    lp.checkViolationsAtCommit = true;
    lp.loadCheck = LoadCheckPolicy::LoadBuffer;
    lp.loadBufferEntries = 1;
    runCore(CoreParams(), lp, MemoryParams(), "perl", 5000);
}

TEST(Stress, ZeroLatePenaltyAndStallContention)
{
    LsqParams lp;
    lp.numSegments = 4;
    lp.lqEntries = 8;
    lp.sqEntries = 8;
    lp.lateWakeupPenalty = 0;
    lp.contentionPolicy = ContentionPolicy::Stall;
    runCore(CoreParams(), lp, MemoryParams(), "ammp", 4000);
}

TEST(Stress, TinyCaches)
{
    MemoryParams mp;
    mp.l1d = CacheParams{"l1d", 1024, 1, 32, 2, 4};
    mp.l1i = CacheParams{"l1i", 1024, 1, 32, 2, 2};
    mp.l2 = CacheParams{"l2", 8192, 2, 64, 12, 4};
    runCore(CoreParams(), LsqParams(), mp, "mcf", 2000);
}

TEST(Stress, TinyPredictorTables)
{
    CoreParams cp;
    cp.branchPredictor.tableEntries = 16;
    cp.branchPredictor.bhtEntries = 16;
    cp.branchPredictor.historyBits = 4;
    cp.storeSet.ssitEntries = 16;
    cp.storeSet.lfstEntries = 4;
    cp.storeSet.counterBits = 1;
    cp.storeSet.clearInterval = 512;
    runCore(cp, LsqParams(), MemoryParams(), "gcc", 5000);
}

TEST(Stress, HeavyInvalidationsEverywhere)
{
    ProbeAgentParams pp;
    pp.enabled = true;
    pp.probesPerKCycle = 100.0;
    ProbeAgent probes(pp);
    LsqParams lp;
    lp.numSegments = 4;
    lp.lqEntries = 8;
    lp.sqEntries = 8;
    lp.searchPorts = 1;
    lp.loadCheck = LoadCheckPolicy::LoadBuffer;
    runCore(CoreParams(), lp, MemoryParams(), "equake", 4000, &probes);
    EXPECT_GT(probes.deliveredCount(), 0u);
}

// Full cross-product sweep of the paper's design dimensions at tiny
// instruction counts: everything must terminate and commit.
class DesignSweep
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, int, int, bool>>
{
};

TEST_P(DesignSweep, RunsToCompletion)
{
    auto [ports, segments, predictor, loadCheck, combined] = GetParam();
    SimConfig cfg = configs::base("parser");
    cfg.instructions = 2500;
    cfg.warmup = 500;
    cfg.lsq.searchPorts = ports;
    if (segments > 1) {
        cfg = configs::withSegmentation(cfg, segments, 8,
                                        SegAllocPolicy::SelfCircular);
    }
    if (combined)
        cfg = configs::withCombinedQueue(std::move(cfg),
                                         segments > 1 ? 8 : 32);
    switch (predictor) {
      case 1:
        cfg = configs::withPerfectPredictor(cfg);
        break;
      case 2:
        cfg = configs::withPairPredictor(cfg);
        break;
      default:
        break;
    }
    switch (loadCheck) {
      case 1:
        cfg = configs::withLoadBuffer(cfg, 2);
        break;
      case 2:
        cfg = configs::withInOrderLoads(cfg, true);
        break;
      default:
        break;
    }
    SimResult r = Simulator(cfg).run();
    EXPECT_GE(r.committed, 2500u);
    EXPECT_GT(r.ipc(), 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Everything, DesignSweep,
    ::testing::Combine(::testing::Values(1u, 2u),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2),
                       ::testing::Bool()));
