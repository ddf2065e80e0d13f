/**
 * @file
 * Unit tests for src/sim: configuration presets, the Simulator, and
 * the ExperimentRunner plumbing every bench uses.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

using namespace lsqscale;

// --------------------------------------------------------- config -----

TEST(SimConfig, BaseIsTable1)
{
    SimConfig c = configs::base("bzip");
    EXPECT_EQ(c.benchmark, "bzip");
    EXPECT_EQ(c.core.robEntries, 256u);
    EXPECT_EQ(c.core.iqEntries, 64u);
    EXPECT_EQ(c.core.issueWidth, 8u);
    EXPECT_EQ(c.core.intPhysRegs, 356u);
    EXPECT_EQ(c.core.fpPhysRegs, 356u);
    EXPECT_EQ(c.lsq.lqEntries, 32u);
    EXPECT_EQ(c.lsq.sqEntries, 32u);
    EXPECT_EQ(c.lsq.searchPorts, 2u);
    EXPECT_EQ(c.lsq.numSegments, 1u);
    EXPECT_EQ(c.lsq.sqPolicy, SqSearchPolicy::Always);
    EXPECT_EQ(c.core.storeSet.ssitEntries, 4096u);
    EXPECT_EQ(c.core.storeSet.lfstEntries, 128u);
    EXPECT_EQ(c.core.branchPredictor.tableEntries, 4096u);
}

TEST(SimConfig, Modifiers)
{
    SimConfig c = configs::withPorts(configs::base("gcc"), 4);
    EXPECT_EQ(c.lsq.searchPorts, 4u);

    c = configs::withPairPredictor(configs::base("gcc"));
    EXPECT_EQ(c.lsq.sqPolicy, SqSearchPolicy::Pair);
    EXPECT_TRUE(c.lsq.checkViolationsAtCommit);

    c = configs::withPerfectPredictor(configs::base("gcc"));
    EXPECT_EQ(c.lsq.sqPolicy, SqSearchPolicy::Perfect);
    EXPECT_FALSE(c.lsq.checkViolationsAtCommit);

    c = configs::withAggressivePredictor(configs::base("gcc"));
    EXPECT_EQ(c.lsq.sqPolicy, SqSearchPolicy::Pair);
    EXPECT_TRUE(c.core.storeSet.aliasFree);

    c = configs::withLoadBuffer(configs::base("gcc"), 2);
    EXPECT_EQ(c.lsq.loadCheck, LoadCheckPolicy::LoadBuffer);
    EXPECT_EQ(c.lsq.loadBufferEntries, 2u);

    c = configs::withLoadBuffer(configs::base("gcc"), 0);
    EXPECT_EQ(c.lsq.loadCheck, LoadCheckPolicy::InOrder);

    c = configs::withInOrderLoads(configs::base("gcc"), true);
    EXPECT_EQ(c.lsq.loadCheck, LoadCheckPolicy::InOrderAlwaysSearch);

    c = configs::withSegmentation(configs::base("gcc"), 4, 28,
                                  SegAllocPolicy::SelfCircular);
    EXPECT_EQ(c.lsq.numSegments, 4u);
    EXPECT_EQ(c.lsq.lqEntries, 28u);
    EXPECT_EQ(c.lsq.totalLqEntries(), 112u);

    c = configs::withQueueSize(configs::base("gcc"), 128);
    EXPECT_EQ(c.lsq.lqEntries, 128u);
    EXPECT_EQ(c.lsq.numSegments, 1u);
}

TEST(SimConfig, ScaledProcessor)
{
    SimConfig c = configs::scaledProcessor(configs::base("gcc"));
    EXPECT_EQ(c.core.issueWidth, 12u);
    EXPECT_EQ(c.core.iqEntries, 96u);
    EXPECT_EQ(c.memory.l1d.hitLatency, 3u);
}

TEST(SimConfig, AllTechniques)
{
    SimConfig c = configs::allTechniques(configs::base("gcc"));
    EXPECT_EQ(c.lsq.sqPolicy, SqSearchPolicy::Pair);
    EXPECT_EQ(c.lsq.loadCheck, LoadCheckPolicy::LoadBuffer);
    EXPECT_EQ(c.lsq.loadBufferEntries, 2u);
    EXPECT_EQ(c.lsq.numSegments, 4u);
    EXPECT_EQ(c.lsq.searchPorts, 1u);
    EXPECT_TRUE(c.lsq.checkViolationsAtCommit);
}

// ------------------------------------------------------ simulator -----

TEST(Simulator, RunsAndMeasures)
{
    SimConfig c = configs::base("bzip");
    c.instructions = 5000;
    c.warmup = 1000;
    SimResult r = Simulator(c).run();
    EXPECT_EQ(r.benchmark, "bzip");
    EXPECT_GE(r.committed, 5000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_GT(r.sqSearches(), 0u);
    EXPECT_GT(r.lqSearches(), 0u);
}

TEST(Simulator, DeterministicResults)
{
    SimConfig c = configs::base("gzip");
    c.instructions = 4000;
    SimResult a = Simulator(c).run();
    SimResult b = Simulator(c).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.sqSearches(), b.sqSearches());
}

TEST(Simulator, WarmupExcludedFromStats)
{
    SimConfig c = configs::base("bzip");
    c.instructions = 4000;
    c.warmup = 1000;
    SimResult r = Simulator(c).run();
    // Only the measurement window is counted.
    EXPECT_EQ(r.stats.value("core.committed"), r.committed);
    EXPECT_LE(r.committed, 4100u);
}

TEST(Simulator, CacheStatsExported)
{
    SimConfig c = configs::base("mcf");
    c.instructions = 4000;
    SimResult r = Simulator(c).run();
    EXPECT_GT(r.stats.value("l1d.hits") + r.stats.value("l1d.misses"),
              500u);
    // mcf misses a lot.
    EXPECT_GT(r.stats.value("l1d.misses"), 100u);
}

TEST(Simulator, EnvOverrideInstructionCount)
{
    setenv("LSQSCALE_INSTS", "1234", 1);
    EXPECT_EQ(effectiveInstructions(999999), 1234u);
    unsetenv("LSQSCALE_INSTS");
    EXPECT_EQ(effectiveInstructions(999999), 999999u);
}

TEST(Simulator, GarbageInstsEnvWarnsAndRunsConfiguredCount)
{
    // strtoull wrapped "-1" to 2^64-1, the end target then wrapped past
    // zero, and the run measured nothing; "20k" silently meant 20.
    SimConfig cfg = configs::base("bzip");
    cfg.instructions = 3000;
    cfg.warmup = 300;
    unsetenv("LSQSCALE_INSTS");
    SimResult want = Simulator(cfg).run();
    ASSERT_GE(want.committed, 3000u);
    for (const char *bad : {"-1", "20k", " 5000"}) {
        setenv("LSQSCALE_INSTS", bad, 1);
        testing::internal::CaptureStderr();
        SimResult got = Simulator(cfg).run();
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("LSQSCALE_INSTS"), std::string::npos) << bad;
        EXPECT_EQ(got.committed, want.committed) << bad;
        EXPECT_EQ(got.cycles, want.cycles) << bad;
    }
    unsetenv("LSQSCALE_INSTS");
}

// ----------------------------------------------- experiment runner ----

TEST(ExperimentRunner, AveragesSplitIntFp)
{
    ExperimentRunner r;
    std::vector<double> v(18, 0.0);
    // INT benchmarks are the first nine in paper order.
    for (int i = 0; i < 9; ++i)
        v[i] = 1.0;
    EXPECT_DOUBLE_EQ(r.intAvg(v), 1.0);
    EXPECT_DOUBLE_EQ(r.fpAvg(v), 0.0);
}

TEST(ExperimentRunner, SpeedupsAndNormalization)
{
    ExperimentRunner r({"bzip"});
    SimResult base, test;
    base.benchmark = test.benchmark = "bzip";
    base.cycles = 1000;
    base.committed = 1000;
    test.cycles = 800;
    test.committed = 1000;
    auto sp = r.speedups({base}, {test});
    ASSERT_EQ(sp.size(), 1u);
    EXPECT_NEAR(sp[0], 0.25, 1e-9);

    base.stats.counter("sq.searches").inc(100);
    test.stats.counter("sq.searches").inc(25);
    auto norm = r.normalized({base}, {test}, [](const SimResult &x) {
        return static_cast<double>(x.sqSearches());
    });
    EXPECT_DOUBLE_EQ(norm[0], 0.25);
}

TEST(ExperimentRunner, TableRendersAverages)
{
    ExperimentRunner r({"bzip", "ammp"});
    std::vector<double> col = {0.10, 0.30};
    std::string out = r.table("T", {{"c", col}}, true);
    EXPECT_NE(out.find("Int.Avg"), std::string::npos);
    EXPECT_NE(out.find("Fp.Avg"), std::string::npos);
    EXPECT_NE(out.find("+10.0%"), std::string::npos);
    EXPECT_NE(out.find("+30.0%"), std::string::npos);
}

TEST(ExperimentRunner, RunProducesPerBenchmarkResults)
{
    ExperimentRunner r({"bzip", "mgrid"});
    NamedConfig cfg{"t", [](const std::string &b) {
                        SimConfig c = configs::base(b);
                        c.instructions = 2000;
                        c.warmup = 500;
                        return c;
                    }};
    ResultRow row = r.runAll({cfg}).front();
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0].benchmark, "bzip");
    EXPECT_EQ(row[1].benchmark, "mgrid");
    EXPECT_GT(row[0].ipc(), 0.0);
}

TEST(ExperimentRunner, BenchEnvOverride)
{
    setenv("LSQSCALE_BENCH", "mgrid,vortex", 1);
    ExperimentRunner r;
    unsetenv("LSQSCALE_BENCH");
    ASSERT_EQ(r.benchmarks().size(), 2u);
    EXPECT_EQ(r.benchmarks()[0], "mgrid");
    EXPECT_EQ(r.benchmarks()[1], "vortex");
}

TEST(ExperimentRunner, EmptyEnvOverrideIgnored)
{
    setenv("LSQSCALE_BENCH", "", 1);
    ExperimentRunner r;
    unsetenv("LSQSCALE_BENCH");
    EXPECT_EQ(r.benchmarks().size(), allBenchmarks().size());
}

TEST(ExperimentRunner, CsvRendering)
{
    ExperimentRunner r({"bzip", "ammp"});
    std::string out = r.csv({{"speedup", {0.5, -0.25}}});
    EXPECT_EQ(out, "benchmark,speedup\n"
                   "bzip,0.500000\n"
                   "ammp,-0.250000\n");
}

TEST(ExperimentRunner, CsvDirEnvWritesFile)
{
    ExperimentRunner r({"bzip"});
    std::string dir = ::testing::TempDir();
    setenv("LSQSCALE_CSV_DIR", dir.c_str(), 1);
    r.table("Figure 99: csv test!", {{"c", {1.0}}}, false);
    unsetenv("LSQSCALE_CSV_DIR");
    std::string path = dir + "/figure_99_csv_test.csv";
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[128] = {};
    std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_NE(std::string(buf).find("benchmark,c"), std::string::npos);
}
