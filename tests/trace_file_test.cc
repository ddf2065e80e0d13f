/**
 * @file
 * Tests for the binary trace file format and trace-driven simulation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"
#include "workload/trace_file.hh"
#include "workload/trace_generator.hh"

using namespace lsqscale;

namespace {

/** Temp path helper; files are removed in the fixture teardown. */
class TraceFileTest : public ::testing::Test
{
  protected:
    std::string
    tempPath(const std::string &name)
    {
        std::string p = ::testing::TempDir() + "lsqscale_" + name;
        paths_.push_back(p);
        return p;
    }

    void
    TearDown() override
    {
        for (const auto &p : paths_)
            std::remove(p.c_str());
    }

    std::vector<std::string> paths_;
};

/** A one-record trace whose op `forge` corrupted dies with `what`. */
template <typename Forge>
void
expectRejected(const std::string &path, Forge forge, const char *what)
{
    MicroOp op = TraceGenerator(profileFor("gzip"), 1).next();
    forge(op);
    TraceFileWriter(path).append(op);
    TraceFileReader r(path);
    EXPECT_DEATH(r.next(), what);
}

} // namespace

TEST_F(TraceFileTest, RoundTripPreservesEveryField)
{
    std::string path = tempPath("roundtrip.trace");
    TraceGenerator gen(profileFor("gcc"), 7);
    std::vector<MicroOp> ops;
    {
        TraceFileWriter w(path);
        for (int i = 0; i < 5000; ++i) {
            MicroOp op = gen.next();
            ops.push_back(op);
            w.append(op);
        }
        EXPECT_EQ(w.written(), 5000u);
    }

    TraceFileReader r(path);
    EXPECT_EQ(r.instructionCount(), 5000u);
    for (const MicroOp &want : ops) {
        MicroOp got = r.next();
        EXPECT_EQ(got.seq, want.seq);
        EXPECT_EQ(got.pc, want.pc);
        EXPECT_EQ(got.op, want.op);
        EXPECT_EQ(got.addr, want.addr);
        EXPECT_EQ(got.src1, want.src1);
        EXPECT_EQ(got.src2, want.src2);
        EXPECT_EQ(got.dest, want.dest);
        EXPECT_EQ(got.taken, want.taken);
        EXPECT_EQ(got.target, want.target);
    }
}

TEST_F(TraceFileTest, WrapsWithMonotonicSeqNumbers)
{
    std::string path = tempPath("wrap.trace");
    recordSyntheticTrace("bzip", 1, 100, path);
    TraceFileReader r(path);
    for (SeqNum i = 0; i < 350; ++i)
        EXPECT_EQ(r.next().seq, i);
}

TEST_F(TraceFileTest, RejectsGarbage)
{
    std::string path = tempPath("garbage.trace");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a trace", f);
    std::fclose(f);
    EXPECT_DEATH({ TraceFileReader r(path); }, "bad magic");
}

TEST_F(TraceFileTest, RejectsForgedOpClass)
{
    expectRejected(
        tempPath("forged_op.trace"),
        [](MicroOp &op) { op.op = static_cast<OpClass>(kNumOpClasses); },
        "corrupt trace: record 0 has op class");
}

TEST_F(TraceFileTest, RejectsForgedSourceRegister)
{
    expectRejected(tempPath("forged_src.trace"),
                   [](MicroOp &op) { op.src1 = 100; },
                   "corrupt trace: record 0 has register src1=100");
}

TEST_F(TraceFileTest, RejectsForgedDestRegister)
{
    expectRejected(tempPath("forged_dest.trace"),
                   [](MicroOp &op) { op.dest = kNumArchRegs; },
                   "corrupt trace: record 0 has register .* dest=");
}

TEST_F(TraceFileTest, RejectsMissingFile)
{
    EXPECT_DEATH({ TraceFileReader r("/nonexistent/x.trace"); },
                 "cannot open");
}

TEST_F(TraceFileTest, RejectsEmptyTrace)
{
    std::string path = tempPath("empty.trace");
    {
        TraceFileWriter w(path);
        w.close();
    }
    EXPECT_DEATH({ TraceFileReader r(path); }, "empty trace");
}

TEST_F(TraceFileTest, SimulatorRunsFromTrace)
{
    std::string path = tempPath("sim.trace");
    recordSyntheticTrace("bzip", 1, 40000, path);

    SimConfig cfg = configs::base("bzip");
    cfg.tracePath = path;
    cfg.instructions = 20000;
    cfg.warmup = 5000;
    SimResult r = Simulator(cfg).run();
    EXPECT_GE(r.committed, 20000u);
    EXPECT_GT(r.ipc(), 0.1);
}

TEST_F(TraceFileTest, TraceRunMatchesSyntheticRunClosely)
{
    // Same instructions, two delivery paths; the benchmark label lets
    // the trace run pre-warm, so results should track closely.
    std::string path = tempPath("match.trace");
    recordSyntheticTrace("bzip", 1, 60000, path);

    SimConfig synth = configs::base("bzip");
    synth.instructions = 30000;
    SimResult a = Simulator(synth).run();

    SimConfig traced = synth;
    traced.tracePath = path;
    SimResult b = Simulator(traced).run();

    EXPECT_NEAR(b.ipc(), a.ipc(), a.ipc() * 0.25);
    EXPECT_NEAR(static_cast<double>(b.sqSearches()),
                static_cast<double>(a.sqSearches()),
                0.25 * static_cast<double>(a.sqSearches()));
}

TEST_F(TraceFileTest, SquashReplayWorksOnTraceRuns)
{
    // perl squashes regularly; a trace-driven run must replay through
    // the InstStream window just like the generator path.
    std::string path = tempPath("squash.trace");
    recordSyntheticTrace("perl", 3, 50000, path);
    SimConfig cfg = configs::withPairPredictor(configs::base("perl"));
    cfg.tracePath = path;
    cfg.instructions = 25000;
    SimResult r = Simulator(cfg).run();
    EXPECT_GE(r.committed, 25000u);
}
