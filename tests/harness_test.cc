/**
 * @file
 * Tests for the parallel sweep harness (src/harness/).
 *
 * The load-bearing property is the determinism contract from
 * docs/HARNESS.md: a parallel sweep must be bit-identical to a serial
 * sweep and to the historical serial runner loop. The rest covers the
 * failure semantics (retry with backoff, cooperative timeout,
 * poisoned-cell reporting) and the sink API. Under -DLSQ_CHECKER=ON
 * every simulation below also shadow-executes against the ordering
 * oracle on pool workers, which is exactly the "checker under the
 * pool" configuration the TSan preset validates.
 */

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "harness/job_pool.hh"
#include "harness/journal.hh"
#include "harness/sink.hh"
#include "harness/sweep.hh"
#include "inject/inject.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace lsqscale {
namespace {

/** Small, fast design points used throughout. */
SimConfig
tinyConfig(const std::string &bench)
{
    SimConfig cfg = configs::base(bench);
    cfg.instructions = 2000;
    cfg.warmup = 200;
    return cfg;
}

std::vector<NamedConfig>
threeDesignPoints()
{
    return {
        {"base", [](const std::string &b) { return tinyConfig(b); }},
        {"perfect",
         [](const std::string &b) {
             return configs::withPerfectPredictor(tinyConfig(b));
         }},
        {"pair",
         [](const std::string &b) {
             return configs::withPairPredictor(tinyConfig(b));
         }},
    };
}

const std::vector<std::string> kBenches = {"bzip", "gcc", "art",
                                           "mgrid"};

/** Canonical serialization of a result for bit-identity comparison. */
std::string
fingerprint(const SimResult &r)
{
    std::ostringstream os;
    os << r.benchmark << ":" << r.cycles << ":" << r.committed << "\n"
       << r.stats.dump();
    return os.str();
}

/** A dummy result for fabricated (non-simulating) jobs. */
SimResult
dummyResult(const std::string &bench)
{
    SimResult r;
    r.benchmark = bench;
    r.cycles = 100;
    r.committed = 250;
    return r;
}

// ------------------------------------------------------- JobPool -----

TEST(JobPoolTest, RunsEverySubmittedJob)
{
    JobPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 64; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 64);
}

TEST(JobPoolTest, JobsRunConcurrently)
{
    // Four jobs that each block until all four have started can only
    // finish if the pool really runs them on distinct threads.
    JobPool pool(4);
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    for (int i = 0; i < 4; ++i) {
        pool.submit([&] {
            std::unique_lock<std::mutex> lock(mu);
            ++started;
            cv.notify_all();
            cv.wait(lock, [&] { return started == 4; });
        });
    }
    pool.wait();
    EXPECT_EQ(started, 4);
}

TEST(JobPoolTest, WaitIsReusableAcrossBatches)
{
    JobPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

// ------------------------------------------------- determinism -------

TEST(SweepTest, ParallelBitIdenticalToSerialAndHistoricalLoop)
{
    auto cfgs = threeDesignPoints();

    ExperimentRunner serialRunner(kBenches);
    serialRunner.setJobs(1);
    auto serial = serialRunner.runAll(cfgs);

    ExperimentRunner parallelRunner(kBenches);
    parallelRunner.setJobs(4);
    auto parallel = parallelRunner.runAll(cfgs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
        ASSERT_EQ(serial[r].size(), parallel[r].size());
        for (std::size_t c = 0; c < serial[r].size(); ++c)
            EXPECT_EQ(fingerprint(serial[r][c]),
                      fingerprint(parallel[r][c]))
                << cfgs[r].label << "/" << kBenches[c];
    }

    // And both match the pre-harness serial loop exactly.
    for (std::size_t r = 0; r < cfgs.size(); ++r) {
        for (std::size_t c = 0; c < kBenches.size(); ++c) {
            Simulator sim(cfgs[r].make(kBenches[c]));
            EXPECT_EQ(fingerprint(sim.run()),
                      fingerprint(parallel[r][c]))
                << cfgs[r].label << "/" << kBenches[c];
        }
    }
}

TEST(SweepTest, JobSeedIsPureInCoordinates)
{
    std::uint64_t s00 = Sweep::jobSeed(1, 0, 0);
    EXPECT_EQ(s00, Sweep::jobSeed(1, 0, 0));
    EXPECT_NE(s00, Sweep::jobSeed(1, 0, 1));
    EXPECT_NE(s00, Sweep::jobSeed(1, 1, 0));
    EXPECT_NE(s00, Sweep::jobSeed(2, 0, 0));
    EXPECT_NE(Sweep::jobSeed(1, 0, 1), Sweep::jobSeed(1, 1, 0));
}

TEST(SweepTest, JobSeedDerivationIsPinned)
{
    // Exact values of the documented derivation (docs/HARNESS.md):
    //   jobSeed(base, row, col) =
    //     mix(mix(base + 0x9e3779b97f4a7c15 * (row + 1))
    //             + 0xbf58476d1ce4e5b9 * (col + 1))
    // with Rng::mix the zero-guarded splitmix64 finalizer. Golden
    // JSONs, recorded sweep CSVs, and checkpoint provenance all embed
    // these seeds: changing the derivation invalidates every recorded
    // artifact, so it must never change silently.
    EXPECT_EQ(Sweep::jobSeed(0, 0, 0), 8882014700738686411ULL);
    EXPECT_EQ(Sweep::jobSeed(0, 0, 1), 3055597201337537046ULL);
    EXPECT_EQ(Sweep::jobSeed(0, 1, 0), 759402495750001892ULL);
    EXPECT_EQ(Sweep::jobSeed(42, 0, 0), 13514425966345425732ULL);
    EXPECT_EQ(Sweep::jobSeed(42, 2, 3), 15584810229137078266ULL);
    EXPECT_EQ(Sweep::jobSeed(0xdeadbeef, 7, 11),
              13380929626409549622ULL);
}

TEST(SweepTest, CellSeedsIndependentOfWorkerCount)
{
    auto collectSeeds = [](unsigned jobs) {
        SweepOptions opts;
        opts.jobs = jobs;
        opts.baseSeed = 42;
        Sweep sweep({{"a", tinyConfig}, {"b", tinyConfig}},
                    {"bzip", "gcc", "art"}, opts);
        sweep.setJobFn([](const SimConfig &cfg, const JobContext &ctx) {
            SimResult r = dummyResult(cfg.benchmark);
            r.cycles = ctx.seed(); // smuggle the seed out
            return r;
        });
        std::vector<std::uint64_t> seeds;
        for (const auto &row : sweep.run().grid)
            for (const auto &cell : row) {
                EXPECT_EQ(cell.seed,
                          Sweep::jobSeed(42, cell.row, cell.col));
                EXPECT_EQ(cell.seed, cell.result.cycles);
                seeds.push_back(cell.seed);
            }
        return seeds;
    };
    EXPECT_EQ(collectSeeds(1), collectSeeds(4));
}

TEST(SweepTest, ArmedFaultForcesSerialThreadModeSweep)
{
    // The armed fault's measurement anchor and pending flag are
    // process-global: thread-mode workers sharing them would fire the
    // fault in an arbitrary cell at a wrong cycle, so the sweep must
    // drop to one job (process isolation keeps its parallelism — each
    // child owns a private copy).
    inject::FaultSpec spec;
    ASSERT_TRUE(
        inject::parseFaultSpec("corrupt-pred:1:1000000000", spec));
    inject::armFault(spec);

    SweepOptions opts;
    opts.jobs = 4;
    opts.isolation = IsolationMode::Thread;
    Sweep sweep({{"a", tinyConfig}, {"b", tinyConfig}},
                {"bzip", "gcc"}, opts);
    sweep.setJobFn([](const SimConfig &cfg, const JobContext &) {
        return dummyResult(cfg.benchmark);
    });
    SweepOutcome out = sweep.run();
    inject::disarmFault();

    EXPECT_EQ(out.jobs, 1u);
    EXPECT_EQ(out.poisonedCells, 0u);
}

// ---------------------------------------------- failure semantics ----

TEST(SweepTest, RetriesAfterInjectedFailure)
{
    SweepOptions opts;
    opts.jobs = 4;
    opts.maxAttempts = 3;
    opts.backoffBase = std::chrono::milliseconds(1);
    Sweep sweep({{"flaky", tinyConfig}}, {"bzip", "gcc"}, opts);

    // The bzip cell fails on its first two attempts, then succeeds.
    std::atomic<unsigned> bzipTries{0};
    sweep.setJobFn(
        [&bzipTries](const SimConfig &cfg, const JobContext &ctx) {
            if (cfg.benchmark == "bzip") {
                ++bzipTries;
                if (ctx.attempt() < 2)
                    throw std::runtime_error("injected flake");
            }
            return dummyResult(cfg.benchmark);
        });

    SweepOutcome out = sweep.run();
    EXPECT_EQ(out.poisonedCells, 0u);
    EXPECT_EQ(out.exitCode(), 0);
    EXPECT_EQ(bzipTries.load(), 3u);
    EXPECT_EQ(out.grid[0][0].attempts, 3u);
    EXPECT_EQ(out.grid[0][0].status, JobStatus::Ok);
    EXPECT_EQ(out.grid[0][1].attempts, 1u);
}

TEST(SweepTest, PoisonedCellDoesNotKillTheSweep)
{
    SweepOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 2;
    opts.backoffBase = std::chrono::milliseconds(1);
    Sweep sweep({{"cursed", tinyConfig}}, {"bzip", "gcc", "art"}, opts);

    sweep.setJobFn([](const SimConfig &cfg, const JobContext &) {
        if (cfg.benchmark == "gcc")
            throw std::runtime_error("injected permanent failure");
        return dummyResult(cfg.benchmark);
    });

    SweepOutcome out = sweep.run();
    EXPECT_EQ(out.poisonedCells, 1u);
    EXPECT_EQ(out.exitCode(), 1);
    EXPECT_NE(out.summary().find("1 poisoned"), std::string::npos);

    const SweepCell &bad = out.grid[0][1];
    EXPECT_EQ(bad.status, JobStatus::Failed);
    EXPECT_TRUE(bad.poisoned());
    EXPECT_EQ(bad.attempts, 2u);
    EXPECT_EQ(bad.error, "injected permanent failure");
    EXPECT_EQ(bad.result.cycles, 0u);       // zeroed, ipc() == 0
    EXPECT_EQ(bad.result.benchmark, "gcc"); // grid stays rectangular

    EXPECT_EQ(out.grid[0][0].status, JobStatus::Ok);
    EXPECT_EQ(out.grid[0][2].status, JobStatus::Ok);
}

TEST(SweepTest, CooperativeTimeoutCancelsTheCell)
{
    SweepOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 2;
    opts.timeout = std::chrono::milliseconds(30);
    opts.backoffBase = std::chrono::milliseconds(1);
    Sweep sweep({{"slow", tinyConfig}}, {"bzip", "gcc"}, opts);

    sweep.setJobFn([](const SimConfig &cfg, const JobContext &ctx) {
        if (cfg.benchmark == "gcc") {
            // A cooperative job polls expired() and bails out.
            while (!ctx.expired())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            throw std::runtime_error("budget exhausted");
        }
        return dummyResult(cfg.benchmark);
    });

    SweepOutcome out = sweep.run();
    EXPECT_EQ(out.poisonedCells, 1u);
    EXPECT_EQ(out.exitCode(), 1);
    EXPECT_EQ(out.grid[0][1].status, JobStatus::TimedOut);
    EXPECT_EQ(out.grid[0][1].attempts, 2u);
    EXPECT_EQ(out.grid[0][0].status, JobStatus::Ok);
}

TEST(SweepTest, OverBudgetCompletionClassifiedAsTimeout)
{
    // A job that cannot poll still gets flagged when it comes back
    // after the deadline (best-effort detection).
    SweepOptions opts;
    opts.jobs = 1;
    opts.timeout = std::chrono::milliseconds(5);
    Sweep sweep({{"late", tinyConfig}}, {"bzip"}, opts);
    sweep.setJobFn([](const SimConfig &cfg, const JobContext &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return dummyResult(cfg.benchmark);
    });
    SweepOutcome out = sweep.run();
    EXPECT_EQ(out.grid[0][0].status, JobStatus::TimedOut);
    EXPECT_EQ(out.exitCode(), 1);
}

// ------------------------------------------------------- sinks -------

class RecordingSink : public ResultSink
{
  public:
    void sweepBegin(const SweepOutcome &) override { ++begins; }
    void jobStarted(const SweepCell &) override { ++starts; }
    void cellDone(const SweepCell &cell) override
    {
        ++dones;
        if (cell.poisoned())
            ++poisoned;
    }
    void sweepEnd(const SweepOutcome &) override { ++ends; }

    int begins = 0, starts = 0, dones = 0, ends = 0, poisoned = 0;
};

TEST(SinkTest, SinksSeeEveryCellExactlyOnce)
{
    SweepOptions opts;
    opts.jobs = 4;
    Sweep sweep({{"a", tinyConfig}, {"b", tinyConfig}},
                {"bzip", "gcc", "art"}, opts);
    sweep.setJobFn([](const SimConfig &cfg, const JobContext &) {
        if (cfg.benchmark == "art")
            throw std::runtime_error("boom");
        return dummyResult(cfg.benchmark);
    });
    RecordingSink sink;
    sweep.addSink(&sink);
    SweepOutcome out = sweep.run();
    EXPECT_EQ(sink.begins, 1);
    EXPECT_EQ(sink.ends, 1);
    EXPECT_EQ(sink.starts, 6);
    EXPECT_EQ(sink.dones, 6);
    EXPECT_EQ(sink.poisoned, 2);
    EXPECT_EQ(out.poisonedCells, 2u);
}

TEST(SinkTest, CsvRenderIsStableOrderIpcGrid)
{
    SweepOptions opts;
    opts.jobs = 3;
    Sweep sweep({{"a", tinyConfig}, {"b", tinyConfig}},
                {"bzip", "gcc"}, opts);
    sweep.setJobFn([](const SimConfig &cfg, const JobContext &) {
        return dummyResult(cfg.benchmark); // ipc = 250/100 = 2.5
    });
    std::string csv = CsvFileSink::render(sweep.run());
    EXPECT_EQ(csv,
              "benchmark,a,b\n"
              "bzip,2.500000,2.500000\n"
              "gcc,2.500000,2.500000\n");
}

TEST(SinkTest, JsonSinkEmitsWellFormedDocument)
{
    SweepOptions opts;
    opts.jobs = 2;
    opts.name = "unit_sweep";
    Sweep sweep({{"a", tinyConfig}}, {"bzip", "gcc"}, opts);
    sweep.setJobFn([](const SimConfig &cfg, const JobContext &) {
        if (cfg.benchmark == "gcc")
            throw std::runtime_error("json \"escape\" check\n");
        return dummyResult(cfg.benchmark);
    });
    std::string path =
        testing::TempDir() + "/BENCH_harness_unit.json";
    JsonFileSink sink(path, {{"purpose", "unit-test"}});
    sweep.addSink(&sink);
    sweep.run();

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "sink did not write " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string doc = ss.str();

    // Structure: balanced braces/brackets outside strings, one cell
    // record per grid cell, schema + metadata present, escapes legal.
    EXPECT_NE(doc.find("\"schema\": \"lsqscale-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"unit_sweep\""), std::string::npos);
    EXPECT_NE(doc.find("\"purpose\": \"unit-test\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(doc.find("\"ipc\": 2.500000"), std::string::npos);
    EXPECT_NE(doc.find("json \\\"escape\\\" check\\n"),
              std::string::npos);
    int depth = 0;
    bool inString = false;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        char ch = doc[i];
        if (inString) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                inString = false;
            continue;
        }
        if (ch == '"')
            inString = true;
        else if (ch == '{' || ch == '[')
            ++depth;
        else if (ch == '}' || ch == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(inString);
    std::remove(path.c_str());
}

// ------------------------------------------- nonzero exit summary ----

TEST(SweepDeathTest, NoteSweepFailuresForcesNonzeroExit)
{
    // The ExperimentRunner path: benches end with `return 0`, so
    // poisoned cells arm an atexit hook that rewrites the process
    // exit status. Death test: the child exits 1, not 0.
    EXPECT_EXIT(
        {
            noteSweepFailures(2);
            std::exit(0);
        },
        testing::ExitedWithCode(1), "2 poisoned cell");
}

// -------------------------------------------- process isolation ------

/**
 * Forking from a process whose threads TSan instruments is outside
 * TSan's supported model (the child inherits shadow state from one
 * thread only), so the process-isolation tests run everywhere except
 * the tsan CI flavor. Thread-mode sweeps stay fully TSan-checked.
 */
constexpr bool kTsanBuild =
#if defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

/**
 * ASan installs its own SIGSEGV handler (report, then plain exit), so
 * a child that segfaults under ASan dies by exit code, not by signal —
 * the signal-provenance assertions only hold in uninstrumented builds.
 * Abort/hang/throw containment is sanitizer-agnostic and stays on.
 */
constexpr bool kAsanBuild =
#if defined(__SANITIZE_ADDRESS__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

#define SKIP_UNDER_TSAN()                                             \
    do {                                                              \
        if (kTsanBuild)                                               \
            GTEST_SKIP() << "fork-based isolation not run under TSan"; \
    } while (0)

#define SKIP_IF_SEGV_INTERCEPTED()                                    \
    do {                                                              \
        SKIP_UNDER_TSAN();                                            \
        if (kAsanBuild)                                               \
            GTEST_SKIP() << "ASan intercepts SIGSEGV provenance";     \
    } while (0)

/**
 * Forking from several pool workers at once is safe with glibc's
 * malloc (its atfork handlers make the child's heap consistent) but
 * can deadlock under ASan: a child forked while another worker holds
 * the sanitizer allocator's internal lock hangs in its first malloc
 * and the watchdog poisons it. Multi-worker fork tests therefore run
 * only in uninstrumented builds; the jobs=1 containment tests keep
 * covering the fork path under ASan.
 */
#define SKIP_IF_PARALLEL_FORK_UNSAFE()                                \
    do {                                                              \
        SKIP_UNDER_TSAN();                                            \
        if (kAsanBuild)                                               \
            GTEST_SKIP()                                              \
                << "multi-worker fork can deadlock under ASan";       \
    } while (0)

TEST(ProcIsolationTest, ProcessModeBitIdenticalToThreadMode)
{
    SKIP_IF_PARALLEL_FORK_UNSAFE();
    // The acceptance bar for isolation: healthy cells must not care
    // where they ran. Three design points, parallel pools, both modes.
    auto runWith = [](IsolationMode mode) {
        SweepOptions opts;
        opts.jobs = 3;
        opts.isolation = mode;
        Sweep sweep(threeDesignPoints(), {"bzip", "art"}, opts);
        sweep.setJobFn(runSimulationJob);
        return sweep.run();
    };
    SweepOutcome thread = runWith(IsolationMode::Thread);
    SweepOutcome process = runWith(IsolationMode::Process);
    ASSERT_EQ(thread.poisonedCells, 0u);
    ASSERT_EQ(process.poisonedCells, 0u);
    for (std::size_t r = 0; r < thread.grid.size(); ++r)
        for (std::size_t c = 0; c < thread.grid[r].size(); ++c)
            EXPECT_EQ(fingerprint(thread.grid[r][c].result),
                      fingerprint(process.grid[r][c].result))
                << "cell (" << r << "," << c << ") diverged";
    EXPECT_EQ(CsvFileSink::render(thread),
              CsvFileSink::render(process));
}

TEST(ProcIsolationTest, SegfaultPoisonsOnlyItsCell)
{
    SKIP_IF_SEGV_INTERCEPTED();
    SweepOptions opts;
    opts.jobs = 2;
    opts.isolation = IsolationMode::Process;
    Sweep sweep({{"a", tinyConfig}, {"b", tinyConfig}},
                {"bzip", "gcc"}, opts);
    sweep.setJobFn([](const SimConfig &cfg, const JobContext &ctx) {
        if (ctx.row() == 1 && ctx.col() == 0)
            ::raise(SIGSEGV);
        return dummyResult(cfg.benchmark);
    });
    SweepOutcome out = sweep.run();
    EXPECT_EQ(out.poisonedCells, 1u);
    EXPECT_NE(out.exitCode(), 0);
    const SweepCell &dead = out.grid[1][0];
    EXPECT_EQ(dead.status, JobStatus::Crashed);
    EXPECT_EQ(dead.termSignal, SIGSEGV);
    EXPECT_NE(dead.error.find("signal"), std::string::npos);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            if (!(r == 1 && c == 0)) {
                EXPECT_EQ(out.grid[r][c].status, JobStatus::Ok);
                EXPECT_EQ(out.grid[r][c].termSignal, 0);
            }
}

TEST(ProcIsolationTest, AssertColdPathAbortIsContained)
{
    SKIP_UNDER_TSAN();
    // The LSQ_ASSERT cold path aborts the *child*; the sweep survives
    // and the cell carries SIGABRT plus the assertion text from the
    // child's stderr.
    SweepOptions opts;
    opts.jobs = 1;
    opts.isolation = IsolationMode::Process;
    Sweep sweep({{"a", tinyConfig}}, {"bzip"}, opts);
    sweep.setJobFn([](const SimConfig &, const JobContext &)
                       -> SimResult {
        LSQ_ASSERT(false, "injected assertion for containment test");
        return SimResult{};
    });
    SweepOutcome out = sweep.run();
    const SweepCell &dead = out.grid[0][0];
    EXPECT_EQ(dead.status, JobStatus::Crashed);
    EXPECT_EQ(dead.termSignal, SIGABRT);
    EXPECT_NE(dead.stderrTail.find(
                  "injected assertion for containment test"),
              std::string::npos);
    EXPECT_EQ(out.poisonedCells, 1u);
}

TEST(ProcIsolationTest, PanicPathIsContained)
{
    SKIP_UNDER_TSAN();
    // LSQ_PANIC is the checker's failure path (the ordering oracle
    // panics with provenance); containment must look identical to the
    // assert path.
    SweepOptions opts;
    opts.jobs = 1;
    opts.isolation = IsolationMode::Process;
    Sweep sweep({{"a", tinyConfig}}, {"bzip"}, opts);
    sweep.setJobFn([](const SimConfig &, const JobContext &)
                       -> SimResult {
        LSQ_PANIC("oracle mismatch: injected panic for test");
        return SimResult{};
    });
    SweepOutcome out = sweep.run();
    const SweepCell &dead = out.grid[0][0];
    EXPECT_EQ(dead.status, JobStatus::Crashed);
    EXPECT_EQ(dead.termSignal, SIGABRT);
    EXPECT_NE(dead.stderrTail.find("injected panic for test"),
              std::string::npos);
}

TEST(ProcIsolationTest, HangIsReapedByHeartbeatWatchdog)
{
    SKIP_UNDER_TSAN();
    SweepOptions opts;
    opts.jobs = 1;
    opts.isolation = IsolationMode::Process;
    opts.watchdog = std::chrono::milliseconds(300);
    Sweep sweep({{"a", tinyConfig}}, {"bzip"}, opts);
    sweep.setJobFn([](const SimConfig &, const JobContext &)
                       -> SimResult {
        for (;;)
            ::pause(); // never beats, never returns
    });
    SweepOutcome out = sweep.run();
    const SweepCell &dead = out.grid[0][0];
    EXPECT_EQ(dead.status, JobStatus::TimedOut);
    EXPECT_NE(dead.error.find("heartbeat"), std::string::npos);
}

TEST(ProcIsolationTest, ChildThrowRetriesAndReportsWhat)
{
    SKIP_UNDER_TSAN();
    SweepOptions opts;
    opts.jobs = 1;
    opts.isolation = IsolationMode::Process;
    opts.maxAttempts = 2;
    opts.backoffBase = std::chrono::milliseconds(1);
    Sweep sweep({{"a", tinyConfig}}, {"bzip"}, opts);
    sweep.setJobFn([](const SimConfig &, const JobContext &)
                       -> SimResult {
        throw std::runtime_error("deliberate child failure");
    });
    SweepOutcome out = sweep.run();
    const SweepCell &dead = out.grid[0][0];
    EXPECT_EQ(dead.status, JobStatus::Failed);
    EXPECT_EQ(dead.attempts, 2u);
    EXPECT_EQ(dead.error, "deliberate child failure");
    EXPECT_EQ(dead.termSignal, 0);
}

TEST(ProcIsolationTest, CrashedCellRetriesCanSucceed)
{
    SKIP_IF_SEGV_INTERCEPTED();
    // First attempt segfaults, second succeeds: attempt index comes
    // through the JobContext, so the child can behave differently.
    SweepOptions opts;
    opts.jobs = 1;
    opts.isolation = IsolationMode::Process;
    opts.maxAttempts = 2;
    opts.backoffBase = std::chrono::milliseconds(1);
    Sweep sweep({{"a", tinyConfig}}, {"bzip"}, opts);
    sweep.setJobFn([](const SimConfig &cfg, const JobContext &ctx) {
        if (ctx.attempt() == 0)
            ::raise(SIGSEGV);
        return dummyResult(cfg.benchmark);
    });
    SweepOutcome out = sweep.run();
    const SweepCell &cell = out.grid[0][0];
    EXPECT_EQ(cell.status, JobStatus::Ok);
    EXPECT_EQ(cell.attempts, 2u);
    EXPECT_EQ(cell.termSignal, 0); // provenance is per final attempt
    EXPECT_EQ(out.poisonedCells, 0u);
}

// ------------------------------------------------------ journal ------

TEST(JournalTest, RoundTripRestoresResultsBitExactly)
{
    std::string path = testing::TempDir() + "/roundtrip.journal";
    std::remove(path.c_str());

    SweepOptions opts;
    opts.jobs = 2;
    opts.name = "journal_unit";
    Sweep sweep({{"a", tinyConfig}, {"b", tinyConfig}},
                {"bzip", "gcc"}, opts);
    sweep.setJobFn(runSimulationJob);
    SweepOutcome out;
    {
        JournalWriter journal(path);
        ASSERT_TRUE(journal.ok());
        sweep.addSink(&journal);
        out = sweep.run();
    }
    ASSERT_EQ(out.poisonedCells, 0u);

    JournalContents j;
    std::string error;
    ASSERT_TRUE(readJournal(path, j, error)) << error;
    EXPECT_EQ(j.name, "journal_unit");
    EXPECT_EQ(j.rows, 2u);
    EXPECT_EQ(j.cols, 2u);
    EXPECT_FALSE(j.truncatedTail);
    ASSERT_EQ(j.cells.size(), 4u);
    for (const JournalCell &cell : j.cells) {
        EXPECT_EQ(cell.status, JobStatus::Ok);
        ASSERT_TRUE(cell.hasResult);
        EXPECT_EQ(fingerprint(cell.result),
                  fingerprint(out.grid[cell.row][cell.col].result));
        EXPECT_EQ(cell.seed, out.grid[cell.row][cell.col].seed);
    }
    std::remove(path.c_str());
}

TEST(JournalTest, TornTailIsToleratedNotFatal)
{
    std::string path = testing::TempDir() + "/torn.journal";
    std::remove(path.c_str());
    {
        SweepOptions opts;
        opts.jobs = 1;
        Sweep sweep({{"a", tinyConfig}}, {"bzip"}, opts);
        sweep.setJobFn([](const SimConfig &cfg, const JobContext &) {
            return dummyResult(cfg.benchmark);
        });
        JournalWriter journal(path);
        sweep.addSink(&journal);
        sweep.run();
    }
    // Simulate a crash mid-append: half a frame of garbage.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("\x10\x00\x00\x00gar", 7);
    }
    JournalContents j;
    std::string error;
    ASSERT_TRUE(readJournal(path, j, error)) << error;
    EXPECT_TRUE(j.truncatedTail);
    EXPECT_EQ(j.cells.size(), 1u); // the intact record survives
    std::remove(path.c_str());
}

TEST(JournalTest, OversizedRecordLengthIsATornTailNotAnAllocation)
{
    // A crafted (or bit-flipped) u32 length past the 64 MiB record
    // cap must end the walk like a torn tail — never drive the reader
    // into a multi-gigabyte allocation, even when the file happens to
    // be long enough to "contain" the claimed record.
    std::string path = testing::TempDir() + "/oversized.journal";
    std::remove(path.c_str());
    {
        SweepOptions opts;
        opts.jobs = 1;
        Sweep sweep({{"a", tinyConfig}}, {"bzip"}, opts);
        sweep.setJobFn([](const SimConfig &cfg, const JobContext &) {
            return dummyResult(cfg.benchmark);
        });
        JournalWriter journal(path);
        sweep.addSink(&journal);
        sweep.run();
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        const std::uint32_t huge = 0x7fffffff;
        out.write(reinterpret_cast<const char *>(&huge), sizeof huge);
        out.write("\x00\x00\x00\x00", 4); // crc (never reached)
        std::string padding(1024, 'x');
        out.write(padding.data(),
                  static_cast<std::streamsize>(padding.size()));
    }
    JournalContents j;
    std::string error;
    ASSERT_TRUE(readJournal(path, j, error)) << error;
    EXPECT_TRUE(j.truncatedTail);
    EXPECT_EQ(j.cells.size(), 1u); // the intact prefix survives
    std::remove(path.c_str());
}

TEST(JournalTest, RejectsNonJournalFiles)
{
    std::string path = testing::TempDir() + "/notajournal";
    {
        std::ofstream out(path, std::ios::binary);
        out << "hello";
    }
    JournalContents j;
    std::string error;
    EXPECT_FALSE(readJournal(path, j, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(
        readJournal(testing::TempDir() + "/missing.journal", j, error));
    std::remove(path.c_str());
}

TEST(JournalTest, AccumulatorDuplicateRecordsLaterRecordWins)
{
    // Feed the records of two runs of one sweep through a
    // JournalAccumulator in stream order. Duplicate (row, col) records
    // resolve later-record-wins — a run that retried a cell overrides
    // an earlier failure.
    const std::string begin =
        encodeSweepBeginRecord("merge_unit", {"base"}, {"bzip", "gcc"});

    JournalCell failed;
    failed.row = 0;
    failed.col = 0;
    failed.status = JobStatus::Failed;
    failed.attempts = 1;
    failed.error = "first machine died";

    JournalCell other;
    other.row = 0;
    other.col = 1;
    other.status = JobStatus::TimedOut;
    other.attempts = 2;
    other.error = "hung";

    JournalCell retried = failed;
    retried.status = JobStatus::Ok;
    retried.attempts = 2;
    retried.error.clear();

    // Journal A holds the failure and cell (0,1); journal B, appended
    // later in stream order, holds the successful retry of (0,0).
    JournalAccumulator acc;
    std::string error;
    ASSERT_TRUE(acc.add(begin, error)) << error;
    ASSERT_TRUE(acc.add(encodeCellRecord(failed), error)) << error;
    ASSERT_TRUE(acc.add(encodeCellRecord(other), error)) << error;
    ASSERT_TRUE(acc.add(begin, error)) << error;
    ASSERT_TRUE(acc.add(encodeCellRecord(retried), error)) << error;

    JournalContents merged = acc.contents();
    EXPECT_EQ(merged.name, "merge_unit");
    ASSERT_EQ(merged.cells.size(), 2u);
    EXPECT_EQ(merged.cells[0].status, JobStatus::Ok);
    EXPECT_EQ(merged.cells[0].attempts, 2u);
    EXPECT_EQ(merged.cells[1].status, JobStatus::TimedOut);
}

TEST(JournalTest, ResumeRerunsOnlyUnfinishedCells)
{
    std::string path = testing::TempDir() + "/resume.journal";
    std::remove(path.c_str());

    auto makeSweep = [](SweepOptions opts) {
        opts.jobs = 1;
        opts.name = "resume_unit";
        return Sweep({{"a", tinyConfig}, {"b", tinyConfig}},
                     {"bzip", "gcc"}, opts);
    };

    // First run: cell (1,1) fails, everything else lands in the
    // journal as Ok.
    std::atomic<int> executed{0};
    {
        Sweep sweep = makeSweep({});
        sweep.setJobFn(
            [&executed](const SimConfig &cfg, const JobContext &ctx)
                -> SimResult {
                ++executed;
                if (ctx.row() == 1 && ctx.col() == 1)
                    throw std::runtime_error("first pass failure");
                return dummyResult(cfg.benchmark);
            });
        JournalWriter journal(path);
        sweep.addSink(&journal);
        SweepOutcome out = sweep.run();
        EXPECT_EQ(out.poisonedCells, 1u);
        EXPECT_EQ(executed.load(), 4);
    }

    // Resume: only the failed cell re-executes, and this time it
    // succeeds; the journal (appended in place) then reads complete.
    JournalContents j;
    std::string error;
    ASSERT_TRUE(readJournal(path, j, error)) << error;
    executed = 0;
    {
        Sweep sweep = makeSweep({});
        sweep.setJobFn(
            [&executed](const SimConfig &cfg, const JobContext &)
                -> SimResult {
                ++executed;
                return dummyResult(cfg.benchmark);
            });
        sweep.setResume(std::move(j));
        JournalWriter journal(path, /*append=*/true);
        sweep.addSink(&journal);
        SweepOutcome out = sweep.run();
        EXPECT_EQ(executed.load(), 1);
        EXPECT_EQ(out.poisonedCells, 0u);
        EXPECT_EQ(out.restoredCells, 3u);
        EXPECT_TRUE(out.grid[0][0].restored);
        EXPECT_FALSE(out.grid[1][1].restored);
    }
    JournalContents final;
    ASSERT_TRUE(readJournal(path, final, error)) << error;
    ASSERT_EQ(final.cells.size(), 4u);
    for (const JournalCell &cell : final.cells)
        EXPECT_EQ(cell.status, JobStatus::Ok)
            << "cell (" << cell.row << "," << cell.col << ")";
    std::remove(path.c_str());
}

TEST(JournalTest, ShapeMismatchIsIgnoredSafely)
{
    std::string path = testing::TempDir() + "/shape.journal";
    std::remove(path.c_str());
    {
        SweepOptions opts;
        opts.jobs = 1;
        Sweep sweep({{"a", tinyConfig}}, {"bzip"}, opts);
        sweep.setJobFn([](const SimConfig &cfg, const JobContext &) {
            return dummyResult(cfg.benchmark);
        });
        JournalWriter journal(path);
        sweep.addSink(&journal);
        sweep.run();
    }
    JournalContents j;
    std::string error;
    ASSERT_TRUE(readJournal(path, j, error)) << error;

    // A 2x2 sweep fed a 1x1 journal must run everything from scratch.
    SweepOptions opts;
    opts.jobs = 1;
    std::atomic<int> executed{0};
    Sweep sweep({{"a", tinyConfig}, {"b", tinyConfig}},
                {"bzip", "gcc"}, opts);
    sweep.setJobFn([&executed](const SimConfig &cfg,
                               const JobContext &) {
        ++executed;
        return dummyResult(cfg.benchmark);
    });
    sweep.setResume(std::move(j));
    SweepOutcome out = sweep.run();
    EXPECT_EQ(executed.load(), 4);
    EXPECT_EQ(out.restoredCells, 0u);
    std::remove(path.c_str());
}

// ------------------------------------------------- atomic writes -----

TEST(SinkTest, CrashedCellsCarryProvenanceInJson)
{
    SweepOutcome out;
    out.name = "prov";
    out.grid.resize(1);
    out.grid[0].resize(1);
    SweepCell &cell = out.grid[0][0];
    cell.configLabel = "a";
    cell.benchmark = "bzip";
    cell.status = JobStatus::Crashed;
    cell.termSignal = 11;
    cell.stderrTail = "segv provenance";
    std::string doc = JsonFileSink::render(out, {});
    EXPECT_NE(doc.find("\"status\": \"crashed\""), std::string::npos);
    EXPECT_NE(doc.find("\"term_signal\": 11"), std::string::npos);
    EXPECT_NE(doc.find("segv provenance"), std::string::npos);

    // Healthy cells keep the historical schema: no provenance keys.
    cell.status = JobStatus::Ok;
    cell.termSignal = 0;
    cell.stderrTail.clear();
    std::string healthy = JsonFileSink::render(out, {});
    EXPECT_EQ(healthy.find("term_signal"), std::string::npos);
    EXPECT_EQ(healthy.find("stderr_tail"), std::string::npos);
}

TEST(SinkDeathTest, KillMidWriteNeverTearsTheTargetFile)
{
    SKIP_UNDER_TSAN();
    std::string path = testing::TempDir() + "/atomic.json";
    ASSERT_TRUE(writeFileCreatingDirs(path, "ORIGINAL CONTENT\n"));

    // The hook fires between writing the temp file and the rename:
    // dying there must leave the original untouched.
    setWriteFileTestHook([] { std::_Exit(42); });
    EXPECT_EXIT(writeFileCreatingDirs(path, "NEW CONTENT\n"),
                testing::ExitedWithCode(42), "");
    setWriteFileTestHook(nullptr);

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "ORIGINAL CONTENT\n");

    // And with the hook gone the replacement goes through.
    ASSERT_TRUE(writeFileCreatingDirs(path, "NEW CONTENT\n"));
    std::ifstream in2(path);
    std::stringstream ss2;
    ss2 << in2.rdbuf();
    EXPECT_EQ(ss2.str(), "NEW CONTENT\n");
    std::remove(path.c_str());
}

// --------------------------------------------- isolation resolution --

TEST(ResolveIsolationTest, PrecedenceChain)
{
    setIsolationOverride(IsolationMode::Auto);
    unsetenv("LSQSCALE_ISOLATION");
    EXPECT_EQ(resolveIsolation(IsolationMode::Auto),
              IsolationMode::Thread);
    EXPECT_EQ(resolveIsolation(IsolationMode::Process),
              IsolationMode::Process);

    setenv("LSQSCALE_ISOLATION", "process", 1);
    EXPECT_EQ(resolveIsolation(IsolationMode::Auto),
              IsolationMode::Process);
    EXPECT_EQ(resolveIsolation(IsolationMode::Thread),
              IsolationMode::Thread); // explicit beats env

    setIsolationOverride(IsolationMode::Thread);
    EXPECT_EQ(resolveIsolation(IsolationMode::Auto),
              IsolationMode::Thread); // override beats env

    setenv("LSQSCALE_ISOLATION", "bogus", 1);
    setIsolationOverride(IsolationMode::Auto);
    EXPECT_EQ(resolveIsolation(IsolationMode::Auto),
              IsolationMode::Thread);
    unsetenv("LSQSCALE_ISOLATION");
}

TEST(ResolveIsolationTest, WatchdogEnvOverride)
{
    unsetenv("LSQSCALE_WATCHDOG_MS");
    EXPECT_EQ(resolveWatchdog(std::chrono::milliseconds(1234)).count(),
              1234);
    setenv("LSQSCALE_WATCHDOG_MS", "250", 1);
    EXPECT_EQ(resolveWatchdog(std::chrono::milliseconds(1234)).count(),
              250);
    setenv("LSQSCALE_WATCHDOG_MS", "0", 1); // 0 = disabled
    EXPECT_EQ(resolveWatchdog(std::chrono::milliseconds(1234)).count(),
              0);
    setenv("LSQSCALE_WATCHDOG_MS", "junk", 1);
    EXPECT_EQ(resolveWatchdog(std::chrono::milliseconds(1234)).count(),
              1234);
    unsetenv("LSQSCALE_WATCHDOG_MS");
}

// ------------------------------------------------- jobs resolution ---

TEST(ResolveJobsTest, PrecedenceAndCapping)
{
    setJobsOverride(0);
    // Explicit request wins and is capped by job count.
    EXPECT_EQ(resolveJobs(8, 3), 3u);
    EXPECT_EQ(resolveJobs(2, 100), 2u);
    // Override beats the environment.
    setenv("LSQSCALE_JOBS", "5", 1);
    EXPECT_EQ(resolveJobs(0, 100), 5u);
    setJobsOverride(7);
    EXPECT_EQ(resolveJobs(0, 100), 7u);
    EXPECT_EQ(resolveJobs(3, 100), 3u); // request beats override
    setJobsOverride(0);
    unsetenv("LSQSCALE_JOBS");
    // Fallback is hardware concurrency, floored at 1.
    EXPECT_GE(resolveJobs(0, 100), 1u);
    EXPECT_EQ(resolveJobs(0, 1), 1u);
}

} // namespace
} // namespace lsqscale
