/**
 * @file
 * Tests for the deterministic fault-injection subsystem (src/inject/)
 * and the end-to-end crash campaign it enables under process
 * isolation (docs/ROBUSTNESS.md).
 *
 * The unit half covers the spec grammar, arming semantics, the io-fail
 * consumption point, and determinism of the silent predictor
 * corruption. The campaign half arms real faults inside forked
 * children (runCellInProcess) and checks that each fault lands with
 * the taxonomy's promised provenance — SIGSEGV for crash, SIGABRT for
 * abort, a watchdog TimedOut for hang — while the parent (this test
 * binary) survives untouched.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/proc_runner.hh"
#include "harness/sink.hh"
#include "inject/inject.hh"
#include "predictor/store_set.hh"
#include "sample/serialize.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace lsqscale {
namespace {

/** Fork-based campaign tests skip where sanitizers own the signals. */
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

#define SKIP_UNDER_TSAN()                                              \
    do {                                                               \
        if (kTsanBuild)                                                \
            GTEST_SKIP() << "fork-based campaign not run under TSan";  \
    } while (0)

/** A small simulation that still has thousands of measured cycles. */
SimConfig
tinyConfig(const std::string &bench)
{
    SimConfig cfg = configs::base(bench);
    cfg.instructions = 2000;
    cfg.warmup = 200;
    return cfg;
}

/**
 * Every test leaves the process-global fault state clean so ordering
 * between tests (and the simulations other tests run) cannot leak.
 */
class InjectTest : public ::testing::Test
{
  protected:
    void SetUp() override { inject::disarmFault(); }
    void TearDown() override { inject::disarmFault(); }
};

using InjectCampaignTest = InjectTest;

// ---------------------------------------------------- spec grammar ---

TEST_F(InjectTest, ParseFormatRoundTripsEveryKind)
{
    const char *specs[] = {
        "crash:0:5000",        "abort:1:123",       "hang:7:9",
        "corrupt-lsq:42:1000", "corrupt-pred:3:17", "io-fail:0:0",
    };
    for (const char *text : specs) {
        inject::FaultSpec spec;
        ASSERT_TRUE(inject::parseFaultSpec(text, spec)) << text;
        EXPECT_EQ(inject::formatFaultSpec(spec), text);
        EXPECT_STREQ(inject::faultKindName(spec.kind),
                     std::string(text).substr(0, std::string(text).find(':'))
                         .c_str());
    }
}

TEST_F(InjectTest, ParseRejectsMalformedSpecs)
{
    inject::FaultSpec spec;
    EXPECT_FALSE(inject::parseFaultSpec("", spec));
    EXPECT_FALSE(inject::parseFaultSpec("crash", spec));
    EXPECT_FALSE(inject::parseFaultSpec("crash:0", spec));
    EXPECT_FALSE(inject::parseFaultSpec("meteor:0:5", spec));
    EXPECT_FALSE(inject::parseFaultSpec("crash:x:5", spec));
    EXPECT_FALSE(inject::parseFaultSpec("crash:0:y", spec));
    EXPECT_FALSE(inject::parseFaultSpec("crash:0:5:6", spec));
    // strtoull accepts sign prefixes ("-1" wraps to 2^64-1); the
    // grammar is digits only.
    EXPECT_FALSE(inject::parseFaultSpec("crash:-1:5", spec));
    EXPECT_FALSE(inject::parseFaultSpec("crash:1:-5", spec));
    EXPECT_FALSE(inject::parseFaultSpec("crash:+1:5", spec));
    EXPECT_FALSE(inject::parseFaultSpec("crash: 1:5", spec));
}

// -------------------------------------------------------- arming -----

TEST_F(InjectTest, ArmDisarmLifecycle)
{
    EXPECT_FALSE(inject::faultArmed());
    inject::FaultSpec spec;
    ASSERT_TRUE(inject::parseFaultSpec("corrupt-pred:9:100", spec));
    inject::armFault(spec);
    ASSERT_TRUE(inject::faultArmed());
    EXPECT_EQ(inject::formatFaultSpec(inject::armedFault()),
              "corrupt-pred:9:100");
    inject::disarmFault();
    EXPECT_FALSE(inject::faultArmed());
}

TEST_F(InjectTest, EnvNeverOverridesExplicitArm)
{
    // --inject beats LSQSCALE_INJECT whatever state the once-guard is
    // in: armFromEnv must be a no-op while a fault is armed.
    inject::FaultSpec spec;
    ASSERT_TRUE(inject::parseFaultSpec("abort:0:7", spec));
    inject::armFault(spec);
    setenv("LSQSCALE_INJECT", "crash:0:1", 1);
    inject::armFromEnv();
    EXPECT_EQ(inject::formatFaultSpec(inject::armedFault()),
              "abort:0:7");
    unsetenv("LSQSCALE_INJECT");
}

// -------------------------------------------------------- io-fail ----

TEST_F(InjectTest, IoFailureFiresOnceAtTheTriggerCycle)
{
    inject::FaultSpec spec;
    ASSERT_TRUE(inject::parseFaultSpec("io-fail:0:5", spec));
    inject::armFault(spec);
    inject::beginMeasurement(1000);

    EXPECT_FALSE(inject::consumeIoFailure()); // not fired yet
    EXPECT_EQ(inject::poll(1004), inject::Action::None);
    EXPECT_FALSE(inject::consumeIoFailure());
    EXPECT_EQ(inject::poll(1005), inject::Action::None); // fires here
    EXPECT_TRUE(inject::consumeIoFailure());
    EXPECT_FALSE(inject::consumeIoFailure()); // consumed exactly once
}

TEST_F(InjectTest, IoFailureFailsExactlyOneHarnessWrite)
{
    std::string path = testing::TempDir() + "/iofail.txt";
    std::remove(path.c_str());

    inject::FaultSpec spec;
    ASSERT_TRUE(inject::parseFaultSpec("io-fail:0:0", spec));
    inject::armFault(spec);
    inject::beginMeasurement(0);
    (void)inject::poll(0);

    EXPECT_FALSE(writeFileCreatingDirs(path, "doomed"));
    EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr);
    EXPECT_TRUE(writeFileCreatingDirs(path, "fine"));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    std::remove(path.c_str());
}

// ------------------------------------------- silent corruption -------

TEST_F(InjectTest, PredictorCorruptionIsDeterministicInSeed)
{
    auto corruptedState = [](std::uint64_t seed) {
        StoreSetPredictor pred;
        // Populate some table state first so there is something to
        // scramble.
        for (Pc pc = 0; pc < 64; ++pc)
            pred.trainPair(pc * 8, pc * 8 + 4);
        pred.injectStateCorruption(seed);
        SerialWriter w;
        pred.saveState(w);
        return w.buffer();
    };
    EXPECT_EQ(corruptedState(42), corruptedState(42));
    EXPECT_NE(corruptedState(42), corruptedState(43));
    EXPECT_NE(corruptedState(42), corruptedState(0));
}

// ------------------------------------------------- fault campaign ----

/** Run a tiny simulation in a forked child with @p spec armed there. */
ProcOutcome
runInjectedChild(const std::string &specText,
                 std::chrono::milliseconds watchdog =
                     std::chrono::milliseconds(0),
                 bool checked = false)
{
    ProcOptions po;
    po.watchdog = watchdog;
    return runCellInProcess(
        [specText, checked] {
            if (checked)
                setenv("LSQSCALE_CHECK", "1", 1);
            inject::FaultSpec spec;
            if (!inject::parseFaultSpec(specText, spec))
                throw std::runtime_error("bad spec in test");
            inject::armFault(spec);
            Simulator sim(tinyConfig("bzip"));
            return sim.run();
        },
        po);
}

TEST_F(InjectCampaignTest, CrashFaultDiesBySigsegvInTheChild)
{
    SKIP_UNDER_TSAN();
    if (kAsanBuild)
        GTEST_SKIP() << "ASan intercepts SIGSEGV provenance";
    ProcOutcome out = runInjectedChild("crash:0:50");
    EXPECT_EQ(out.status, ProcStatus::Crashed);
    EXPECT_EQ(out.termSignal, SIGSEGV);
    EXPECT_NE(out.error.find("signal"), std::string::npos);
}

TEST_F(InjectCampaignTest, AbortFaultDiesBySigabrtWithAssertTail)
{
    SKIP_UNDER_TSAN();
    ProcOutcome out = runInjectedChild("abort:0:50");
    EXPECT_EQ(out.status, ProcStatus::Crashed);
    EXPECT_EQ(out.termSignal, SIGABRT);
    // The LSQ_ASSERT cold path printed to the child's stderr, which the
    // parent captured as provenance.
    EXPECT_NE(out.stderrTail.find("inject"), std::string::npos);
}

TEST_F(InjectCampaignTest, HangFaultIsReapedByTheWatchdog)
{
    SKIP_UNDER_TSAN();
    ProcOutcome out =
        runInjectedChild("hang:0:50", std::chrono::milliseconds(300));
    EXPECT_EQ(out.status, ProcStatus::TimedOut);
    EXPECT_NE(out.error.find("heartbeat"), std::string::npos);
}

TEST_F(InjectCampaignTest, PredictorCorruptionIsSilent)
{
    SKIP_UNDER_TSAN();
    // corrupt-pred is the taxonomy's silent fault: the child finishes
    // cleanly and ships a (timing-shifted) result.
    ProcOutcome out = runInjectedChild("corrupt-pred:42:50");
    EXPECT_EQ(out.status, ProcStatus::Ok);
    EXPECT_EQ(out.termSignal, 0);
    EXPECT_GT(out.result.committed, 0u);
}

TEST_F(InjectCampaignTest, LsqCorruptionIsCaughtByTheChecker)
{
    SKIP_UNDER_TSAN();
    // With LSQSCALE_CHECK=1 (set in the child only) the ordering oracle
    // detects the corrupted store-queue addresses and panics — which
    // process isolation turns into a contained SIGABRT with the panic
    // text in the child's stderr tail.
    ProcOutcome out = runInjectedChild(
        "corrupt-lsq:42:50", std::chrono::milliseconds(0), true);
    EXPECT_EQ(out.status, ProcStatus::Crashed);
    EXPECT_EQ(out.termSignal, SIGABRT);
    EXPECT_NE(out.stderrTail.find("LSQ oracle mismatch"),
              std::string::npos)
        << out.stderrTail;
}

TEST_F(InjectCampaignTest, ConcurrentForksDoNotCrossPoisonCells)
{
    SKIP_UNDER_TSAN();
    // Regression: a child forked by another worker between this
    // worker's pipe() and the parent-side close of the write ends used
    // to inherit them, so the parent saw EOF only when the unrelated
    // child exited; with a watchdog shorter than that child's
    // lifetime, the parent killed a zombie and a healthy, completed
    // cell came back TimedOut. Fast cells (tight watchdog) race
    // against long-lived slow cells here; every one must be Ok.
    constexpr int kFast = 4;
    constexpr int kSlow = 4;
    std::array<ProcOutcome, kFast + kSlow> outs;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int i = 0; i < kFast + kSlow; ++i) {
        threads.emplace_back([i, &outs, &ready, &go] {
            const bool fast = i < kFast;
            ProcOptions po;
            po.watchdog = std::chrono::milliseconds(fast ? 1000 : 0);
                    ready.fetch_add(1);
            while (!go.load())
                std::this_thread::yield();
            outs[i] = runCellInProcess(
                [fast] {
                    if (!fast)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(2200));
                    SimResult r;
                    r.benchmark = fast ? "fast" : "slow";
                    r.cycles = 1;
                    r.committed = 1;
                    return r;
                },
                po);
        });
    }
    while (ready.load() != kFast + kSlow)
        std::this_thread::yield();
    go.store(true);
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kFast + kSlow; ++i) {
        EXPECT_EQ(outs[i].status, ProcStatus::Ok)
            << "cell " << i << ": " << outs[i].error;
        EXPECT_EQ(outs[i].result.cycles, 1u) << "cell " << i;
    }
}

TEST_F(InjectCampaignTest, UninjectedChildMatchesInProcessRun)
{
    SKIP_UNDER_TSAN();
    // Control leg: no fault armed, the forked run is bit-identical to
    // the same simulation run in-process.
    ProcOptions po;
    ProcOutcome out = runCellInProcess(
        [] {
            Simulator sim(tinyConfig("bzip"));
            return sim.run();
        },
        po);
    ASSERT_EQ(out.status, ProcStatus::Ok);
    Simulator sim(tinyConfig("bzip"));
    SimResult local = sim.run();
    EXPECT_EQ(out.result.cycles, local.cycles);
    EXPECT_EQ(out.result.committed, local.committed);
    EXPECT_EQ(out.result.stats.dump(), local.stats.dump());
}

} // namespace
} // namespace lsqscale
