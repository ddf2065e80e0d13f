/**
 * @file
 * Tests for the lsqsim command-line parsing and JSON output.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "sim/cli.hh"

using namespace lsqscale;

namespace {

CliOptions
parseOk(const std::vector<std::string> &args)
{
    CliOptions opts;
    std::string err = parseCli(args, opts);
    EXPECT_EQ(err, "");
    return opts;
}

std::string
parseErr(const std::vector<std::string> &args)
{
    CliOptions opts;
    return parseCli(args, opts);
}

} // namespace

TEST(Cli, DefaultsAreBaseConfig)
{
    CliOptions opts = parseOk({});
    EXPECT_EQ(opts.config.benchmark, "bzip");
    EXPECT_EQ(opts.config.lsq.searchPorts, 2u);
    EXPECT_EQ(opts.config.lsq.numSegments, 1u);
    EXPECT_FALSE(opts.showHelp);
    EXPECT_FALSE(opts.jsonOutput);
}

TEST(Cli, WorkloadOptions)
{
    CliOptions opts = parseOk({"--benchmark", "mgrid", "--insts",
                               "12345", "--warmup", "100", "--seed",
                               "9"});
    EXPECT_EQ(opts.config.benchmark, "mgrid");
    EXPECT_EQ(opts.config.instructions, 12345u);
    EXPECT_EQ(opts.config.warmup, 100u);
    EXPECT_EQ(opts.config.seed, 9u);
}

TEST(Cli, WarmupCapWarns)
{
    if (std::getenv("LSQSCALE_INSTS") != nullptr)
        GTEST_SKIP() << "LSQSCALE_INSTS overrides --insts";
    // Simulator::run caps the warm-up at a quarter of the measured
    // instructions; an explicit --warmup above that is named.
    CliOptions capped =
        parseOk({"--warmup", "2700000", "--insts", "300000"});
    EXPECT_EQ(warmupCapWarning(capped),
              "--warmup 2700000 exceeds a quarter of the 300000 "
              "measured instructions; warming up for 75000 "
              "instructions");

    // At the cap, by default, and with a fast-forward (which skips
    // the warm-up) nothing is said.
    EXPECT_EQ(warmupCapWarning(
                  parseOk({"--warmup", "75000", "--insts", "300000"})),
              "");
    EXPECT_EQ(warmupCapWarning(parseOk({"--insts", "1000"})), "");
    EXPECT_EQ(warmupCapWarning(parseOk({"--warmup", "2700000", "--insts",
                                        "300000", "--ff", "1000"})),
              "");
}

TEST(Cli, UnknownBenchmarkRejected)
{
    EXPECT_NE(parseErr({"--benchmark", "doom"}), "");
}

TEST(Cli, LsqShapeOptions)
{
    CliOptions opts = parseOk({"--ports", "1", "--lq", "28", "--sq",
                               "28", "--segments", "4", "--alloc",
                               "no-self-circular"});
    EXPECT_EQ(opts.config.lsq.searchPorts, 1u);
    EXPECT_EQ(opts.config.lsq.lqEntries, 28u);
    EXPECT_EQ(opts.config.lsq.numSegments, 4u);
    EXPECT_EQ(opts.config.lsq.allocPolicy,
              SegAllocPolicy::NoSelfCircular);
}

TEST(Cli, PredictorKinds)
{
    EXPECT_EQ(parseOk({"--predictor", "pair"}).config.lsq.sqPolicy,
              SqSearchPolicy::Pair);
    EXPECT_EQ(parseOk({"--predictor", "perfect"}).config.lsq.sqPolicy,
              SqSearchPolicy::Perfect);
    CliOptions agg = parseOk({"--predictor", "aggressive"});
    EXPECT_TRUE(agg.config.core.storeSet.aliasFree);
    CliOptions conv = parseOk({"--predictor", "pair", "--predictor",
                               "conventional"});
    EXPECT_EQ(conv.config.lsq.sqPolicy, SqSearchPolicy::Always);
    EXPECT_FALSE(conv.config.lsq.checkViolationsAtCommit);
    EXPECT_NE(parseErr({"--predictor", "psychic"}), "");
}

TEST(Cli, LoadBufferOptions)
{
    CliOptions lb = parseOk({"--load-buffer", "4"});
    EXPECT_EQ(lb.config.lsq.loadCheck, LoadCheckPolicy::LoadBuffer);
    EXPECT_EQ(lb.config.lsq.loadBufferEntries, 4u);
    CliOptions zero = parseOk({"--load-buffer", "0"});
    EXPECT_EQ(zero.config.lsq.loadCheck, LoadCheckPolicy::InOrder);
    CliOptions search = parseOk({"--in-order-search"});
    EXPECT_EQ(search.config.lsq.loadCheck,
              LoadCheckPolicy::InOrderAlwaysSearch);
}

TEST(Cli, CompositeFlags)
{
    CliOptions all = parseOk({"--all-techniques"});
    EXPECT_EQ(all.config.lsq.searchPorts, 1u);
    EXPECT_EQ(all.config.lsq.numSegments, 4u);
    EXPECT_EQ(all.config.lsq.sqPolicy, SqSearchPolicy::Pair);

    CliOptions scaled = parseOk({"--scaled"});
    EXPECT_EQ(scaled.config.core.issueWidth, 12u);
    EXPECT_EQ(scaled.config.memory.l1d.hitLatency, 3u);
}

TEST(Cli, ModeFlags)
{
    EXPECT_TRUE(parseOk({"--help"}).showHelp);
    EXPECT_TRUE(parseOk({"--list-benchmarks"}).listBenchmarks);
    EXPECT_TRUE(parseOk({"--json"}).jsonOutput);
    EXPECT_TRUE(parseOk({"--dump-stats"}).dumpStats);
}

TEST(Cli, MissingValuesAreErrors)
{
    EXPECT_NE(parseErr({"--benchmark"}), "");
    EXPECT_NE(parseErr({"--insts"}), "");
    EXPECT_NE(parseErr({"--insts", "zero"}), "");
    EXPECT_NE(parseErr({"--insts", "0"}), "");
    EXPECT_NE(parseErr({"--ports", "0"}), "");
    EXPECT_NE(parseErr({"--alloc", "sideways"}), "");
}

TEST(Cli, UnknownOptionIsError)
{
    EXPECT_NE(parseErr({"--frobnicate"}), "");
}

TEST(Cli, RetiredFlagsAreRejected)
{
    // lsqsim runs one simulation; sweeps are configured through
    // SweepOptions and the LSQSCALE_JOBS/ISOLATION variables only, and
    // a sweep is rerun, not resumed. There is no replay-trace format.
    // A script that still passes these fails loudly instead of running
    // something else.
    // Fast-forward and checkpoints are the one way past the cold
    // start; there is no interval sampler.
    for (const char *flag :
         {"--jobs", "--isolation", "--journal", "--resume", "--trace",
          "--record", "--record-insts", "--sample"}) {
        std::string err = parseErr({flag, "2"});
        EXPECT_NE(err.find("unknown option"), std::string::npos)
            << flag << ": " << err;
    }
    EXPECT_EQ(cliUsage().find("--record"), std::string::npos);
    EXPECT_EQ(cliUsage().find("--sample"), std::string::npos);
}

TEST(Cli, CountsAreDigitsOnly)
{
    // strtoull accepted all of these: "-1" wrapped to 2^64-1, "+5" and
    // " 5000" parsed, and "20k" silently meant 20.
    for (const char *flag : {"--insts", "--seed", "--warmup", "--ports"})
        for (const char *bad : {"-1", "+5", " 5000", "20k"})
            EXPECT_NE(parseErr({flag, bad}), "") << flag << " " << bad;
    EXPECT_NE(parseErr({"--insts", "18446744073709551616"}), "");
    EXPECT_EQ(parseOk({"--insts", "5000"}).config.instructions, 5000u);
}

TEST(Cli, UsageMentionsEveryOption)
{
    std::string u = cliUsage();
    for (const char *flag :
         {"--benchmark", "--insts", "--ports", "--segments",
          "--predictor", "--load-buffer", "--all-techniques",
          "--scaled", "--json", "--trace-out", "--inject", "--ff",
          "--save-ckpt", "--load-ckpt"})
        EXPECT_NE(u.find(flag), std::string::npos) << flag;
}

TEST(Cli, JsonOutputIsWellFormedish)
{
    SimConfig cfg = configs::base("bzip");
    cfg.instructions = 3000;
    cfg.warmup = 500;
    SimResult r = Simulator(cfg).run();
    std::string json = resultToJson(r);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(json.find("\"counters\":"), std::string::npos);
    EXPECT_NE(json.find("\"core.committed\":"), std::string::npos);
    // Balanced braces.
    int depth = 0;
    for (char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Cli, RunCliHelpAndList)
{
    CliOptions help;
    help.showHelp = true;
    EXPECT_EQ(runCli(help), 0);
    CliOptions list;
    list.listBenchmarks = true;
    EXPECT_EQ(runCli(list), 0);
}

TEST(Cli, CombinedQueueFlag)
{
    CliOptions opts = parseOk({"--combined", "--segments", "4"});
    EXPECT_TRUE(opts.config.lsq.combinedQueue);
    EXPECT_EQ(opts.config.lsq.numSegments, 4u);
}

namespace {

/** runCli's exit code, with its stdout in @p out. */
int
runCliCapturing(const std::vector<std::string> &args, std::string &out)
{
    CliOptions opts = parseOk(args);
    ::testing::internal::CaptureStdout();
    int rc = runCli(opts);
    out = ::testing::internal::GetCapturedStdout();
    return rc;
}

} // namespace

TEST(Cli, SaveCheckpointWriteFailuresExitCleanly)
{
    // A path that cannot be created or fully written is a user error,
    // reported like every load-side error: exit 1, no abort.
    std::string out;
    EXPECT_EQ(runCliCapturing({"--ff", "100", "--save-ckpt",
                               ::testing::TempDir()},
                              out),
              1);
    EXPECT_EQ(out, "");
    if (std::FILE *full = std::fopen("/dev/full", "wb")) {
        std::fclose(full);
        EXPECT_EQ(runCliCapturing({"--ff", "100", "--save-ckpt",
                                   "/dev/full"},
                                  out),
                  1);
    }
}

TEST(Cli, SaveCheckpointReportsTheSavedCount)
{
    // The count printed is the one the header records: a checkpoint
    // saved after a restore carries on from the restored count.
    std::string g = ::testing::TempDir() + "/cli_saved_g.ckpt";
    std::string h = ::testing::TempDir() + "/cli_saved_h.ckpt";
    std::string out;
    ASSERT_EQ(runCliCapturing({"--benchmark", "gzip", "--ff", "1000",
                               "--save-ckpt", g},
                              out),
              0);
    EXPECT_EQ(out, "saved checkpoint " + g + " (gzip, 1000 "
                   "instructions)\n");
    ASSERT_EQ(runCliCapturing({"--benchmark", "gzip", "--load-ckpt", g,
                               "--save-ckpt", h},
                              out),
              0);
    EXPECT_EQ(out, "saved checkpoint " + h + " (gzip, 1000 "
                   "instructions)\n");
    ASSERT_EQ(runCliCapturing({"--benchmark", "gzip", "--load-ckpt", g,
                               "--ff", "500", "--save-ckpt", h},
                              out),
              0);
    EXPECT_EQ(out, "saved checkpoint " + h + " (gzip, 1500 "
                   "instructions)\n");
    std::remove(g.c_str());
    std::remove(h.c_str());
}
