/**
 * @file
 * Golden-run regression suite: five design points at a small pinned
 * instruction count, rendered through the same JSON path the CLI
 * uses, diffed byte-for-byte against references committed under
 * tests/golden/. Any timing change — intended or not — shows up as a
 * diff here before it shows up as a mysterious table shift in the
 * paper figures.
 *
 * To bless a new baseline after an intended change:
 *
 *   scripts/refresh_golden.sh [BUILD_DIR]
 *
 * which reruns this binary with LSQSCALE_REFRESH_GOLDEN=1 so it
 * rewrites the reference files instead of comparing.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include <fstream>
#include <string>

#include "sim/cli.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

using namespace lsqscale;

namespace {

class GoldenTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        unsetenv("LSQSCALE_INSTS");
        unsetenv("LSQSCALE_SAMPLE");
    }
};

bool
refreshMode()
{
    const char *env = std::getenv("LSQSCALE_REFRESH_GOLDEN");
    return env && *env && std::string(env) != "0";
}

std::string
goldenPath(const std::string &name)
{
    return std::string(LSQSCALE_GOLDEN_DIR) + "/" + name + ".json";
}

/// The checker build flavor (-DLSQ_CHECKER=ON) shadow-executes every
/// run and adds "check.*" counters; those are documented as the only
/// permitted divergence from the release flavor (docs/CHECKING.md).
/// Strip them so the committed release-flavor references stay valid
/// in every flavor CI builds.
std::string
stripCheckerCounters(const std::string &json)
{
    std::string out;
    out.reserve(json.size());
    std::size_t pos = 0;
    while (pos < json.size()) {
        std::size_t eol = json.find('\n', pos);
        if (eol == std::string::npos)
            eol = json.size() - 1;
        std::string line = json.substr(pos, eol - pos + 1);
        if (line.find("\"check.") == std::string::npos)
            out += line;
        pos = eol + 1;
    }
    return out;
}

void
checkGolden(SimConfig cfg, const std::string &name)
{
    cfg.instructions = 25000;
    SimResult result = Simulator(cfg).run();
    std::string json = stripCheckerCounters(resultToJson(result, cfg));

    std::string path = goldenPath(name);
    if (refreshMode()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << json;
        GTEST_SKIP() << "refreshed " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (run scripts/refresh_golden.sh)";
    std::string expected((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(json, expected)
        << name << ": output drifted from the committed reference; "
        << "if the change is intended, rerun scripts/refresh_golden.sh "
        << "and commit the diff";
}

} // namespace

TEST_F(GoldenTest, BaseBzip)
{
    checkGolden(configs::base("bzip"), "base_bzip");
}

TEST_F(GoldenTest, FourPortGcc)
{
    checkGolden(configs::withPorts(configs::base("gcc"), 4),
                "ports4_gcc");
}

TEST_F(GoldenTest, SegmentedArt)
{
    checkGolden(configs::withSegmentation(configs::base("art"), 4, 8,
                                          SegAllocPolicy::SelfCircular),
                "segmented_art");
}

TEST_F(GoldenTest, LoadBufferMcf)
{
    checkGolden(configs::withLoadBuffer(configs::base("mcf"), 2),
                "loadbuffer_mcf");
}

TEST_F(GoldenTest, PairPredictorEquake)
{
    checkGolden(configs::withPairPredictor(configs::base("equake")),
                "pair_equake");
}

TEST_F(GoldenTest, SampledBaseBzip)
{
    // The sampled-run JSON block is part of the CLI surface too: pin
    // it (exercises the jittered sampler end to end, deterministic by
    // design).
    SimConfig cfg = configs::base("bzip");
    ASSERT_TRUE(parseSampleSpec("2000:500:500", cfg.sample));
    checkGolden(cfg, "sampled_bzip");
}
