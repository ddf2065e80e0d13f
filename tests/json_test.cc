/**
 * @file
 * JSON well-formedness of the repo's result documents.
 *
 * A strict RFC 8259 parser round-trips a sweep sink document and a
 * CLI result whose derived fields are NaN: jsonNumber() must have
 * turned every one into null, or the parse fails.
 */

#include <cctype>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "harness/sink.hh"
#include "harness/sweep.hh"
#include "sim/cli.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace lsqscale {
namespace {

// ------------------------------------------------ strict JSON parse --

/**
 * Minimal strict JSON validator: objects, arrays, strings, numbers,
 * true/false/null per RFC 8259 and nothing else. In particular the
 * bare tokens `nan`, `inf`, and `-nan` that printf-style emitters
 * leak are rejected, which is exactly what this suite uses it for.
 */
class StrictJson
{
  public:
    static bool valid(const std::string &text)
    {
        StrictJson p(text);
        p.skipWs();
        if (!p.value())
            return false;
        p.skipWs();
        return p.pos_ == p.text_.size();
    }

  private:
    explicit StrictJson(const std::string &text) : text_(text) {}

    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\')
                ++pos_; // skip the escaped char (coarse but strict
                        // enough: no bare quote can slip through)
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_;
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!std::isdigit(peek()))
            return false; // rejects nan/inf right here
        while (std::isdigit(peek()))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            if (!std::isdigit(peek()))
                return false;
            while (std::isdigit(peek()))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(peek()))
                return false;
            while (std::isdigit(peek()))
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

TEST(StrictJsonSelfTest, AcceptsJsonRejectsNanTokens)
{
    EXPECT_TRUE(StrictJson::valid(
        "{\"a\": [1, -2.5, 1e9, null, true], \"b\": {}}"));
    EXPECT_FALSE(StrictJson::valid("{\"a\": nan}"));
    EXPECT_FALSE(StrictJson::valid("{\"a\": -nan}"));
    EXPECT_FALSE(StrictJson::valid("{\"a\": inf}"));
    EXPECT_FALSE(StrictJson::valid("{\"a\": 1,}"));
}

// ------------------------------------------------ sink round trips ----

TEST(SinkRoundTrip, JsonNumberMapsNonFiniteToNull)
{
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(-std::nan("")), "null");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(jsonNumber(1.5), "1.5");
}

TEST(SinkRoundTrip, SweepJsonWithPoisonedCellParsesStrictly)
{
    SweepOutcome outcome;
    outcome.name = "nan_roundtrip";
    outcome.jobs = 1;
    outcome.poisonedCells = 1;
    outcome.seconds = 0.25;
    SweepCell cell;
    cell.configLabel = "base";
    cell.benchmark = "gzip";
    cell.status = JobStatus::Crashed;
    cell.error = "injected for the round-trip test";
    outcome.grid = {{cell}};

    std::string json =
        JsonFileSink::render(outcome, {{"origin", "json_test"}});
    EXPECT_TRUE(StrictJson::valid(json)) << json;
}

TEST(SinkRoundTrip, CliJsonWithNanSamplingFieldsParsesStrictly)
{
    // A one-interval sampled run has no variance: ipcStddev/ipcErr95
    // are NaN and resultToJson must emit null for both (the comment
    // in src/sim/cli.cc pins this; here the parser enforces it).
    SimResult result;
    result.benchmark = "gzip";
    result.cycles = 100;
    result.committed = 150;
    result.sampling.enabled = true;
    result.sampling.intervalIpc = {1.5};
    result.sampling.ipcMean = 1.5;
    result.sampling.ipcStddev = std::nan("");
    result.sampling.ipcErr95 = std::nan("");
    SimConfig config = configs::base("gzip");

    std::string json = resultToJson(result, config);
    ASSERT_NE(json.find("\"ipc_stddev\": null"), std::string::npos)
        << json;
    ASSERT_NE(json.find("\"ipc_err95\": null"), std::string::npos)
        << json;
    EXPECT_TRUE(StrictJson::valid(json)) << json;
}

} // namespace
} // namespace lsqscale
