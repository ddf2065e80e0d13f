/**
 * @file
 * Tests for the host-telemetry registry (src/metrics/metrics.hh).
 *
 * The load-bearing properties: updates are safe from JobPool workers
 * (the TSan CI flavor runs this binary), a forked child's updates
 * never leak into the parent registry (the crash-isolated sweep
 * contract), bucket boundaries are inclusive upper bounds, and the
 * two exposition formats are stable and NaN-free. The strict JSON
 * parser at the bottom round-trips both the registry dump and a sweep
 * sink document whose derived fields are NaN — jsonNumber() must have
 * turned every one into null, or the parse fails.
 */

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "harness/job_pool.hh"
#include "harness/sink.hh"
#include "harness/sweep.hh"
#include "metrics/metrics.hh"
#include "sim/cli.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace lsqscale {
namespace {

using metrics::HistogramSnapshot;
using metrics::MetricsSnapshot;

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

// ------------------------------------------------------- registry ----

TEST(MetricsRegistry, SameNameReturnsSameInstance)
{
    metrics::Counter &a = metrics::counter("lsq_test_instance_total");
    metrics::Counter &b = metrics::counter("lsq_test_instance_total");
    EXPECT_EQ(&a, &b);

    metrics::Histogram &h1 =
        metrics::histogram("lsq_test_instance_us", {1, 2});
    // Later bounds are ignored: first registration wins.
    metrics::Histogram &h2 =
        metrics::histogram("lsq_test_instance_us", {5, 6, 7});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.bounds(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(MetricsRegistry, GaugeMovesBothWays)
{
    metrics::Gauge &g = metrics::gauge("lsq_test_depth");
    g.set(10);
    g.add(5);
    g.sub(12);
    EXPECT_EQ(g.value(), 3);
    g.sub(5);
    EXPECT_EQ(g.value(), -2); // gauges may legitimately go negative
}

TEST(MetricsRegistry, HistogramBucketBoundsAreInclusive)
{
    metrics::Histogram &h =
        metrics::histogram("lsq_test_bounds_us", {10, 20});
    h.observe(5);  // -> bucket 0
    h.observe(10); // == bound: still bucket 0 (inclusive upper bound)
    h.observe(11); // -> bucket 1
    h.observe(20); // == bound: bucket 1
    h.observe(21); // -> overflow bucket
    HistogramSnapshot s = HistogramSnapshot::capture(h);
    EXPECT_EQ(s.counts, (std::vector<std::uint64_t>{2, 2, 1}));
    EXPECT_EQ(s.sum, 5u + 10 + 11 + 20 + 21);
    EXPECT_EQ(s.count, 5u);
}

TEST(MetricsRegistry, EmptyHistogramStatsAreNaNButRenderNull)
{
    metrics::Histogram &h =
        metrics::histogram("lsq_test_empty_us", {10});
    HistogramSnapshot s = HistogramSnapshot::capture(h);
    EXPECT_TRUE(std::isnan(s.mean()));
    EXPECT_TRUE(std::isnan(s.percentile(0.5)));

    MetricsSnapshot snap;
    snap.histograms["lsq_test_empty_us"] = s;
    std::string json = metrics::toJson(snap);
    EXPECT_NE(json.find("\"mean\": null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p50\": null"), std::string::npos) << json;
    EXPECT_TRUE(StrictJson::valid(json)) << json;
}

TEST(MetricsSnapshotTest, MergeAddsAndSkipsMismatchedBounds)
{
    MetricsSnapshot a;
    a.counters["lsq_test_m_total"] = 3;
    a.gauges["lsq_test_m_depth"] = 2;
    a.histograms["lsq_test_m_us"] =
        HistogramSnapshot{{10, 20}, {1, 0, 2}, 55, 3};
    a.histograms["lsq_test_m_mismatch_us"] =
        HistogramSnapshot{{10}, {1, 0}, 5, 1};

    MetricsSnapshot b;
    b.counters["lsq_test_m_total"] = 4;
    b.counters["lsq_test_m_new_total"] = 1;
    b.gauges["lsq_test_m_depth"] = -5;
    b.histograms["lsq_test_m_us"] =
        HistogramSnapshot{{10, 20}, {0, 3, 0}, 45, 3};
    b.histograms["lsq_test_m_mismatch_us"] =
        HistogramSnapshot{{99}, {7, 7}, 700, 14};
    b.histograms["lsq_test_m_absent_us"] =
        HistogramSnapshot{{10}, {1, 1}, 30, 2};

    a.merge(b);
    EXPECT_EQ(a.counters["lsq_test_m_total"], 7u);
    EXPECT_EQ(a.counters["lsq_test_m_new_total"], 1u);
    EXPECT_EQ(a.gauges["lsq_test_m_depth"], -3);
    EXPECT_EQ(a.histograms["lsq_test_m_us"].counts,
              (std::vector<std::uint64_t>{1, 3, 2}));
    EXPECT_EQ(a.histograms["lsq_test_m_us"].sum, 100u);
    EXPECT_EQ(a.histograms["lsq_test_m_us"].count, 6u);
    // Mismatched bounds: the first-seen series wins untouched.
    EXPECT_EQ(a.histograms["lsq_test_m_mismatch_us"].sum, 5u);
    // Absent on our side: copied over whole.
    EXPECT_EQ(a.histograms["lsq_test_m_absent_us"].count, 2u);
}

// ----------------------------------------------------- exposition ----

/** One small registry with all three metric kinds, exactly known. */
MetricsSnapshot
goldenRegistry()
{
    metrics::resetForTest();
    metrics::counter("lsq_test_events_total").add(2);
    metrics::gauge("lsq_test_depth").set(5);
    metrics::Histogram &h =
        metrics::histogram("lsq_test_wait_us", {10, 20});
    h.observe(5);
    h.observe(25);
    return metrics::snapshot();
}

TEST(MetricsExposition, JsonGolden)
{
    std::string json = metrics::toJson(goldenRegistry());
    EXPECT_EQ(json,
              "{\n"
              "  \"schema\": \"lsqscale-metrics-v1\",\n"
              "  \"counters\": {\n"
              "    \"lsq_test_events_total\": 2\n"
              "  },\n"
              "  \"gauges\": {\n"
              "    \"lsq_test_depth\": 5\n"
              "  },\n"
              "  \"histograms\": {\n"
              "    \"lsq_test_wait_us\": {\"sum\": 30, \"count\": 2, "
              "\"mean\": 15, \"p50\": 10, \"p99\": 20, \"buckets\": "
              "[{\"le\": 10, \"count\": 1}, {\"le\": 20, \"count\": 0},"
              " {\"le\": null, \"count\": 1}]}\n"
              "  }\n"
              "}");
    EXPECT_TRUE(StrictJson::valid(json)) << json;
}

TEST(MetricsExposition, PrometheusGolden)
{
    std::string prom = metrics::toPrometheus(goldenRegistry());
    EXPECT_EQ(prom,
              "# TYPE lsq_test_events_total counter\n"
              "lsq_test_events_total 2\n"
              "# TYPE lsq_test_depth gauge\n"
              "lsq_test_depth 5\n"
              "# TYPE lsq_test_wait_us histogram\n"
              "lsq_test_wait_us_bucket{le=\"10\"} 1\n"
              "lsq_test_wait_us_bucket{le=\"20\"} 1\n"
              "lsq_test_wait_us_bucket{le=\"+Inf\"} 2\n"
              "lsq_test_wait_us_sum 30\n"
              "lsq_test_wait_us_count 2\n");
}

// ---------------------------------------------------- concurrency ----

TEST(MetricsConcurrency, JobPoolWorkersShareMetricsSafely)
{
    metrics::Counter &c = metrics::counter("lsq_test_conc_total");
    metrics::Gauge &g = metrics::gauge("lsq_test_conc_depth");
    metrics::Histogram &h =
        metrics::histogram("lsq_test_conc_us",
                           metrics::latencyBucketsUs());
    std::uint64_t c0 = c.value();
    std::uint64_t h0 = h.count();

    constexpr int kJobs = 64;
    constexpr int kOpsPerJob = 1000;
    {
        JobPool pool(8);
        for (int j = 0; j < kJobs; ++j) {
            pool.submit([&, j] {
                for (int i = 0; i < kOpsPerJob; ++i) {
                    c.add();
                    g.add(1);
                    g.sub(1);
                    h.observe(static_cast<std::uint64_t>(j * 31 + i));
                }
            });
        }
        pool.wait();
    }
    EXPECT_EQ(c.value() - c0,
              static_cast<std::uint64_t>(kJobs) * kOpsPerJob);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count() - h0,
              static_cast<std::uint64_t>(kJobs) * kOpsPerJob);
}

TEST(MetricsIsolation, ForkedChildUpdatesStayInTheChild)
{
    metrics::Counter &c = metrics::counter("lsq_test_fork_total");
    c.add(7);
    std::uint64_t before = c.value();

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: the copy-on-write registry is private now. Updates
        // must be visible to the child itself and invisible to the
        // parent — the same guarantee the process-isolated sweep
        // relies on.
        c.add(1000);
        metrics::counter("lsq_test_fork_child_only_total").add();
        bool ok = c.value() == before + 1000;
        _exit(ok ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    EXPECT_EQ(c.value(), before);
    MetricsSnapshot snap = metrics::snapshot();
    EXPECT_EQ(snap.counters.count("lsq_test_fork_child_only_total"),
              0u);
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
        JsonFileSink::render(outcome, {{"origin", "metrics_test"}});
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

TEST(SinkRoundTrip, MetricsJsonParsesStrictly)
{
    metrics::resetForTest();
    metrics::counter("lsq_test_rt_total").add(3);
    metrics::histogram("lsq_test_rt_us",
                       metrics::latencyBucketsUs())
        .observe(1234);
    metrics::histogram("lsq_test_rt_empty_us", {1}); // NaN stats
    std::string json = metrics::toJson(metrics::snapshot());
    EXPECT_TRUE(StrictJson::valid(json)) << json;
}

} // namespace
} // namespace lsqscale
