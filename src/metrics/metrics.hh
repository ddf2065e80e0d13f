/**
 * @file
 * Process-global host-telemetry registry (docs/OBSERVABILITY.md).
 *
 * This is the instrument layer for ROADMAP item 1 ("where do the
 * *host* cycles go"): named counters, gauges, and fixed-bucket latency
 * histograms that the simulator updates from hot paths. Updates are
 * single relaxed atomic RMWs — safe from concurrent JobPool workers,
 * and cheap enough that the registry stays on unconditionally (the
 * metrics-smoke CI flavor proves the overhead bound and that metrics
 * never change simulated output).
 *
 * Unlike StatSet (per-run *simulated* statistics, serialized into
 * checkpoints and results), this registry describes the host process:
 * it is never checkpointed, never reaches `--json` stdout, and resets
 * only for tests. After fork() the child works on its own copy-on-
 * write pages, so child-side updates can never corrupt the parent's
 * snapshot — the crash-isolated sweep path inherits isolation for
 * free (metrics_test pins this down).
 *
 * Naming taxonomy (enforced by the lsqlint `metric-name` rule):
 * `lsq_<subsystem>_<name>[_unit]`, lower_snake_case; counters end in
 * `_total`, histograms and byte/duration gauges end in a unit suffix
 * (`_us`, `_ns`, `_bytes`). See docs/OBSERVABILITY.md for the
 * catalog.
 *
 * Exposition: snapshot() captures a point-in-time copy; toJson()
 * renders `lsqscale-metrics-v1`, toPrometheus() the Prometheus text
 * format. Snapshots merge (counter/gauge add, bucket-wise histogram
 * add) so multi-process harnesses can aggregate.
 */

#ifndef LSQSCALE_METRICS_METRICS_HH
#define LSQSCALE_METRICS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lsqscale {
namespace metrics {

/** Monotonic event counter; relaxed-atomic, shareable across threads. */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Instantaneous level (queue depth, resident bytes); can go down. */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    void sub(std::int64_t n = 1)
    {
        v_.fetch_sub(n, std::memory_order_relaxed);
    }
    std::int64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * Fixed-bucket histogram over unsigned samples (typically latencies in
 * the unit named by the metric's suffix). Bounds are inclusive upper
 * bounds in ascending order; one implicit overflow bucket catches
 * everything above the last bound (Prometheus `+Inf`). observe() is a
 * short linear scan plus three relaxed adds — no locks, so hot paths
 * and JobPool workers can share one instance.
 */
class Histogram
{
  public:
    explicit Histogram(const std::vector<std::uint64_t> &bounds);
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void
    observe(std::uint64_t v)
    {
        std::size_t i = 0;
        while (i < bounds_.size() && v > bounds_[i])
            ++i;
        buckets_[i].fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
    }

    const std::vector<std::uint64_t> &bounds() const { return bounds_; }
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

  private:
    friend struct HistogramSnapshot;
    // lsqlint: no-serialize(host telemetry, not architectural state)
    std::vector<std::uint64_t> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_; ///< bounds+1
    std::atomic<std::uint64_t> sum_{0};
    // lsqlint: no-serialize(host telemetry, not architectural state)
    std::atomic<std::uint64_t> count_{0};
};

/** Point-in-time copy of one Histogram. */
struct HistogramSnapshot
{
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> counts; ///< bounds.size() + 1 buckets
    std::uint64_t sum = 0;
    std::uint64_t count = 0;

    static HistogramSnapshot capture(const Histogram &h);

    /**
     * Linear-interpolated percentile estimate from the buckets;
     * quiet NaN when the histogram is empty (callers must render via
     * jsonNumber(), which maps NaN to JSON null).
     */
    double percentile(double p) const;
    double mean() const; ///< NaN when empty
};

/** Point-in-time copy of the whole registry, mergeable. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /**
     * Aggregate @p other into this snapshot: counters and gauges add,
     * histograms add bucket-wise (bounds must match; mismatched
     * histograms are skipped with the other side winning absent
     * entries).
     */
    void merge(const MetricsSnapshot &other);
};

/**
 * Get (registering on first use) the process-global counter @p name.
 * The reference stays valid for the process lifetime — hot callers
 * should cache it in a function-local static.
 */
Counter &counter(const std::string &name);

/** Get (registering on first use) the process-global gauge @p name. */
Gauge &gauge(const std::string &name);

/**
 * Get (registering on first use) the process-global histogram
 * @p name. @p bounds applies on first registration only; later calls
 * return the existing instance regardless.
 */
Histogram &histogram(const std::string &name,
                     const std::vector<std::uint64_t> &bounds);

/**
 * Default microsecond latency bounds: 1,2,5 decades from 1us to 10s.
 * Shared by every `_us` histogram so merged snapshots line up.
 */
const std::vector<std::uint64_t> &latencyBucketsUs();

/** Capture every registered metric. */
MetricsSnapshot snapshot();

/** `lsqscale-metrics-v1` JSON document (sorted keys, NaN-free). */
std::string toJson(const MetricsSnapshot &snap);

/** Prometheus text exposition format (one TYPE line per family). */
std::string toPrometheus(const MetricsSnapshot &snap);

/** Drop every registered metric. Tests only — references die. */
void resetForTest();

} // namespace metrics
} // namespace lsqscale

#endif // LSQSCALE_METRICS_METRICS_HH
