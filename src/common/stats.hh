/**
 * @file
 * Lightweight statistics package for the simulator.
 *
 * Modeled loosely on gem5's Stats: named scalar counters, derived
 * ratios, and bucketed histograms, registered in a StatSet so the
 * simulation driver can dump everything uniformly. The per-experiment
 * benches read the individual stats directly to build the paper's
 * tables and figures.
 */

#ifndef LSQSCALE_COMMON_STATS_HH
#define LSQSCALE_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace lsqscale {

class SerialWriter;
class SerialReader;

/**
 * Render a double as a JSON number: @p fmt for finite values, the
 * literal `null` for NaN/Inf (neither is a valid JSON token). Every
 * JSON sink in the repo funnels doubles through this, so a NaN ratio
 * (StatSet::ratio on a zero denominator) or an empty-histogram
 * percentile can never poison an emitted document.
 */
std::string jsonNumber(double v, const char *fmt = "%.6g");

/** A named monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Fixed-bucket histogram over small integer samples.
 *
 * Samples >= bucket count land in the final (overflow) bucket. Used for
 * e.g. the Table 6 distribution of segments searched per load and the
 * Table 4/5 occupancy averages (via mean()).
 */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets = 16) : buckets_(buckets, 0) {}

    void
    sample(std::uint64_t v, std::uint64_t count = 1)
    {
        std::size_t idx = v < buckets_.size() ? static_cast<std::size_t>(v)
                                              : buckets_.size() - 1;
        buckets_[idx] += count;
        sum_ += v * count;
        samples_ += count;
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        sum_ = 0;
        samples_ = 0;
    }

    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t samples() const { return samples_; }

    double
    mean() const
    {
        return samples_ ? static_cast<double>(sum_) /
                              static_cast<double>(samples_)
                        : 0.0;
    }

    /** Fraction of samples that fell in bucket i. */
    double
    fraction(std::size_t i) const
    {
        return samples_ ? static_cast<double>(bucket(i)) /
                              static_cast<double>(samples_)
                        : 0.0;
    }

    /**
     * Smallest bucket index holding at least fraction @p p of the
     * samples (p in [0,1]); p=0.5 is the median bucket. The overflow
     * bucket means "numBuckets()-1 or more". NaN when the histogram is
     * empty (no samples is not the same as percentile 0).
     */
    double percentile(double p) const;

    /**
     * Serialize the full state (bucket shape, counts, exact sum):
     * mean() after loadState is bit-identical to the original, which
     * the process-isolation result transport relies on.
     */
    void saveState(SerialWriter &w) const;
    /** Restore state written by saveState (replaces the shape). */
    void loadState(SerialReader &r);

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t sum_ = 0;
    std::uint64_t samples_ = 0;
};

/**
 * A registry of named counters and histograms.
 *
 * Each simulator component owns a StatSet (or contributes to its
 * parent's); the Simulator merges them into one report. Lookup is by
 * dotted name, e.g. "lsq.sq.searches".
 */
class StatSet
{
  public:
    /** Get (creating on first use) the counter with the given name. */
    Counter &counter(const std::string &name);

    /** Get (creating on first use) a histogram with the given name. */
    Histogram &histogram(const std::string &name,
                         std::size_t buckets = 16);

    /** Value of a counter, 0 if it was never touched. */
    std::uint64_t value(const std::string &name) const;

    /**
     * Ratio of two counters; NaN when the denominator is 0 (counted
     * nothing or never touched), so a missing denominator cannot be
     * mistaken for a true zero ratio. Callers that want to print the
     * ratio must guard with std::isnan (or hasCounter) themselves.
     */
    double ratio(const std::string &num, const std::string &den) const;

    bool hasCounter(const std::string &name) const;
    bool hasHistogram(const std::string &name) const;
    const Histogram &getHistogram(const std::string &name) const;

    /** Reset every registered stat to zero. */
    void resetAll();

    /** Render "name value" lines, sorted by name. */
    std::string dump() const;

    /** Names of all registered counters, sorted. */
    std::vector<std::string> counterNames() const;

    /**
     * Serialize every registered stat (std::map iteration is sorted,
     * so the bytes are deterministic for identical logical state).
     */
    void saveState(SerialWriter &w) const;
    /** Replace the registry with state written by saveState. */
    void loadState(SerialReader &r);

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * A handle to one StatSet counter, bound on first touch. A hot path
 * pays a pointer test per increment instead of a string-keyed lookup,
 * and a counter never incremented stays out of StatSet::dump(), as
 * with StatSet::counter(). The StatSet must outlive the handle, and
 * must not be reloaded (StatSet::loadState) once the handle is bound.
 */
class LazyCounter
{
  public:
    LazyCounter(StatSet &stats, const char *name)
        : stats_(stats), name_(name)
    {}

    void
    inc(std::uint64_t n = 1)
    {
        if (counter_ == nullptr) [[unlikely]]
            counter_ = &stats_.counter(name_);
        counter_->inc(n);
    }

  private:
    StatSet &stats_;
    const char *name_;
    Counter *counter_ = nullptr;
};

/**
 * A time series of periodic metric snapshots ("interval stats").
 *
 * The simulator samples a fixed set of columns (IPC, queue
 * occupancies, search counts — see docs/OBSERVABILITY.md) every N
 * cycles; the series serializes as the `lsqscale-intervals-v1` JSON
 * schema so BENCH_*.json files carry per-interval curves next to the
 * end-of-run scalars.
 */
class IntervalSeries
{
  public:
    /** One snapshot: the cycle it was taken plus one value/column. */
    struct Sample
    {
        Cycle cycle = 0;
        std::vector<double> values;
    };

    IntervalSeries() = default;
    IntervalSeries(std::vector<std::string> columns,
                   Cycle intervalCycles)
        : columns_(std::move(columns)), intervalCycles_(intervalCycles)
    {
    }

    const std::vector<std::string> &columns() const { return columns_; }
    Cycle intervalCycles() const { return intervalCycles_; }

    /** Append one snapshot; values.size() must match columns(). */
    void append(Cycle cycle, std::vector<double> values);

    std::size_t size() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }
    const Sample &sample(std::size_t i) const { return samples_.at(i); }

    /**
     * Serialize as a `lsqscale-intervals-v1` JSON object:
     * {"schema":..., "interval_cycles":N, "columns":[...],
     *  "samples":[[cycle,v0,v1,...],...]}. @p indent prefixes every
     * line after the first (for embedding in a larger document).
     */
    std::string toJson(const std::string &indent = "") const;

    /** Serialize columns, interval, and every sample (bit-exact). */
    void saveState(SerialWriter &w) const;
    /** Replace this series with state written by saveState. */
    void loadState(SerialReader &r);

  private:
    std::vector<std::string> columns_;
    Cycle intervalCycles_ = 0;
    std::vector<Sample> samples_;
};

} // namespace lsqscale

#endif // LSQSCALE_COMMON_STATS_HH
