#include "common/stats.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace lsqscale {

std::string
jsonNumber(double v, const char *fmt)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

Counter &
StatSet::counter(const std::string &name)
{
    return counters_[name];
}

Histogram &
StatSet::histogram(const std::string &name, std::size_t buckets)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(buckets)).first;
    return it->second;
}

std::uint64_t
StatSet::value(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

double
Histogram::percentile(double p) const
{
    LSQ_ASSERT(p >= 0.0 && p <= 1.0, "percentile p=%f out of [0,1]", p);
    if (samples_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(samples_)));
    if (target == 0)
        target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target)
            return static_cast<double>(i);
    }
    return static_cast<double>(buckets_.size() - 1);
}

void
Histogram::saveState(SerialWriter &w) const
{
    w.u64(buckets_.size());
    for (std::uint64_t b : buckets_)
        w.u64(b);
    w.u64(sum_);
    w.u64(samples_);
}

void
Histogram::loadState(SerialReader &r)
{
    std::uint64_t n = r.u64();
    // Bound the count by the bytes left before allocating: a forged
    // count must be a SerialError, not a multi-terabyte assign.
    if (n > r.remaining() / 8)
        throw SerialError("histogram bucket count exceeds its payload");
    buckets_.assign(static_cast<std::size_t>(n), 0);
    for (auto &b : buckets_)
        b = r.u64();
    sum_ = r.u64();
    samples_ = r.u64();
}

void
StatSet::saveState(SerialWriter &w) const
{
    w.u64(counters_.size());
    for (const auto &kv : counters_) {
        w.str(kv.first);
        w.u64(kv.second.value());
    }
    w.u64(histograms_.size());
    for (const auto &kv : histograms_) {
        w.str(kv.first);
        kv.second.saveState(w);
    }
}

void
StatSet::loadState(SerialReader &r)
{
    counters_.clear();
    histograms_.clear();
    std::uint64_t nc = r.u64();
    for (std::uint64_t i = 0; i < nc; ++i) {
        std::string name = r.str();
        counters_[name].inc(r.u64());
    }
    std::uint64_t nh = r.u64();
    for (std::uint64_t i = 0; i < nh; ++i) {
        std::string name = r.str();
        histograms_[name].loadState(r);
    }
}

double
StatSet::ratio(const std::string &num, const std::string &den) const
{
    std::uint64_t d = value(den);
    // NaN, not 0: a zero (or never-registered) denominator is "no data",
    // and silently reading as a zero ratio hid real bugs in bench code.
    if (d == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(value(num)) / static_cast<double>(d);
}

bool
StatSet::hasCounter(const std::string &name) const
{
    return counters_.count(name) != 0;
}

bool
StatSet::hasHistogram(const std::string &name) const
{
    return histograms_.count(name) != 0;
}

const Histogram &
StatSet::getHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    LSQ_ASSERT(it != histograms_.end(), "no histogram named %s",
               name.c_str());
    return it->second;
}

void
StatSet::resetAll()
{
    for (auto &kv : counters_)
        kv.second.reset();
    for (auto &kv : histograms_)
        kv.second.reset();
}

std::string
StatSet::dump() const
{
    std::ostringstream os;
    for (const auto &kv : counters_)
        os << kv.first << " " << kv.second.value() << "\n";
    for (const auto &kv : histograms_) {
        os << kv.first << ".mean " << kv.second.mean() << "\n";
        os << kv.first << ".samples " << kv.second.samples() << "\n";
    }
    return os.str();
}

std::vector<std::string>
StatSet::counterNames() const
{
    std::vector<std::string> names;
    names.reserve(counters_.size());
    for (const auto &kv : counters_)
        names.push_back(kv.first);
    return names;
}

void
IntervalSeries::append(Cycle cycle, std::vector<double> values)
{
    LSQ_ASSERT(values.size() == columns_.size(),
               "interval sample has %zu values for %zu columns",
               values.size(), columns_.size());
    samples_.push_back(Sample{cycle, std::move(values)});
}

void
IntervalSeries::saveState(SerialWriter &w) const
{
    w.u64(columns_.size());
    for (const auto &c : columns_)
        w.str(c);
    w.u64(intervalCycles_);
    w.u64(samples_.size());
    for (const auto &s : samples_) {
        w.u64(s.cycle);
        for (double v : s.values)
            w.f64(v);
    }
}

void
IntervalSeries::loadState(SerialReader &r)
{
    columns_.clear();
    samples_.clear();
    std::uint64_t nc = r.u64();
    for (std::uint64_t i = 0; i < nc; ++i)
        columns_.push_back(r.str());
    intervalCycles_ = r.u64();
    std::uint64_t ns = r.u64();
    if (ns > r.remaining() / (8 * (1 + columns_.size())))
        throw SerialError("interval sample count exceeds its payload");
    samples_.reserve(static_cast<std::size_t>(ns));
    for (std::uint64_t i = 0; i < ns; ++i) {
        Sample s;
        s.cycle = r.u64();
        s.values.reserve(columns_.size());
        for (std::size_t c = 0; c < columns_.size(); ++c)
            s.values.push_back(r.f64());
        samples_.push_back(std::move(s));
    }
}

std::string
IntervalSeries::toJson(const std::string &indent) const
{
    std::ostringstream os;
    os << "{\n";
    os << indent << "  \"schema\": \"lsqscale-intervals-v1\",\n";
    os << indent << "  \"interval_cycles\": " << intervalCycles_
       << ",\n";
    os << indent << "  \"columns\": [";
    for (std::size_t i = 0; i < columns_.size(); ++i)
        os << (i ? ", " : "") << "\"" << columns_[i] << "\"";
    os << "],\n";
    os << indent << "  \"samples\": [";
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        os << (i ? "," : "") << "\n" << indent << "    ["
           << samples_[i].cycle;
        for (double v : samples_[i].values)
            os << ", " << jsonNumber(v);
        os << "]";
    }
    if (!samples_.empty())
        os << "\n" << indent << "  ";
    os << "]\n";
    os << indent << "}";
    return os.str();
}

} // namespace lsqscale
