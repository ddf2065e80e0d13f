#include "core/interval.hh"

#include "common/logging.hh"
#include "core/core.hh"

namespace lsqscale {

namespace {

/// Counters whose per-interval deltas become columns, in column order.
const std::vector<std::string> &
deltaCounters()
{
    static const std::vector<std::string> names = {
        "sq.searches",
        "lq.searches.byload",
        "lq.searches.bystore",
        "lsq.contention.loads",
        "lsq.commit.delays",
    };
    return names;
}

/// Short column names matching deltaCounters() order.
const std::vector<std::string> &
deltaColumns()
{
    static const std::vector<std::string> names = {
        "sq_searches", "lq_searches_load", "lq_searches_store",
        "contention",  "commit_delays",
    };
    return names;
}

std::vector<std::string>
buildColumns(const Core &core)
{
    std::vector<std::string> cols = {"ipc", "rob", "iq",
                                     "lq",  "sq", "lb"};
    const LsqParams &p = core.lsq().params();
    if (p.segmented()) {
        for (unsigned s = 0; s < p.numSegments; ++s)
            cols.push_back(strfmt("lq_seg%u", s));
        if (!p.combinedQueue) {
            for (unsigned s = 0; s < p.numSegments; ++s)
                cols.push_back(strfmt("sq_seg%u", s));
        }
    }
    for (const std::string &name : deltaColumns())
        cols.push_back(name);
    return cols;
}

} // namespace

IntervalSampler::IntervalSampler(const Core &core, Cycle intervalCycles)
    : core_(core), interval_(intervalCycles),
      series_(buildColumns(core), intervalCycles),
      lastCycle_(core.cycle()), lastCommitted_(core.committed()),
      lastCounters_(deltaCounters().size(), 0)
{
    LSQ_ASSERT(interval_ >= 1, "interval must be at least one cycle");
    for (std::size_t i = 0; i < lastCounters_.size(); ++i)
        lastCounters_[i] = core_.stats().value(deltaCounters()[i]);
}

Cycle
IntervalSampler::cyclesSinceSample() const
{
    return core_.cycle() - lastCycle_;
}

void
IntervalSampler::sample()
{
    Cycle elapsed = cyclesSinceSample();
    if (elapsed == 0)
        return; // nothing ticked since the last snapshot

    std::vector<double> values;
    values.reserve(series_.columns().size());

    std::uint64_t committed = core_.committed();
    values.push_back(static_cast<double>(committed - lastCommitted_) /
                     static_cast<double>(elapsed));
    values.push_back(static_cast<double>(core_.robOccupancy()));
    values.push_back(static_cast<double>(core_.iqOccupancy()));
    const Lsq &lsq = core_.lsq();
    values.push_back(static_cast<double>(lsq.lqLive()));
    values.push_back(static_cast<double>(lsq.sqLive()));
    values.push_back(static_cast<double>(lsq.loadBuffer().size()));

    const LsqParams &p = lsq.params();
    if (p.segmented()) {
        for (unsigned s = 0; s < p.numSegments; ++s)
            values.push_back(
                static_cast<double>(lsq.lqSegmentLive(s)));
        if (!p.combinedQueue) {
            for (unsigned s = 0; s < p.numSegments; ++s)
                values.push_back(
                    static_cast<double>(lsq.sqSegmentLive(s)));
        }
    }

    const std::vector<std::string> &names = deltaCounters();
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::uint64_t v = core_.stats().value(names[i]);
        values.push_back(static_cast<double>(v - lastCounters_[i]));
        lastCounters_[i] = v;
    }

    series_.append(core_.cycle(), std::move(values));
    lastCycle_ = core_.cycle();
    lastCommitted_ = committed;
}

} // namespace lsqscale
