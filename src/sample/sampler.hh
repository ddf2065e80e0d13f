/**
 * @file
 * Interval sampling driver (docs/SAMPLING.md).
 *
 * SMARTS-style systematic sampling: the run alternates functional
 * fast-forward (F instructions), detailed warm-up (W instructions,
 * counters accumulate but cycles are not measured), and a detailed
 * measurement window (D instructions) whose cycle/instruction deltas
 * feed the sampled IPC. After each measurement the pipeline drains so
 * the next fast-forward starts from a quiesced boundary.
 *
 * Reported IPC is the ratio of totals (sum of measured instructions
 * over sum of measured cycles); the per-interval IPCs additionally
 * give a 95% confidence half-width (1.96 * s / sqrt(n)) shown as
 * error bars.
 */
// lsqlint: layer(sim) -- sampling driver interface consumed by sim_config.hh/simulator.hh; includes only rehomed serialize.hh

#ifndef LSQSCALE_SAMPLE_SAMPLER_HH
#define LSQSCALE_SAMPLE_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sample/serialize.hh"

namespace lsqscale {

class Core;

/** One sampling period: fast-forward F, warm W, measure D. */
struct SampleSpec
{
    std::uint64_t ffInsts = 0;      ///< functional instructions
    std::uint64_t warmInsts = 0;    ///< detailed, unmeasured
    std::uint64_t measureInsts = 0; ///< detailed, measured

    bool enabled() const { return measureInsts > 0; }

    // Inline so header-only consumers (the process-isolated result
    // transport in src/harness) need no link against this library.
    void
    saveState(SerialWriter &w) const
    {
        w.u64(ffInsts);
        w.u64(warmInsts);
        w.u64(measureInsts);
    }

    void
    loadState(SerialReader &r)
    {
        ffInsts = r.u64();
        warmInsts = r.u64();
        measureInsts = r.u64();
    }
};

/**
 * Parse "F:W:D" (e.g. "6000:1000:3000") into @p out.
 * @return false on malformed input (not three non-negative integers,
 * or D == 0).
 */
bool parseSampleSpec(const std::string &text, SampleSpec &out);

/** Render a spec back to its "F:W:D" form. */
std::string formatSampleSpec(const SampleSpec &spec);

/** Aggregated result of a sampled run. */
struct SampleSummary
{
    bool enabled = false;
    SampleSpec spec;

    std::uint64_t ffInsts = 0;       ///< fast-forwarded, total
    std::uint64_t warmInsts = 0;     ///< detailed-warmed, total
    std::uint64_t measuredInsts = 0; ///< measured, total
    std::uint64_t measuredCycles = 0;

    /** IPC of each measurement window, in run order. */
    std::vector<double> intervalIpc;

    double ipcMean = 0.0;   ///< mean of per-interval IPCs
    double ipcStddev = 0.0; ///< sample standard deviation
    double ipcErr95 = 0.0;  ///< 1.96 * stddev / sqrt(intervals)

    std::uint64_t intervals() const { return intervalIpc.size(); }

    /** The headline number: ratio-of-totals sampled IPC. */
    double
    sampledIpc() const
    {
        return measuredCycles
                   ? static_cast<double>(measuredInsts) /
                         static_cast<double>(measuredCycles)
                   : 0.0;
    }

    void
    saveState(SerialWriter &w) const
    {
        w.b(enabled);
        spec.saveState(w);
        w.u64(ffInsts);
        w.u64(warmInsts);
        w.u64(measuredInsts);
        w.u64(measuredCycles);
        w.u64(intervalIpc.size());
        for (double v : intervalIpc)
            w.f64(v);
        w.f64(ipcMean);
        w.f64(ipcStddev);
        w.f64(ipcErr95);
    }

    void
    loadState(SerialReader &r)
    {
        enabled = r.b();
        spec.loadState(r);
        ffInsts = r.u64();
        warmInsts = r.u64();
        measuredInsts = r.u64();
        measuredCycles = r.u64();
        intervalIpc.clear();
        std::uint64_t n = r.u64();
        if (n > r.remaining() / 8)
            throw SerialError("sample IPC count exceeds its payload");
        intervalIpc.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
            intervalIpc.push_back(r.f64());
        ipcMean = r.f64();
        ipcStddev = r.f64();
        ipcErr95 = r.f64();
    }
};

/**
 * Drive @p core from its current (quiesced) position until
 * @p totalInsts instructions have committed, alternating per
 * @p spec. Partial trailing periods are truncated to fit.
 */
SampleSummary runSampleLoop(Core &core, const SampleSpec &spec,
                            std::uint64_t totalInsts);

} // namespace lsqscale

#endif // LSQSCALE_SAMPLE_SAMPLER_HH
