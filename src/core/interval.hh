/**
 * @file
 * Periodic interval-stats sampling (docs/OBSERVABILITY.md).
 *
 * An IntervalSampler snapshots pipeline and LSQ metrics every N cycles
 * into an IntervalSeries (common/stats.hh), turning end-of-run scalars
 * into per-interval curves: IPC, ROB/IQ/LQ/SQ/load-buffer occupancy,
 * and the search/contention counter deltas the paper's mechanisms turn
 * on. Like the Tracer it is a pure observer — runs with sampling on
 * are timing-bit-identical to runs without.
 *
 * The sampler is polled from Core::run (one branch per cycle when
 * attached, one predicted-null pointer test when not); per-event hook
 * macros cannot drive it because occupancy must be observed on quiet
 * cycles too.
 */

#ifndef LSQSCALE_CORE_INTERVAL_HH
#define LSQSCALE_CORE_INTERVAL_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace lsqscale {

class Core;

/** Samples a Core's observable state every N cycles. */
class IntervalSampler
{
  public:
    /**
     * @param core the core to observe (must outlive the sampler)
     * @param intervalCycles sampling period in cycles (>= 1)
     */
    IntervalSampler(const Core &core, Cycle intervalCycles);

    /**
     * Poll once per cycle *after* Core::tick(); takes a snapshot when
     * a full interval has elapsed since the last one.
     */
    void
    poll()
    {
        if (cyclesSinceSample() >= interval_)
            sample();
    }

    /** Snapshot now, regardless of the period (used at run end). */
    void sample();

    /**
     * First cycle at which poll() would snapshot — Core::run caches
     * this so the per-cycle cost is one compare, not a call.
     */
    Cycle nextSampleAt() const { return lastCycle_ + interval_; }

    /** The accumulated series (move out when the run finishes). */
    const IntervalSeries &series() const { return series_; }
    IntervalSeries takeSeries() { return std::move(series_); }

  private:
    Cycle cyclesSinceSample() const;

    const Core &core_;
    Cycle interval_;
    IntervalSeries series_;

    // Previous-sample counter values, for per-interval deltas.
    Cycle lastCycle_ = 0;
    std::uint64_t lastCommitted_ = 0;
    std::vector<std::uint64_t> lastCounters_;
};

} // namespace lsqscale

#endif // LSQSCALE_CORE_INTERVAL_HH
