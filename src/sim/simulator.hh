/**
 * @file
 * Top-level simulation driver: builds a Core from a SimConfig, runs
 * warm-up plus measurement, and returns the stats the experiments
 * consume.
 */

#ifndef LSQSCALE_SIM_SIMULATOR_HH
#define LSQSCALE_SIM_SIMULATOR_HH

#include <cstdint>
#include <string>

#include "common/serialize.hh"
#include "common/stats.hh"
#include "sim/sim_config.hh"

namespace lsqscale {

struct BenchmarkProfile;

/** Everything measured over the measurement window. */
struct SimResult
{
    std::string benchmark;
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    StatSet stats;
    /** Per-interval curves; empty unless interval sampling was on. */
    IntervalSeries intervals;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committed) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** SQ forwarding-search initiations. */
    std::uint64_t sqSearches() const { return stats.value("sq.searches"); }

    /** LQ search initiations (loads + stores). */
    std::uint64_t
    lqSearches() const
    {
        return stats.value("lq.searches.byload") +
               stats.value("lq.searches.bystore");
    }

    /**
     * Serialize the complete result, bit-exactly: the process-isolated
     * sweep path ships every cell's result through a pipe, and it must
     * reproduce thread-mode output byte-for-byte (docs/ROBUSTNESS.md). Inline so the harness, which
     * only links lsqscale_common, can use it header-only.
     */
    void
    saveState(SerialWriter &w) const
    {
        w.str(benchmark);
        w.u64(cycles);
        w.u64(committed);
        stats.saveState(w);
        intervals.saveState(w);
    }

    void
    loadState(SerialReader &r)
    {
        benchmark = r.str();
        cycles = r.u64();
        committed = r.u64();
        stats.loadState(r);
        intervals.loadState(r);
    }
};

/** Runs one configuration on one benchmark. */
class Simulator
{
  public:
    explicit Simulator(SimConfig config) : config_(std::move(config)) {}

    /** Execute warm-up + measurement; deterministic per config. */
    SimResult run();

    const SimConfig &config() const { return config_; }

  private:
    SimConfig config_;
};

/**
 * Instruction-count override for quick runs: if the environment
 * variable LSQSCALE_INSTS is set, both tests and benches scale their
 * measurement windows to it.
 */
std::uint64_t effectiveInstructions(std::uint64_t configured);

/**
 * Bring the cache hierarchy to an approximation of steady state: the
 * paper fast-forwards 3 billion instructions before measuring, so the
 * stream arrays, the hot pointer-chase subset, the stack window, and
 * the code footprint are all resident in whatever level fits them.
 * Simulator::run skips it when it restores a checkpoint, whose MEM
 * section replaces all cache state.
 */
void prewarmCaches(MemorySystem &mem, const BenchmarkProfile &profile);

} // namespace lsqscale

#endif // LSQSCALE_SIM_SIMULATOR_HH
