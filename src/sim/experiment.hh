/**
 * @file
 * Experiment harness shared by every bench binary.
 *
 * Runs named configurations across the paper's benchmark list and
 * renders paper-style rows: one row per benchmark plus Int.Avg and
 * Fp.Avg rows (arithmetic means, as in the paper's bar charts).
 */

#ifndef LSQSCALE_SIM_EXPERIMENT_HH
#define LSQSCALE_SIM_EXPERIMENT_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/table.hh"
#include "harness/sweep.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"

namespace lsqscale {

/** Results of one design point across all benchmarks (paper order). */
using ResultRow = std::vector<SimResult>;

/**
 * Experiment runner with progress reporting.
 *
 * Every runAll() executes as one Sweep on the src/harness job engine:
 * cells run concurrently on resolveJobs()-many workers (LSQSCALE_JOBS
 * / hardware_concurrency, capped by cell count) and are collected in
 * stable paper order, so parallel output is bit-identical to serial.
 * A failed cell degrades to a poisoned (zeroed) result and a
 * "[poisoned]" line instead of killing the sweep; runAll() reports
 * how many cells were poisoned so the caller can exit nonzero. A
 * program runs one sweep; setting LSQSCALE_JSON_DIR streams it to
 * "<dir>/BENCH_<program>.json" (docs/HARNESS.md).
 */
class ExperimentRunner
{
  public:
    /**
     * @param benchmarks which benchmarks to run (defaults to all 18).
     *        The LSQSCALE_BENCH env var (comma list) overrides.
     */
    explicit ExperimentRunner(
        std::vector<std::string> benchmarks = allBenchmarks());

    /**
     * Run several design points as one sweep. Order preserved. When
     * @p poisoned is given, it receives the number of poisoned cells.
     */
    std::vector<ResultRow>
    runAll(const std::vector<NamedConfig> &configs,
           std::size_t *poisoned = nullptr) const;

    /**
     * Force the worker count for subsequent runs (0 = resolve from
     * LSQSCALE_JOBS / hardware concurrency).
     */
    void setJobs(unsigned jobs) { jobs_ = jobs; }

    const std::vector<std::string> &benchmarks() const
    {
        return benchmarks_;
    }

    // ------------------------------------------------ aggregation ----
    /** Mean of @p values over the INT benchmarks present. */
    double intAvg(const std::vector<double> &values) const;
    /** Mean of @p values over the FP benchmarks present. */
    double fpAvg(const std::vector<double> &values) const;

    /** speedup[i] = test[i].ipc / base[i].ipc - 1. */
    std::vector<double> speedups(const ResultRow &base,
                                 const ResultRow &test) const;

    /** ratio[i] = fn(test[i]) / fn(base[i]) (0 if base is 0). */
    std::vector<double>
    normalized(const ResultRow &base, const ResultRow &test,
               const std::function<double(const SimResult &)> &fn) const;

    // ------------------------------------------------ rendering ------
    /**
     * Render a table: first column benchmark names, one column per
     * (label, values) pair, plus Int.Avg / Fp.Avg rows. @p asPercent
     * formats values like the paper's speedup axes.
     *
     * When the LSQSCALE_CSV_DIR environment variable is set, the same
     * data is also written to "<dir>/<slug-of-title>.csv" for
     * plotting.
     */
    std::string
    table(const std::string &title,
          const std::vector<std::pair<std::string,
                                      std::vector<double>>> &columns,
          bool asPercent) const;

    /** Raw CSV rendering of the same data (header + one row/bench). */
    std::string
    csv(const std::vector<std::pair<std::string,
                                    std::vector<double>>> &columns)
        const;

  private:
    std::vector<std::string> benchmarks_;
    unsigned jobs_ = 0;
};

/**
 * The canonical simulation job: materialize a Simulator for the config
 * and run it. The config factory's seed is authoritative, so harness
 * runs reproduce the serial results bit-for-bit.
 */
SimResult runSimulationJob(const SimConfig &config);

} // namespace lsqscale

#endif // LSQSCALE_SIM_EXPERIMENT_HH
