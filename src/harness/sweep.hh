/**
 * @file
 * Sweep: the (design point × benchmark) experiment engine.
 *
 * Expands a grid of NamedConfig rows against a benchmark column list
 * into independent jobs, executes them on a JobPool, and collects
 * SimResults in stable paper order regardless of completion order.
 *
 * Determinism contract (docs/HARNESS.md):
 *  - a job is a pure function of its grid coordinates: the config
 *    factory, benchmark name, and per-job seed derive only from
 *    (row, col), never from shared mutable state or scheduling order;
 *  - therefore a parallel sweep is bit-identical to a serial sweep,
 *    and to the pre-harness serial ExperimentRunner loop.
 *
 * Failure semantics: every cell runs exactly once. A job that throws
 * yields a POISONED cell — a zeroed SimResult plus the error string —
 * and the sweep keeps going. SweepOutcome::exitCode() reports nonzero
 * when any cell is poisoned.
 *
 * Crash semantics (docs/ROBUSTNESS.md): under IsolationMode::Process
 * each cell runs in a forked child, so a SIGSEGV, SIGABRT
 * (LSQ_ASSERT / checker panic), or hang poisons only its own cell —
 * JobStatus::Crashed or TimedOut with signal, exit-status, and
 * stderr-tail provenance — while healthy cells stay bit-identical to
 * thread mode.
 */

#ifndef LSQSCALE_HARNESS_SWEEP_HH
#define LSQSCALE_HARNESS_SWEEP_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace lsqscale {

class ResultSink;

/** A design point: label plus a per-benchmark config factory. */
struct NamedConfig
{
    std::string label;
    /**
     * Benchmark name -> SimConfig. Factories run on worker threads:
     * they must be pure (capture by value, touch no shared mutable
     * state), which every existing bench's stateless lambda already is.
     */
    std::function<SimConfig(const std::string &)> make;
};

/** How a cell ended up. */
enum class JobStatus
{
    Ok,       ///< result is valid
    Failed,   ///< the job threw; cell poisoned
    TimedOut, ///< reaped by the heartbeat watchdog; cell poisoned
    Crashed,  ///< child process died on a signal; cell poisoned
};

/**
 * Where a cell's job runs (docs/ROBUSTNESS.md).
 *
 * Thread mode is the historical in-process path: fastest, but a
 * SIGSEGV, LSQ_ASSERT, or checker panic in any cell takes the whole
 * sweep down. Process mode forks one child per cell: a crash or
 * hang poisons only that cell (JobStatus::Crashed/TimedOut with
 * signal/exit/stderr provenance) and the pool keeps draining. Both
 * modes produce bit-identical results for healthy cells.
 */
enum class IsolationMode
{
    Auto,    ///< resolve via LSQSCALE_ISOLATION > Thread
    Thread,  ///< run the job on the worker thread (historical path)
    Process, ///< fork per cell; crashes poison only their cell
};

/** Knobs for one sweep. */
struct SweepOptions
{
    /**
     * Worker threads. 0 = resolve automatically: LSQSCALE_JOBS, else
     * std::thread::hardware_concurrency(); always capped by the job
     * count (see resolveJobs()).
     */
    unsigned jobs = 0;

    /** Sweep name, used by sinks (e.g. the JSON file header). */
    std::string name = "sweep";

    /** Where jobs run; Auto resolves via resolveIsolation(). */
    IsolationMode isolation = IsolationMode::Auto;

    /**
     * Process mode only: kill a child after this much heartbeat
     * silence and classify the cell TimedOut ("hung"). The heartbeat
     * ticks in simulated cycles, so a slow-but-alive cell survives any
     * budget. 0 disables; LSQSCALE_WATCHDOG_MS overrides (see
     * resolveWatchdog()).
     */
    std::chrono::milliseconds watchdog{30000};
};

/** One grid cell: coordinates, result, and failure provenance. */
struct SweepCell
{
    std::size_t row = 0; ///< config index (paper order)
    std::size_t col = 0; ///< benchmark index (paper order)
    std::string configLabel;
    std::string benchmark;

    SimResult result;    ///< zeroed when poisoned
    JobStatus status = JobStatus::Ok;
    std::string error;   ///< what() of the failure
    std::uint64_t seed = 0; ///< Sweep::jobSeed for this cell
    double seconds = 0.0;   ///< wall time of a healthy cell

    // Process-isolation provenance (zero/empty in thread mode and for
    // healthy cells; see docs/ROBUSTNESS.md).
    int termSignal = 0;      ///< signal that killed the child, if any
    int exitStatus = 0;      ///< nonzero child exit code, if any
    std::string stderrTail;  ///< last ~2KB of the child's stderr

    bool poisoned() const { return status != JobStatus::Ok; }
};

/** Everything a sweep produced, in stable grid order. */
struct SweepOutcome
{
    std::string name;
    /** grid[row][col]: row = config, col = benchmark (paper order). */
    std::vector<std::vector<SweepCell>> grid;
    unsigned jobs = 1;          ///< worker threads actually used
    std::size_t poisonedCells = 0;
    double seconds = 0.0;       ///< sweep wall time
    /** Isolation mode the cells actually ran under (never Auto). */
    IsolationMode isolation = IsolationMode::Thread;

    /** 0 when every cell is healthy, 1 when any cell is poisoned. */
    int exitCode() const { return poisonedCells == 0 ? 0 : 1; }

    /** One-line human summary ("12 cells, 4 jobs, 1 poisoned ..."). */
    std::string summary() const;
};

/**
 * The sweep engine. Construct with the grid, optionally attach sinks
 * and/or swap the job function (tests inject failing jobs), then
 * run() once.
 */
class Sweep
{
  public:
    /**
     * A job: turn a materialized config into a result. Runs on a
     * worker thread (or in a forked child); may throw to poison its
     * cell. Must not touch shared mutable state.
     */
    using JobFn = std::function<SimResult(const SimConfig &)>;

    Sweep(std::vector<NamedConfig> configs,
          std::vector<std::string> benchmarks, SweepOptions opts = {});

    /**
     * Attach a sink (not owned; must outlive run()). Sinks are
     * notified under one engine mutex, so implementations need no
     * locking of their own.
     */
    void addSink(ResultSink *sink);

    /** Replace the job body. Must be set before run(). */
    void setJobFn(JobFn fn);

    /** Execute the whole grid; callable once. */
    SweepOutcome run();

    /**
     * Deterministic per-job seed: splitmix64-folded (base, row, col).
     * Pure — independent of worker count and completion order.
     */
    static std::uint64_t jobSeed(std::uint64_t base, std::size_t row,
                                 std::size_t col);

  private:
    void runCell(SweepOutcome &out, std::size_t r, std::size_t c);
    void notifyStarted(const SweepCell &cell);
    void notifyDone(const SweepCell &cell);

    SimResult runJob(std::size_t r, std::size_t c) const;
    void runCellInChild(SweepCell &cell, std::size_t r, std::size_t c);

    std::vector<NamedConfig> configs_;
    std::vector<std::string> benchmarks_;
    SweepOptions opts_;
    std::vector<ResultSink *> sinks_;
    JobFn jobFn_;
    IsolationMode isolation_ = IsolationMode::Thread;
    bool ran_ = false;
};

/**
 * Resolve the worker-thread count for @p jobCount independent jobs.
 * Precedence: @p requested (SweepOptions::jobs) > the LSQSCALE_JOBS
 * environment variable > std::thread::hardware_concurrency(); the
 * winner is capped by @p jobCount and floored at 1.
 */
unsigned resolveJobs(unsigned requested, std::size_t jobCount);

/**
 * Resolve where cells run. Precedence: @p requested (when not Auto) >
 * the LSQSCALE_ISOLATION environment variable ("thread" / "process")
 * > Thread. Never returns Auto.
 */
IsolationMode resolveIsolation(IsolationMode requested);

/**
 * Resolve the heartbeat-watchdog grace for process-isolated cells:
 * LSQSCALE_WATCHDOG_MS (when set and parseable; 0 disables) wins over
 * @p configured. The env hook exists so CI and operators can tighten
 * or disable hang detection without touching bench code.
 */
std::chrono::milliseconds
resolveWatchdog(std::chrono::milliseconds configured);

} // namespace lsqscale

#endif // LSQSCALE_HARNESS_SWEEP_HH
