#include "harness/sweep.hh"

#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "metrics/hostprof.hh"
#include "harness/job_pool.hh"
#include "harness/proc_runner.hh"
#include "harness/sink.hh"
#include "inject/inject.hh"

namespace lsqscale {

namespace {

/** Seconds between two steady_clock points. */
double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One engine-wide mutex serializes sink callbacks. */
std::mutex &
sinkMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

// ------------------------------------------------------ job count ----

unsigned
resolveJobs(unsigned requested, std::size_t jobCount)
{
    unsigned jobs = requested;
    if (jobs == 0) {
        if (const char *env = std::getenv("LSQSCALE_JOBS")) {
            // Digits-only (common/env.hh): strtoul silently accepted
            // " 5" and "+5" and wrapped negatives into huge counts.
            std::uint64_t v = 0;
            if (parseDigitsU64(env, v) && v > 0 && v <= 0xffffffffu)
                jobs = static_cast<unsigned>(v);
            else if (*env)
                LSQ_WARN("ignoring invalid LSQSCALE_JOBS='%s'", env);
        }
    }
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    if (jobs == 0)
        jobs = 1;
    if (jobCount > 0 && jobs > jobCount)
        jobs = static_cast<unsigned>(jobCount);
    return jobs;
}

// ------------------------------------------------------- isolation ----

IsolationMode
resolveIsolation(IsolationMode requested)
{
    if (requested != IsolationMode::Auto)
        return requested;
    if (const char *env = std::getenv("LSQSCALE_ISOLATION")) {
        if (std::string(env) == "thread")
            return IsolationMode::Thread;
        if (std::string(env) == "process")
            return IsolationMode::Process;
        if (*env)
            LSQ_WARN("ignoring invalid LSQSCALE_ISOLATION='%s' "
                     "(want thread|process)", env);
    }
    return IsolationMode::Thread;
}

std::chrono::milliseconds
resolveWatchdog(std::chrono::milliseconds configured)
{
    if (const char *env = std::getenv("LSQSCALE_WATCHDOG_MS")) {
        // Digits-only (common/env.hh): strtoull wrapped "-1" into an
        // effectively-infinite grace instead of rejecting it.
        std::uint64_t v = 0;
        if (parseDigitsU64(env, v))
            return std::chrono::milliseconds(v);
        if (*env)
            LSQ_WARN("ignoring invalid LSQSCALE_WATCHDOG_MS='%s'", env);
    }
    return configured;
}

// ------------------------------------------------------ SweepOutcome --

std::string
SweepOutcome::summary() const
{
    std::size_t cells = 0;
    for (const auto &row : grid)
        cells += row.size();
    return strfmt("sweep '%s': %zu cell(s), %u job(s), %zu poisoned, "
                  "%.2fs",
                  name.c_str(), cells, jobs, poisonedCells, seconds);
}

// ------------------------------------------------------------ Sweep --

Sweep::Sweep(std::vector<NamedConfig> configs,
             std::vector<std::string> benchmarks, SweepOptions opts)
    : configs_(std::move(configs)), benchmarks_(std::move(benchmarks)),
      opts_(std::move(opts))
{
}

void
Sweep::addSink(ResultSink *sink)
{
    LSQ_ASSERT(sink != nullptr, "Sweep::addSink(null)");
    sinks_.push_back(sink);
}

void
Sweep::setJobFn(JobFn fn)
{
    jobFn_ = std::move(fn);
}

std::uint64_t
Sweep::jobSeed(std::uint64_t base, std::size_t row, std::size_t col)
{
    // Fold each coordinate through the splitmix64 finalizer so nearby
    // grid cells get uncorrelated seeds. Pure in (base, row, col):
    // never influenced by scheduling.
    std::uint64_t s = Rng::mix(base + 0x9e3779b97f4a7c15ULL * (row + 1));
    return Rng::mix(s + 0xbf58476d1ce4e5b9ULL * (col + 1));
}

void
Sweep::notifyStarted(const SweepCell &cell)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    for (ResultSink *s : sinks_)
        s->jobStarted(cell);
}

void
Sweep::notifyDone(const SweepCell &cell)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    for (ResultSink *s : sinks_)
        s->cellDone(cell);
}

SimResult
Sweep::runJob(std::size_t r, std::size_t c) const
{
    SimConfig cfg = [&] {
        ScopedHostPhase prof(HostPhase::SweepCellSetup);
        return configs_[r].make(benchmarks_[c]);
    }();
    return jobFn_(cfg);
}

void
Sweep::runCellInChild(SweepCell &cell, std::size_t r, std::size_t c)
{
    ProcOptions popts;
    popts.watchdog = resolveWatchdog(opts_.watchdog);
    auto start = std::chrono::steady_clock::now();
    ProcOutcome po =
        runCellInProcess([this, r, c] { return runJob(r, c); }, popts);
    auto end = std::chrono::steady_clock::now();

    cell.termSignal = po.termSignal;
    cell.exitStatus = po.exitStatus;
    cell.stderrTail = po.stderrTail;
    cell.error = po.error;
    switch (po.status) {
      case ProcStatus::Ok:
        cell.result = std::move(po.result);
        cell.status = JobStatus::Ok;
        cell.error.clear();
        cell.seconds = secondsBetween(start, end);
        // A healthy child's stderr (warnings and the like) belongs on
        // the parent's stderr, not in the cell: keeping it there would
        // make process-mode sink output diverge from thread mode.
        if (!po.stderrTail.empty())
            logLine(stderr, po.stderrTail);
        cell.stderrTail.clear();
        break;
      case ProcStatus::Failed:
        cell.status = JobStatus::Failed;
        break;
      case ProcStatus::Crashed:
        cell.status = JobStatus::Crashed;
        break;
      case ProcStatus::TimedOut:
        cell.status = JobStatus::TimedOut;
        break;
    }
}

void
Sweep::runCell(SweepOutcome &out, std::size_t r, std::size_t c)
{
    SweepCell &cell = out.grid[r][c];
    notifyStarted(cell);

    if (isolation_ == IsolationMode::Process) {
        // Crash-isolated: the job runs in a forked child; whatever it
        // does — segfault, assert, hang — only this cell pays
        // (docs/ROBUSTNESS.md).
        runCellInChild(cell, r, c);
    } else {
        auto start = std::chrono::steady_clock::now();
        try {
            cell.result = runJob(r, c);
            cell.seconds =
                secondsBetween(start, std::chrono::steady_clock::now());
        } catch (const std::exception &e) {
            cell.status = JobStatus::Failed;
            cell.error = e.what();
        } catch (...) {
            cell.status = JobStatus::Failed;
            cell.error = "unknown exception";
        }
    }

    if (cell.poisoned()) {
        // Graceful degradation: a zeroed result (ipc() == 0) keeps the
        // grid rectangular so tables still render; the status/error
        // carry the provenance.
        cell.result = SimResult{};
        cell.result.benchmark = cell.benchmark;
    }
    notifyDone(cell);
}

SweepOutcome
Sweep::run()
{
    LSQ_ASSERT(!ran_, "Sweep::run() is single-shot");
    LSQ_ASSERT(jobFn_ != nullptr,
               "Sweep::run() without a job function; call setJobFn()");
    ran_ = true;

    const std::size_t rows = configs_.size();
    const std::size_t cols = benchmarks_.size();

    SweepOutcome out;
    out.name = opts_.name;
    out.grid.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        out.grid[r].resize(cols);
        for (std::size_t c = 0; c < cols; ++c) {
            SweepCell &cell = out.grid[r][c];
            cell.row = r;
            cell.col = c;
            cell.configLabel = configs_[r].label;
            cell.benchmark = benchmarks_[c];
            // Base 1 keeps the seeds of every recorded sweep JSON
            // valid.
            cell.seed = jobSeed(1, r, c);
        }
    }
    out.jobs = resolveJobs(opts_.jobs, rows * cols);
    isolation_ = resolveIsolation(opts_.isolation);
    out.isolation = isolation_;
    // LSQSCALE_INJECT normally arms lazily inside Simulator::run —
    // too late for the jobs decision below, so force the env check
    // now (idempotent; a no-op when nothing is set).
    inject::armFromEnv();
    if (inject::faultArmed() && isolation_ == IsolationMode::Thread &&
        out.jobs > 1) {
        // The armed fault's measurement anchor and pending flag are
        // process-global; concurrent thread-mode cells would stomp
        // them and fire the fault in an arbitrary cell at a wrong
        // cycle. Process mode is safe (each child re-arms its own
        // copy), so only thread mode is forced serial.
        LSQ_WARN("an injected fault is armed; running thread-mode "
                 "cells serially (set LSQSCALE_ISOLATION=process for "
                 "parallel fault campaigns)");
        out.jobs = 1;
    }
    {
        std::lock_guard<std::mutex> lock(sinkMutex());
        for (ResultSink *s : sinks_)
            s->sweepBegin(out);
    }

    auto start = std::chrono::steady_clock::now();
    if (out.jobs <= 1 || rows * cols <= 1) {
        // Serial path: same grid order as the historical runner loop.
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cols; ++c)
                runCell(out, r, c);
    } else {
        JobPool pool(out.jobs);
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cols; ++c)
                pool.submit([this, &out, r, c] { runCell(out, r, c); });
        pool.wait();
    }
    out.seconds =
        secondsBetween(start, std::chrono::steady_clock::now());

    for (const auto &row : out.grid)
        for (const auto &cell : row)
            if (cell.poisoned())
                ++out.poisonedCells;

    {
        std::lock_guard<std::mutex> lock(sinkMutex());
        for (ResultSink *s : sinks_)
            s->sweepEnd(out);
    }
    return out;
}

} // namespace lsqscale
