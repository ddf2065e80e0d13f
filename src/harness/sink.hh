/**
 * @file
 * Pluggable result sinks for the sweep engine.
 *
 * A ResultSink observes a sweep: once at the start (grid shape and
 * worker count fixed), once per job start and per finished cell in
 * COMPLETION order, and once at the end with the full grid in STABLE
 * paper order. The engine serializes every callback under one mutex,
 * so sinks need no locking; sinks that care about stable ordering
 * (files, tables) should emit from sweepEnd().
 */

#ifndef LSQSCALE_HARNESS_SINK_HH
#define LSQSCALE_HARNESS_SINK_HH

#include <cstdio>
#include <map>
#include <string>

#include "harness/sweep.hh"

namespace lsqscale {

/** Sweep observer interface. All hooks optional. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Grid allocated, no job has run yet. */
    virtual void sweepBegin(const SweepOutcome & /* planned */) {}

    /** A cell is about to run (completion order). */
    virtual void jobStarted(const SweepCell & /* cell */) {}

    /** A cell finished, possibly poisoned (completion order). */
    virtual void cellDone(const SweepCell & /* cell */) {}

    /** Whole grid done, stable order, poison counts final. */
    virtual void sweepEnd(const SweepOutcome & /* outcome */) {}
};

/**
 * Human progress lines, the historical "[run] <config> <bench>"
 * format, written atomically through common/logging's logLine() so
 * concurrent workers never interleave partial lines. Poisoned cells
 * get a "[poisoned]" line with the error.
 */
class ProgressSink : public ResultSink
{
  public:
    explicit ProgressSink(std::FILE *stream = stderr)
        : stream_(stream)
    {
    }

    void jobStarted(const SweepCell &cell) override;
    void cellDone(const SweepCell &cell) override;

  private:
    std::FILE *stream_;
};

/**
 * Machine-readable sweep trajectory: schema "lsqscale-sweep-v1", one
 * JSON object per sweep with run metadata (jobs, wall time, poison
 * count, caller-supplied key/values) and one record per cell (config,
 * benchmark, status, seed, ipc, cycles, committed,
 * sq/lq searches, error). See docs/HARNESS.md for the full schema.
 */
class JsonFileSink : public ResultSink
{
  public:
    JsonFileSink(std::string path,
                 std::map<std::string, std::string> metadata = {})
        : path_(std::move(path)), metadata_(std::move(metadata))
    {
    }

    void sweepEnd(const SweepOutcome &outcome) override;

    /** The rendered JSON document. */
    static std::string
    render(const SweepOutcome &outcome,
           const std::map<std::string, std::string> &metadata);

  private:
    std::string path_;
    std::map<std::string, std::string> metadata_;
};

/** Escape a string for embedding in a JSON double-quoted literal. */
std::string jsonEscape(const std::string &s);

/**
 * Write @p data to @p path, creating missing parent directories first
 * (so e.g. a fresh LSQSCALE_JSON_DIR works without a manual mkdir).
 *
 * The write is ATOMIC: data lands in a same-directory temp file which
 * is rename(2)d over @p path, so a crash — even a SIGKILL — mid-write
 * leaves either the old file or the new one, never a torn half
 * (docs/ROBUSTNESS.md). An armed io-fail injection
 * (inject::consumeIoFailure) makes the next call fail cleanly.
 *
 * @return true on success; failures warn via logLine and return false.
 */
bool writeFileCreatingDirs(const std::string &path,
                           const std::string &data);

/**
 * Test hook, called between writing the temp file and renaming it
 * over the target (nullptr clears). Crash-durability tests install a
 * hook that kills the process here to prove the target never tears.
 */
void setWriteFileTestHook(void (*hook)());

/**
 * JobStatus as a stable lowercase token
 * ("ok"/"failed"/"timeout"/"crashed").
 */
const char *jobStatusName(JobStatus status);

} // namespace lsqscale

#endif // LSQSCALE_HARNESS_SINK_HH
