#include "harness/sink.hh"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <system_error>

#include <unistd.h>

#include "common/logging.hh"
#include "common/stats.hh"
#include "inject/inject.hh"

namespace lsqscale {

namespace {

std::atomic<void (*)()> g_writeFileTestHook{nullptr};

} // namespace

void
setWriteFileTestHook(void (*hook)())
{
    g_writeFileTestHook.store(hook, std::memory_order_relaxed);
}

bool
writeFileCreatingDirs(const std::string &path, const std::string &data)
{
    // Deterministic I/O fault (--inject io-fail): fail exactly like a
    // full disk would, before any byte lands.
    if (inject::consumeIoFailure()) {
        LSQ_WARN("inject: failing write of %s", path.c_str());
        return false;
    }
    std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
        if (ec) {
            LSQ_WARN("cannot create directory %s: %s",
                     p.parent_path().string().c_str(),
                     ec.message().c_str());
            return false;
        }
    }
    // Write-then-rename for atomicity: readers (and crashes) see the
    // old file or the new one, never a torn half. The temp name is
    // per-process so concurrent sweeps aiming at the same target
    // cannot stomp each other's staging file.
    std::string tmp =
        path + strfmt(".tmp.%ld", static_cast<long>(::getpid()));
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
        LSQ_WARN("cannot write %s", tmp.c_str());
        return false;
    }
    std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
    bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != data.size() || !flushed) {
        LSQ_WARN("short write to %s", tmp.c_str());
        if (std::remove(tmp.c_str()) != 0)
            LSQ_WARN("cannot remove %s", tmp.c_str());
        return false;
    }
    if (void (*hook)() =
            g_writeFileTestHook.load(std::memory_order_relaxed))
        hook();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        LSQ_WARN("cannot rename %s over %s", tmp.c_str(), path.c_str());
        if (std::remove(tmp.c_str()) != 0)
            LSQ_WARN("cannot remove %s", tmp.c_str());
        return false;
    }
    return true;
}

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Failed:
        return "failed";
      case JobStatus::TimedOut:
        return "timeout";
      case JobStatus::Crashed:
        return "crashed";
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt(
                    "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
            else
                out.push_back(c);
        }
    }
    return out;
}

// ----------------------------------------------------- ProgressSink --

void
ProgressSink::jobStarted(const SweepCell &cell)
{
    logLine(stream_, strfmt("[run] %-28s %s", cell.configLabel.c_str(),
                            cell.benchmark.c_str()));
}

void
ProgressSink::cellDone(const SweepCell &cell)
{
    if (!cell.poisoned())
        return;
    logLine(stream_,
            strfmt("[poisoned] %-22s %s: %s: %s",
                   cell.configLabel.c_str(), cell.benchmark.c_str(),
                   jobStatusName(cell.status), cell.error.c_str()));
}

// ----------------------------------------------------- JsonFileSink --

std::string
JsonFileSink::render(const SweepOutcome &outcome,
                     const std::map<std::string, std::string> &metadata)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"lsqscale-sweep-v1\",\n";
    os << "  \"name\": \"" << jsonEscape(outcome.name) << "\",\n";
    os << "  \"jobs\": " << outcome.jobs << ",\n";
    os << "  \"poisoned_cells\": " << outcome.poisonedCells << ",\n";
    os << "  \"wall_seconds\": "
       << strfmt("%.3f", outcome.seconds) << ",\n";

    os << "  \"meta\": {";
    bool first = true;
    for (const auto &kv : metadata) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    \"" << jsonEscape(kv.first) << "\": \""
           << jsonEscape(kv.second) << "\"";
    }
    os << (first ? "},\n" : "\n  },\n");

    os << "  \"configs\": [";
    first = true;
    for (const auto &row : outcome.grid) {
        if (row.empty())
            continue;
        os << (first ? "" : ", ") << "\""
           << jsonEscape(row.front().configLabel) << "\"";
        first = false;
    }
    os << "],\n";

    os << "  \"benchmarks\": [";
    first = true;
    if (!outcome.grid.empty()) {
        for (const auto &cell : outcome.grid.front()) {
            os << (first ? "" : ", ") << "\""
               << jsonEscape(cell.benchmark) << "\"";
            first = false;
        }
    }
    os << "],\n";

    os << "  \"cells\": [";
    first = true;
    for (const auto &row : outcome.grid) {
        for (const auto &cell : row) {
            os << (first ? "\n" : ",\n");
            first = false;
            os << "    {\"config\": \"" << jsonEscape(cell.configLabel)
               << "\", \"benchmark\": \"" << jsonEscape(cell.benchmark)
               << "\", \"row\": " << cell.row
               << ", \"col\": " << cell.col
               << ", \"status\": \"" << jobStatusName(cell.status)
               << "\", \"seed\": " << cell.seed
               << ", \"ipc\": " << jsonNumber(cell.result.ipc(), "%.6f")
               << ", \"cycles\": " << cell.result.cycles
               << ", \"committed\": " << cell.result.committed
               << ", \"sq_searches\": " << cell.result.sqSearches()
               << ", \"lq_searches\": " << cell.result.lqSearches()
               << ", \"seconds\": " << strfmt("%.3f", cell.seconds)
               << ", \"error\": \"" << jsonEscape(cell.error)
               << "\"";
            // Crash provenance appears only on cells that have some:
            // healthy sweeps keep the historical schema byte-for-byte.
            if (cell.termSignal != 0 || cell.exitStatus != 0 ||
                !cell.stderrTail.empty())
                os << ", \"term_signal\": " << cell.termSignal
                   << ", \"exit_status\": " << cell.exitStatus
                   << ", \"stderr_tail\": \""
                   << jsonEscape(cell.stderrTail) << "\"";
            // Per-interval curves (lsqscale-intervals-v1) appear only
            // when the run sampled them, keeping the common case small.
            if (!cell.result.intervals.empty())
                os << ", \"intervals\": "
                   << cell.result.intervals.toJson("    ");
            os << "}";
        }
    }
    os << (first ? "]\n" : "\n  ]\n");
    os << "}\n";
    return os.str();
}

void
JsonFileSink::sweepEnd(const SweepOutcome &outcome)
{
    writeFileCreatingDirs(path_, render(outcome, metadata_));
}

} // namespace lsqscale
