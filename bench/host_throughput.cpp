/**
 * @file
 * Host-throughput meter: how fast does the simulator itself run?
 *
 * Times three pinned design points (the paper's base machine, the
 * Figure 12 all-techniques machine, and a 4x28 segmented single-port
 * LSQ) on one benchmark and reports simulated cycles/sec and
 * committed insts/sec of host wall-clock, plus the host-profiler
 * per-phase breakdown (docs/OBSERVABILITY.md) so a regression can be
 * blamed on a specific phase (setup vs warmup vs the run-loop stages)
 * instead of a bare total.
 *
 * Output is a *trajectory*: BENCH_host_throughput.json (schema
 * lsqscale-host-throughput-trajectory-v1) accumulates one timestamped
 * record per run, newest last, capped to the most recent
 * kMaxRecords. A file in the old single-shot
 * lsqscale-host-throughput-v1 schema (or a corrupt file) restarts the
 * trajectory. scripts/check_host_throughput.py validates the document
 * and guards against catastrophic throughput regressions relative to
 * the recorded history. The wall-clock fields are obviously
 * host-dependent; the trajectory documents magnitude and shape, not a
 * portable bound.
 *
 * Writes into LSQSCALE_JSON_DIR, defaulting to the current directory —
 * CI appends to the copy committed at the repo root from here.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "harness/sink.hh"
#include "metrics/hostprof.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

using namespace lsqscale;

namespace {

/** Trajectory length cap: drop the oldest records beyond this. */
constexpr std::size_t kMaxRecords = 50;

struct Point
{
    std::string name;
    SimConfig cfg;
};

struct Measured
{
    std::string name;
    SimResult result;
    double seconds = 0.0;
    HostProfileSnapshot profile;

    double cyclesPerSec() const
    {
        return seconds > 0
                   ? static_cast<double>(result.cycles) / seconds
                   : 0.0;
    }
    double instsPerSec() const
    {
        return seconds > 0
                   ? static_cast<double>(result.committed) / seconds
                   : 0.0;
    }
    double phaseSeconds(HostPhase p) const
    {
        return static_cast<double>(
                   profile.phases[static_cast<std::size_t>(p)].estNs) /
               1e9;
    }
};

Measured
timePoint(const Point &p)
{
    Measured m;
    m.name = p.name;
    // A fresh profiler window per point: the snapshot is this point's
    // phase tree alone, not an accumulation across the bench.
    HostProfiler::instance().reset();
    auto t0 = std::chrono::steady_clock::now();
    m.result = Simulator(p.cfg).run();
    auto t1 = std::chrono::steady_clock::now();
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    m.profile = HostProfiler::instance().snapshot();
    return m;
}

/** One trajectory record, rendered as a single JSON line. */
std::string
renderRecord(std::uint64_t insts, const std::vector<Measured> &points)
{
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char utc[32];
    std::strftime(utc, sizeof(utc), "%Y-%m-%dT%H:%M:%SZ", &tm);

    std::string out = strfmt(
        "{\"timestamp\": %lld, \"utc\": \"%s\", "
        "\"instructions\": %llu, \"points\": [",
        static_cast<long long>(now), utc,
        static_cast<unsigned long long>(insts));
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Measured &m = points[i];
        if (i > 0)
            out += ", ";
        out += strfmt(
            "{\"name\": \"%s\", \"sim_cycles\": %llu, "
            "\"committed\": %llu, \"ipc\": %.4f, "
            "\"wall_seconds\": %.4f, \"sim_cycles_per_sec\": %.0f, "
            "\"sim_insts_per_sec\": %.0f, \"phases\": "
            "{\"setup\": %.4f, \"warmup\": %.4f, \"run\": %.4f, "
            "\"fetch_rename\": %.4f, \"issue_wakeup\": %.4f, "
            "\"lsq_search_forward\": %.4f, \"commit\": %.4f, "
            "\"run_other\": %.4f}}",
            jsonEscape(m.name).c_str(),
            static_cast<unsigned long long>(m.result.cycles),
            static_cast<unsigned long long>(m.result.committed),
            m.result.ipc(), m.seconds, m.cyclesPerSec(),
            m.instsPerSec(), m.phaseSeconds(HostPhase::Setup),
            m.phaseSeconds(HostPhase::Warmup),
            m.phaseSeconds(HostPhase::Run),
            m.phaseSeconds(HostPhase::FetchRename),
            m.phaseSeconds(HostPhase::IssueWakeup),
            m.phaseSeconds(HostPhase::LsqSearch),
            m.phaseSeconds(HostPhase::Commit),
            m.phaseSeconds(HostPhase::RunOther));
    }
    out += "]}";
    return out;
}

/**
 * Load the existing trajectory's record lines (newest last). A
 * missing file, the legacy single-shot schema, or anything malformed
 * restarts the trajectory empty — records are one per line between
 * the "records" open and close brackets, which is exactly what
 * renderTrajectory() below emits.
 */
std::vector<std::string>
loadPriorRecords(const std::string &path)
{
    std::vector<std::string> records;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return records;
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);

    if (text.find("\"lsqscale-host-throughput-trajectory-v1\"") ==
        std::string::npos) {
        std::fprintf(stderr,
                     "host_throughput: %s is not a trajectory "
                     "document; starting a fresh one\n",
                     path.c_str());
        return records;
    }
    std::size_t pos = 0;
    bool inRecords = false;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        std::size_t first = line.find_first_not_of(' ');
        if (first == std::string::npos)
            continue;
        std::string body = line.substr(first);
        if (body.rfind("\"records\":", 0) == 0) {
            inRecords = true;
            continue;
        }
        if (!inRecords)
            continue;
        if (body[0] == ']')
            break;
        if (body.back() == ',')
            body.pop_back();
        if (body.rfind("{\"timestamp\":", 0) == 0)
            records.push_back(body);
    }
    return records;
}

std::string
renderTrajectory(const std::string &benchmark,
                 const std::vector<std::string> &records)
{
    std::string out = "{\n";
    out += "  \"schema\": "
           "\"lsqscale-host-throughput-trajectory-v1\",\n";
    out += "  \"benchmark\": \"" + jsonEscape(benchmark) + "\",\n";
    out += "  \"records\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        out += "    " + records[i];
        out += (i + 1 < records.size()) ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace

int
main()
{
    const std::string benchmark = "gzip";
    std::uint64_t insts = effectiveInstructions(1000000);
    HostProfiler::setEnabled(true);

    std::vector<Point> points;
    {
        SimConfig c = configs::base(benchmark);
        c.instructions = insts;
        points.push_back({"base-2port", c});
    }
    {
        SimConfig c = configs::allTechniques(configs::base(benchmark));
        c.instructions = insts;
        points.push_back({"all-techniques-1port", c});
    }
    {
        SimConfig c = configs::withPorts(
            configs::withSegmentation(configs::base(benchmark), 4, 28,
                                      SegAllocPolicy::SelfCircular),
            1);
        c.instructions = insts;
        points.push_back({"segmented-4x28-1port", c});
    }

    std::vector<Measured> measured;
    measured.reserve(points.size());
    for (const Point &p : points)
        measured.push_back(timePoint(p));

    TextTable t;
    t.header({"design point", "IPC", "wall s", "Mcycles/s", "Minsts/s",
              "warmup s", "run s", "lsq %run"});
    for (const Measured &m : measured) {
        double run = m.phaseSeconds(HostPhase::Run);
        double lsq = m.phaseSeconds(HostPhase::LsqSearch);
        t.row({m.name, TextTable::num(m.result.ipc(), 2),
               TextTable::num(m.seconds, 2),
               TextTable::num(m.cyclesPerSec() / 1e6, 2),
               TextTable::num(m.instsPerSec() / 1e6, 2),
               TextTable::num(m.phaseSeconds(HostPhase::Warmup), 2),
               TextTable::num(run, 2),
               TextTable::num(run > 0 ? 100.0 * lsq / run : 0.0, 1)});
    }
    std::printf("== host throughput: %s, %llu insts ==\n%s",
                benchmark.c_str(),
                static_cast<unsigned long long>(insts),
                t.render().c_str());

    const char *dir = std::getenv("LSQSCALE_JSON_DIR");
    std::string path = std::string(dir && *dir ? dir : ".") +
                       "/BENCH_host_throughput.json";
    std::vector<std::string> records = loadPriorRecords(path);
    records.push_back(renderRecord(insts, measured));
    if (records.size() > kMaxRecords)
        records.erase(records.begin(),
                      records.end() -
                          static_cast<long>(kMaxRecords));
    if (!writeFileCreatingDirs(path,
                               renderTrajectory(benchmark, records)))
        LSQ_FATAL("cannot write %s", path.c_str());
    std::printf("wrote %s (%zu trajectory record(s))\n", path.c_str(),
                records.size());
    return 0;
}
