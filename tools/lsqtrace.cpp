/**
 * @file
 * lsqtrace — offline analyzer for binary event traces recorded with
 * `lsqsim --trace-out` (docs/OBSERVABILITY.md). See usage().
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "harness/sink.hh"
#include "metrics/hostprof.hh"
#include "obs/analyzer.hh"
#include "obs/konata.hh"
#include "obs/trace.hh"

namespace {

const char *kUsage =
    "lsqtrace — analyze binary LSQ event traces "
    "(lsqsim --trace-out)\n"
    "\n"
    "usage: lsqtrace <command> <trace.bin> [options]\n"
    "\n"
    "commands:\n"
    "  stalls TRACE          stall-attribution table: cycles lost to\n"
    "                        segment-search pipelining, search squashes,\n"
    "                        store-commit delays, predictor stalls, and\n"
    "                        load-buffer capacity\n"
    "  konata TRACE [OUT]    export Konata/O3PipeView text (stdout when\n"
    "                        OUT is omitted); --check re-parses the\n"
    "                        output and verifies the round trip\n"
    "  dump TRACE            print every record as text\n"
    "                        (--limit N caps the output)\n"
    "  hostprof FILE         render a host wall-clock phase tree from\n"
    "                        a lsqscale-hostprof-v1 JSON file\n"
    "                        (lsqsim --host-profile-json)\n"
    "  --help                this text\n";

int
cmdStalls(const std::string &path)
{
    using namespace lsqscale;
    std::vector<TraceRecord> records = readTraceFile(path);
    StallAttribution att = attributeStalls(records);
    std::fputs(renderStallTable(att).c_str(), stdout);
    return 0;
}

int
cmdKonata(const std::string &path, const std::string &out, bool check)
{
    using namespace lsqscale;
    std::vector<TraceRecord> records = readTraceFile(path);
    std::vector<InstLifecycle> insts = reconstructLifecycles(records);
    std::string text = exportO3PipeView(insts);

    if (check) {
        std::vector<InstLifecycle> parsed;
        std::string err;
        if (!parseO3PipeView(text, parsed, err)) {
            std::fprintf(stderr, "lsqtrace: round-trip failed: %s\n",
                         err.c_str());
            return 1;
        }
        if (parsed.size() != insts.size()) {
            std::fprintf(stderr,
                         "lsqtrace: round-trip lost instructions "
                         "(%zu exported, %zu parsed)\n",
                         insts.size(), parsed.size());
            return 1;
        }
    }

    if (out.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        if (!writeFileCreatingDirs(out, text))
            return 1;
        std::fprintf(stderr, "lsqtrace: wrote %zu instructions to %s\n",
                     insts.size(), out.c_str());
    }
    return 0;
}

int
cmdDump(const std::string &path, std::uint64_t limit)
{
    using namespace lsqscale;
    std::vector<TraceRecord> records = readTraceFile(path);
    std::uint64_t n = 0;
    for (const TraceRecord &rec : records) {
        if (limit > 0 && n++ >= limit) {
            std::printf("... (%zu records total)\n", records.size());
            break;
        }
        std::printf("%s\n", traceRecordToString(rec).c_str());
    }
    return 0;
}

int
cmdHostProf(const std::string &path)
{
    using namespace lsqscale;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        std::fprintf(stderr, "lsqtrace: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::string json;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        json.append(buf, got);
    std::fclose(f);

    HostProfileSnapshot snap;
    std::string error;
    if (!parseHostProfileJson(json, snap, error)) {
        std::fprintf(stderr, "lsqtrace: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::fputs(renderHostProfile(snap).c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty() || args[0] == "--help" || args[0] == "-h") {
        std::fputs(kUsage, stdout);
        return args.empty() ? 2 : 0;
    }

    const std::string &cmd = args[0];
    std::string trace;
    std::string out;
    bool check = false;
    std::uint64_t limit = 0;

    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--check") {
            check = true;
        } else if (a == "--limit") {
            if (i + 1 >= args.size() ||
                !lsqscale::parseDigitsU64(args[++i], limit)) {
                std::fprintf(stderr, "lsqtrace: --limit needs a count\n");
                return 2;
            }
        } else if (trace.empty()) {
            trace = a;
        } else if (out.empty()) {
            out = a;
        } else {
            std::fprintf(stderr, "lsqtrace: stray argument '%s'\n",
                         a.c_str());
            return 2;
        }
    }

    if (trace.empty()) {
        std::fprintf(stderr, "lsqtrace: %s needs a trace file\n",
                     cmd.c_str());
        return 2;
    }

    if (cmd == "stalls")
        return cmdStalls(trace);
    if (cmd == "konata")
        return cmdKonata(trace, out, check);
    if (cmd == "dump")
        return cmdDump(trace, limit);
    if (cmd == "hostprof")
        return cmdHostProf(trace);

    std::fprintf(stderr, "lsqtrace: unknown command '%s' (see --help)\n",
                 cmd.c_str());
    return 2;
}
