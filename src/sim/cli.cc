#include "sim/cli.hh"

#include <cstdio>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "harness/sink.hh"
#include "inject/inject.hh"
#include "metrics/hostprof.hh"
#include "obs/trace.hh"
#include "sample/checkpoint.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"

namespace lsqscale {

namespace {

bool
parseUnsigned(const std::string &s, unsigned &out)
{
    std::uint64_t v;
    if (!parseDigitsU64(s, v) || v > 0xffffffffu)
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

} // namespace

std::string
cliUsage()
{
    return
        "lsqsim — LSQ-scaling simulator "
        "(Park/Ooi/Vijaykumar, MICRO-36 2003)\n"
        "\n"
        "usage: lsqsim [options]\n"
        "\n"
        "workload:\n"
        "  --benchmark NAME     synthetic SPEC2K-like workload "
        "(default bzip)\n"
        "  --insts N            measured instructions (default 500000)\n"
        "  --warmup N           warm-up instructions (default 50000;\n"
        "                       at most a quarter of --insts)\n"
        "  --seed N             workload seed (default 1)\n"
        "  --list-benchmarks    print the 18 built-in profiles and "
        "exit\n"
        "\n"
        "LSQ design point:\n"
        "  --ports N            search ports per queue (default 2)\n"
        "  --lq N / --sq N      queue entries (per segment when "
        "segmented)\n"
        "  --segments N         segment count (default 1 = flat)\n"
        "  --combined           one shared load/store queue "
        "(Figure 5)\n"
        "  --alloc POLICY       self-circular | no-self-circular\n"
        "  --predictor KIND     conventional | perfect | aggressive | "
        "pair\n"
        "  --load-buffer N      N-entry load buffer (0 = in-order "
        "loads)\n"
        "  --in-order-search    in-order loads that still search the "
        "LQ\n"
        "  --all-techniques     pair + 2-entry buffer + 4x28 "
        "self-circular, 1 port\n"
        "  --scaled             12-wide issue, 96-entry IQ, 3-cycle L1\n"
        "\n"
        "robustness (docs/ROBUSTNESS.md):\n"
        "  --inject K:S:C       arm deterministic fault kind K with\n"
        "                       seed S at measured cycle C; kinds:\n"
        "                       crash, abort, hang, corrupt-lsq,\n"
        "                       corrupt-pred, io-fail (also\n"
        "                       LSQSCALE_INJECT)\n"
        "\n"
        "observability (docs/OBSERVABILITY.md):\n"
        "  --trace-events LIST  record events: comma list of names or\n"
        "                       categories (pipe,lsq,pred,squash,all)\n"
        "  --trace-out PATH     write the full binary event trace\n"
        "  --trace-konata PATH  export Konata/O3PipeView text\n"
        "  --probe-rate R       attach an external coherence agent that\n"
        "                       delivers ~R invalidation probes per\n"
        "                       kilocycle to recently loaded lines\n"
        "                       (docs/CONSISTENCY.md)\n"
        "  --probe-seed S       probe schedule seed (default 1)\n"
        "  --probe-watch N      probe agent watch-set capacity\n"
        "  --interval-stats N   sample interval metrics every N cycles\n"
        "  --interval-json PATH write the lsqscale-intervals-v1 series\n"
        "  --host-profile       report host wall-clock phases (where\n"
        "                       the host milliseconds went) to stderr\n"
        "                       (also LSQSCALE_HOST_PROFILE=1)\n"
        "  --host-profile-json PATH\n"
        "                       write the lsqscale-hostprof-v1 tree\n"
        "                       (render it with `lsqtrace hostprof`)\n"
        "\n"
        "fast-forward / checkpoints (docs/SAMPLING.md):\n"
        "  --ff N               functionally fast-forward N instructions\n"
        "                       before measuring (skips --warmup)\n"
        "  --save-ckpt PATH     write an lsqscale-ckpt-v4 checkpoint\n"
        "                       (after --ff) and exit without measuring\n"
        "  --load-ckpt PATH     resume from a checkpoint (skips "
        "--warmup)\n"
        "\n"
        "output:\n"
        "  --json               machine-readable result\n"
        "  --dump-stats         print every counter\n"
        "  --help               this text\n";
}

std::string
parseCli(const std::vector<std::string> &args, CliOptions &opts)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&](std::string &out) -> bool {
            if (i + 1 >= args.size())
                return false;
            out = args[++i];
            return true;
        };
        std::string v;

        if (a == "--help" || a == "-h") {
            opts.showHelp = true;
        } else if (a == "--list-benchmarks") {
            opts.listBenchmarks = true;
        } else if (a == "--json") {
            opts.jsonOutput = true;
        } else if (a == "--dump-stats") {
            opts.dumpStats = true;
        } else if (a == "--benchmark") {
            if (!value(v))
                return "--benchmark needs a name";
            if (!profileExists(v))
                return "unknown benchmark '" + v +
                       "' (see --list-benchmarks)";
            opts.config.benchmark = v;
        } else if (a == "--insts") {
            if (!value(v) || !parseDigitsU64(v, opts.config.instructions) ||
                opts.config.instructions == 0)
                return "--insts needs a positive count";
        } else if (a == "--warmup") {
            if (!value(v) || !parseDigitsU64(v, opts.config.warmup))
                return "--warmup needs a count";
            opts.warmupGiven = true;
        } else if (a == "--seed") {
            if (!value(v) || !parseDigitsU64(v, opts.config.seed))
                return "--seed needs a number";
        } else if (a == "--ports") {
            if (!value(v) ||
                !parseUnsigned(v, opts.config.lsq.searchPorts) ||
                opts.config.lsq.searchPorts == 0)
                return "--ports needs a positive count";
        } else if (a == "--lq") {
            if (!value(v) ||
                !parseUnsigned(v, opts.config.lsq.lqEntries) ||
                opts.config.lsq.lqEntries == 0)
                return "--lq needs a positive count";
        } else if (a == "--sq") {
            if (!value(v) ||
                !parseUnsigned(v, opts.config.lsq.sqEntries) ||
                opts.config.lsq.sqEntries == 0)
                return "--sq needs a positive count";
        } else if (a == "--segments") {
            if (!value(v) ||
                !parseUnsigned(v, opts.config.lsq.numSegments) ||
                opts.config.lsq.numSegments == 0)
                return "--segments needs a positive count";
        } else if (a == "--combined") {
            opts.config.lsq.combinedQueue = true;
        } else if (a == "--alloc") {
            if (!value(v))
                return "--alloc needs a policy";
            if (v == "self-circular")
                opts.config.lsq.allocPolicy =
                    SegAllocPolicy::SelfCircular;
            else if (v == "no-self-circular")
                opts.config.lsq.allocPolicy =
                    SegAllocPolicy::NoSelfCircular;
            else
                return "unknown allocation policy '" + v + "'";
        } else if (a == "--predictor") {
            if (!value(v))
                return "--predictor needs a kind";
            if (v == "conventional") {
                opts.config.lsq.sqPolicy = SqSearchPolicy::Always;
                opts.config.lsq.checkViolationsAtCommit = false;
                opts.config.core.storeSet.aliasFree = false;
            } else if (v == "perfect") {
                opts.config.lsq.sqPolicy = SqSearchPolicy::Perfect;
            } else if (v == "pair") {
                opts.config.lsq.sqPolicy = SqSearchPolicy::Pair;
                opts.config.lsq.checkViolationsAtCommit = true;
            } else if (v == "aggressive") {
                opts.config.lsq.sqPolicy = SqSearchPolicy::Pair;
                opts.config.lsq.checkViolationsAtCommit = true;
                opts.config.core.storeSet.aliasFree = true;
            } else {
                return "unknown predictor '" + v + "'";
            }
        } else if (a == "--load-buffer") {
            unsigned n;
            if (!value(v) || !parseUnsigned(v, n))
                return "--load-buffer needs a count";
            opts.config.lsq.loadCheck =
                n == 0 ? LoadCheckPolicy::InOrder
                       : LoadCheckPolicy::LoadBuffer;
            opts.config.lsq.loadBufferEntries = n;
        } else if (a == "--in-order-search") {
            opts.config.lsq.loadCheck =
                LoadCheckPolicy::InOrderAlwaysSearch;
        } else if (a == "--all-techniques") {
            opts.config = configs::allTechniques(opts.config);
        } else if (a == "--scaled") {
            opts.config = configs::scaledProcessor(opts.config);
        } else if (a == "--inject") {
            if (!value(v))
                return "--inject needs kind:seed:cycle";
            inject::FaultSpec spec;
            if (!inject::parseFaultSpec(v, spec))
                return "malformed --inject '" + v +
                       "' (want kind:seed:cycle; kinds: crash, abort, "
                       "hang, corrupt-lsq, corrupt-pred, io-fail)";
            opts.inject = v;
        } else if (a == "--trace-events") {
            if (!value(v))
                return "--trace-events needs a comma-separated list";
            std::string err;
            if (!parseTraceEvents(v, opts.config.trace.eventMask, err))
                return err;
            opts.config.trace.enabled = true;
        } else if (a == "--trace-out") {
            if (!value(v))
                return "--trace-out needs a path";
            opts.config.trace.binaryPath = v;
            opts.config.trace.enabled = true;
        } else if (a == "--trace-konata") {
            if (!value(v))
                return "--trace-konata needs a path";
            opts.config.trace.konataPath = v;
            opts.config.trace.enabled = true;
        } else if (a == "--probe-rate") {
            if (!value(v))
                return "--probe-rate needs probes per kilocycle";
            char *end = nullptr;
            opts.config.probes.probesPerKCycle =
                std::strtod(v.c_str(), &end);
            if (!end || *end != '\0' ||
                opts.config.probes.probesPerKCycle < 0)
                return "--probe-rate needs probes per kilocycle";
            opts.config.probes.enabled = true;
        } else if (a == "--probe-seed") {
            if (!value(v) || !parseDigitsU64(v, opts.config.probes.seed))
                return "--probe-seed needs an integer seed";
        } else if (a == "--probe-watch") {
            if (!value(v) ||
                !parseUnsigned(v, opts.config.probes.watchCapacity) ||
                opts.config.probes.watchCapacity == 0)
                return "--probe-watch needs a positive line count";
        } else if (a == "--interval-stats") {
            if (!value(v) ||
                !parseDigitsU64(v, opts.config.intervalCycles) ||
                opts.config.intervalCycles == 0)
                return "--interval-stats needs a positive cycle count";
        } else if (a == "--interval-json") {
            if (!value(v))
                return "--interval-json needs a path";
            opts.config.intervalJsonPath = v;
            if (opts.config.intervalCycles == 0)
                opts.config.intervalCycles = 10000;
        } else if (a == "--host-profile") {
            opts.hostProfile = true;
        } else if (a == "--host-profile-json") {
            if (!value(v))
                return "--host-profile-json needs a path";
            opts.hostProfileJsonPath = v;
        } else if (a == "--ff") {
            if (!value(v) || !parseDigitsU64(v, opts.config.ffInsts) ||
                opts.config.ffInsts == 0)
                return "--ff needs a positive instruction count";
        } else if (a == "--save-ckpt") {
            if (!value(v))
                return "--save-ckpt needs a path";
            opts.config.saveCkptPath = v;
        } else if (a == "--load-ckpt") {
            if (!value(v))
                return "--load-ckpt needs a path";
            opts.config.loadCkptPath = v;
        } else {
            return "unknown option '" + a + "' (see --help)";
        }
    }
    return "";
}

std::string
resultToJson(const SimResult &result)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"benchmark\": \"" << result.benchmark << "\",\n";
    os << "  \"cycles\": " << result.cycles << ",\n";
    os << "  \"committed\": " << result.committed << ",\n";
    // jsonNumber keeps finite values byte-identical to the historical
    // %.6f rendering and maps NaN/Inf to null (valid JSON always).
    os << "  \"ipc\": " << jsonNumber(result.ipc(), "%.6f") << ",\n";
    os << "  \"sq_searches\": " << result.sqSearches() << ",\n";
    os << "  \"lq_searches\": " << result.lqSearches() << ",\n";
    os << "  \"counters\": {";
    bool first = true;
    for (const auto &name : result.stats.counterNames()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    \"" << name << "\": "
           << result.stats.value(name);
    }
    os << "\n  }\n}\n";
    return os.str();
}

std::string
warmupCapWarning(const CliOptions &opts)
{
    const SimConfig &c = opts.config;
    // A fast-forward or a restore skips the warm-up.
    if (!opts.warmupGiven || c.ffInsts > 0 || !c.loadCkptPath.empty() ||
        !c.saveCkptPath.empty())
        return "";
    std::uint64_t measured = effectiveInstructions(c.instructions);
    if (c.warmup <= measured / 4)
        return "";
    return strfmt("--warmup %llu exceeds a quarter of the %llu measured "
                  "instructions; warming up for %llu instructions",
                  static_cast<unsigned long long>(c.warmup),
                  static_cast<unsigned long long>(measured),
                  static_cast<unsigned long long>(measured / 4));
}

int
runCli(const CliOptions &opts)
{
    if (!opts.inject.empty()) {
        // parseCli validated the spec; arm it explicitly so --inject
        // beats LSQSCALE_INJECT (armFromEnv is a no-op once armed).
        inject::FaultSpec spec;
        if (inject::parseFaultSpec(opts.inject, spec))
            inject::armFault(spec);
    }
    if (opts.showHelp) {
        std::fputs(cliUsage().c_str(), stdout);
        return 0;
    }
    if (opts.listBenchmarks) {
        for (const auto &name : allBenchmarks()) {
            const BenchmarkProfile &p = profileFor(name);
            std::printf("%-10s %s  (paper base IPC %.1f)\n",
                        name.c_str(), p.isFp ? "FP " : "INT",
                        p.paperBaseIpc);
        }
        return 0;
    }

    bool hostProfile = opts.hostProfile ||
                       !opts.hostProfileJsonPath.empty() ||
                       envU64("LSQSCALE_HOST_PROFILE", 0) != 0;
    if (hostProfile)
        HostProfiler::setEnabled(true);

    if (std::string warn = warmupCapWarning(opts); !warn.empty())
        std::fprintf(stderr, "lsqsim: warning: %s\n", warn.c_str());

    Simulator sim(opts.config);
    SimResult result;
    CheckpointMeta saved;
    try {
        result = sim.run();
        // Report what the file holds: a restored run's count carries
        // on from its checkpoint, so --ff alone would understate it.
        if (!opts.config.saveCkptPath.empty())
            saved = inspectCheckpoint(opts.config.saveCkptPath).meta;
    } catch (const SerialError &err) {
        std::fprintf(stderr, "lsqsim: %s\n", err.what());
        return 1;
    }

    if (!opts.config.saveCkptPath.empty()) {
        std::printf("saved checkpoint %s (%s, %llu instructions)\n",
                    opts.config.saveCkptPath.c_str(),
                    saved.benchmark.c_str(),
                    static_cast<unsigned long long>(saved.instCount));
        return 0;
    }

    {
    ScopedHostPhase profReport(HostPhase::Report);
    if (opts.jsonOutput) {
        std::fputs(resultToJson(result).c_str(), stdout);
    } else {
        std::printf("benchmark   %s\n", result.benchmark.c_str());
        std::printf("committed   %llu\n",
                    static_cast<unsigned long long>(result.committed));
        std::printf("cycles      %llu\n",
                    static_cast<unsigned long long>(result.cycles));
        std::printf("IPC         %.3f\n", result.ipc());
        std::printf("SQ searches %llu\n",
                    static_cast<unsigned long long>(
                        result.sqSearches()));
        std::printf("LQ searches %llu\n",
                    static_cast<unsigned long long>(
                        result.lqSearches()));
        std::printf("squashes    %llu\n",
                    static_cast<unsigned long long>(
                        result.stats.value("squash.total")));
    }
    if (opts.dumpStats)
        std::fputs(result.stats.dump().c_str(), stdout);
    } // profReport

    // Host-profile exposition: stderr and side files only, never the
    // --json stdout document (profiled runs must stay bit-identical
    // to plain ones — the metrics-smoke CI flavor diffs them).
    if (hostProfile) {
        HostProfileSnapshot prof = HostProfiler::instance().snapshot();
        if (opts.hostProfile ||
            envU64("LSQSCALE_HOST_PROFILE", 0) != 0)
            std::fputs(renderHostProfile(prof).c_str(), stderr);
        if (!opts.hostProfileJsonPath.empty())
            writeFileCreatingDirs(opts.hostProfileJsonPath,
                                  hostProfileToJson(prof) + "\n");
    }
    return 0;
}

} // namespace lsqscale
