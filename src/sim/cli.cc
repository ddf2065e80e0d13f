// lsqlint: layer(harness) -- lsqsim command-line implementation; writes files through harness/sink
#include "sim/cli.hh"

#include <cstdio>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "harness/sink.hh"
#include "inject/inject.hh"
#include "metrics/hostprof.hh"
#include "obs/trace.hh"
#include "sample/serialize.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"
#include "workload/trace_file.hh"

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
        "  --trace PATH         replay a recorded .trace file\n"
        "  --insts N            measured instructions (default 500000)\n"
        "  --warmup N           warm-up instructions (default 50000)\n"
        "  --seed N             workload seed (default 1)\n"
        "  --record PATH        record the synthetic trace to PATH and "
        "exit\n"
        "  --record-insts N     trace length for --record "
        "(default 1000000)\n"
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
        "observability (docs/OBSERVABILITY.md; --trace replays, these "
        "record):\n"
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
        "sampling / checkpoints (docs/SAMPLING.md):\n"
        "  --sample F:W:D       sampled run: per period fast-forward F,\n"
        "                       warm W, measure D instructions\n"
        "                       (LSQSCALE_SAMPLE does the same globally)\n"
        "  --ff N               functionally fast-forward N instructions\n"
        "                       before measuring (skips --warmup)\n"
        "  --save-ckpt PATH     write an lsqscale-ckpt-v1 checkpoint\n"
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
        } else if (a == "--trace") {
            if (!value(v))
                return "--trace needs a path";
            opts.config.tracePath = v;
        } else if (a == "--record") {
            if (!value(v))
                return "--record needs a path";
            opts.recordPath = v;
        } else if (a == "--record-insts") {
            if (!value(v) || !parseDigitsU64(v, opts.recordCount) ||
                opts.recordCount == 0)
                return "--record-insts needs a positive count";
        } else if (a == "--insts") {
            if (!value(v) || !parseDigitsU64(v, opts.config.instructions) ||
                opts.config.instructions == 0)
                return "--insts needs a positive count";
        } else if (a == "--warmup") {
            if (!value(v) || !parseDigitsU64(v, opts.config.warmup))
                return "--warmup needs a count";
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
        } else if (a == "--sample") {
            if (!value(v) || !parseSampleSpec(v, opts.config.sample))
                return "--sample needs F:W:D (non-negative integers, "
                       "D > 0)";
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
resultToJson(const SimResult &result, const SimConfig &config)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"benchmark\": \"" << result.benchmark << "\",\n";
    os << "  \"trace\": \"" << config.tracePath << "\",\n";
    os << "  \"cycles\": " << result.cycles << ",\n";
    os << "  \"committed\": " << result.committed << ",\n";
    // jsonNumber keeps finite values byte-identical to the historical
    // %.6f rendering and maps NaN/Inf to null (valid JSON always).
    os << "  \"ipc\": " << jsonNumber(result.ipc(), "%.6f") << ",\n";
    os << "  \"sq_searches\": " << result.sqSearches() << ",\n";
    os << "  \"lq_searches\": " << result.lqSearches() << ",\n";
    if (result.sampling.enabled) {
        // Only sampled runs carry this block, so plain-run JSON stays
        // byte-stable for golden/trace-smoke comparisons.
        const SampleSummary &s = result.sampling;
        os << "  \"sampling\": {\n";
        os << "    \"spec\": \"" << formatSampleSpec(s.spec)
           << "\",\n";
        os << "    \"intervals\": " << s.intervals() << ",\n";
        os << "    \"ff_insts\": " << s.ffInsts << ",\n";
        os << "    \"warm_insts\": " << s.warmInsts << ",\n";
        os << "    \"measured_insts\": " << s.measuredInsts << ",\n";
        os << "    \"measured_cycles\": " << s.measuredCycles << ",\n";
        os << "    \"ipc_mean\": " << jsonNumber(s.ipcMean, "%.6f")
           << ",\n";
        // A single-interval sample has no variance: stddev/err95 are
        // NaN and must serialize as null, never as a bare NaN token.
        os << "    \"ipc_stddev\": " << jsonNumber(s.ipcStddev, "%.6f")
           << ",\n";
        os << "    \"ipc_err95\": " << jsonNumber(s.ipcErr95, "%.6f")
           << "\n";
        os << "  },\n";
    }
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
    if (!opts.recordPath.empty()) {
        recordSyntheticTrace(opts.config.benchmark, opts.config.seed,
                             opts.recordCount, opts.recordPath);
        std::printf("recorded %llu instructions of %s to %s\n",
                    static_cast<unsigned long long>(opts.recordCount),
                    opts.config.benchmark.c_str(),
                    opts.recordPath.c_str());
        return 0;
    }

    bool hostProfile = opts.hostProfile ||
                       !opts.hostProfileJsonPath.empty() ||
                       envU64("LSQSCALE_HOST_PROFILE", 0) != 0;
    if (hostProfile)
        HostProfiler::setEnabled(true);

    Simulator sim(opts.config);
    SimResult result;
    try {
        result = sim.run();
    } catch (const SerialError &err) {
        std::fprintf(stderr, "lsqsim: %s\n", err.what());
        return 1;
    }

    if (!opts.config.saveCkptPath.empty()) {
        std::printf("saved checkpoint %s (%s, %llu instructions)\n",
                    opts.config.saveCkptPath.c_str(),
                    opts.config.benchmark.c_str(),
                    static_cast<unsigned long long>(
                        opts.config.ffInsts));
        return 0;
    }

    {
    ScopedHostPhase profReport(HostPhase::Report);
    if (opts.jsonOutput) {
        std::fputs(resultToJson(result, opts.config).c_str(), stdout);
    } else {
        std::printf("benchmark   %s\n", result.benchmark.c_str());
        if (!opts.config.tracePath.empty())
            std::printf("trace       %s\n",
                        opts.config.tracePath.c_str());
        std::printf("committed   %llu\n",
                    static_cast<unsigned long long>(result.committed));
        std::printf("cycles      %llu\n",
                    static_cast<unsigned long long>(result.cycles));
        std::printf("IPC         %.3f\n", result.ipc());
        if (result.sampling.enabled) {
            const SampleSummary &s = result.sampling;
            std::printf("sampled     %s: %llu intervals, "
                        "IPC %.3f +/- %.3f (95%%), ff %llu insts\n",
                        formatSampleSpec(s.spec).c_str(),
                        static_cast<unsigned long long>(s.intervals()),
                        s.ipcMean, s.ipcErr95,
                        static_cast<unsigned long long>(s.ffInsts));
        }
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
