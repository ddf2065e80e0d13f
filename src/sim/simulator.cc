#include "sim/simulator.hh"

#include <cstdlib>

#include <memory>

#include "check/lsq_checker.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "inject/inject.hh"
#include "metrics/hostprof.hh"
// Uses writeFileCreatingDirs only (trace-path plumbing); no
// dependency on the harness job engine.
// lsqlint: allow(layer-upward-include) -- results plumbing only
#include "harness/sink.hh"
#include "memory/probe_agent.hh"
#include "obs/interval.hh"
#include "obs/konata.hh"
#include "obs/trace.hh"
#include "sample/checkpoint.hh"
#include "sample/sampler.hh"
#include "workload/address_stream.hh"
#include "workload/benchmark_profile.hh"
#include "workload/trace_file.hh"

namespace lsqscale {

void
prewarmCaches(MemorySystem &mem, const BenchmarkProfile &profile)
{
    unsigned blk = mem.params().l1d.blockBytes;
    for (const auto &e : AddressStream::streamLayout(profile))
        for (Addr a = e.base; a < e.base + e.size; a += blk)
            mem.accessData(0, a, false);
    Addr hot = AddressStream::chaseHotBytes(profile);
    for (Addr a = kChaseBase; a < kChaseBase + hot; a += blk)
        mem.accessData(0, a, false);
    // The hot stack window plus drift room.
    for (Addr a = kStackBase; a < kStackBase + (1ULL << 17); a += blk)
        mem.accessData(0, a, false);
    Addr codeBytes = static_cast<Addr>(profile.codeFootprintKb) * 1024;
    unsigned iblk = mem.params().l1i.blockBytes;
    for (Addr a = kCodeBase; a < kCodeBase + codeBytes; a += iblk)
        mem.accessInst(0, a);
}

std::uint64_t
effectiveInstructions(std::uint64_t configured)
{
    std::uint64_t v = envU64("LSQSCALE_INSTS", 0);
    return v > 0 ? v : configured;
}

namespace {

/**
 * Sampling spec: the config wins; the LSQSCALE_SAMPLE environment
 * variable ("F:W:D") turns sampling on for drivers with no --sample
 * plumbing, accelerating every bench with zero per-bench changes.
 */
SampleSpec
effectiveSampleSpec(const SampleSpec &configured)
{
    if (configured.enabled())
        return configured;
    if (const char *env = std::getenv("LSQSCALE_SAMPLE")) {
        SampleSpec s;
        if (parseSampleSpec(env, s))
            return s;
        LSQ_WARN("ignoring malformed LSQSCALE_SAMPLE '%s' "
                 "(want F:W:D)", env);
    }
    return SampleSpec{};
}

} // namespace

SimResult
Simulator::run()
{
    // Host-side phase accounting (src/metrics/hostprof.hh). Every
    // scope below is one predictable branch when profiling is off;
    // profiled runs stay bit-identical because the profiler only
    // reads the clock and reports to stderr / side files.
    ScopedHostPhase profTotal(HostPhase::Total);

    SimResult result;
    result.benchmark = config_.benchmark;

    std::unique_ptr<Core> corePtr;
    {
        ScopedHostPhase profSetup(HostPhase::Setup);
        if (!config_.tracePath.empty()) {
            corePtr = std::make_unique<Core>(
                config_.core, config_.lsq, config_.memory,
                std::make_unique<TraceFileReader>(config_.tracePath),
                result.stats);
            // If the label names a built-in profile, its region
            // layout still describes the trace's addresses: pre-warm
            // as usual.
            if (profileExists(config_.benchmark))
                prewarmCaches(corePtr->memory(),
                              profileFor(config_.benchmark));
        } else {
            const BenchmarkProfile &profile =
                profileFor(config_.benchmark);
            corePtr = std::make_unique<Core>(
                config_.core, config_.lsq, config_.memory, profile,
                config_.seed, result.stats);
            prewarmCaches(corePtr->memory(), profile);
        }
    }
    Core &core = *corePtr;
    if (HostProfiler::enabled())
        core.enableHostProfile();

    // LSQSCALE_CHECK=1 shadow-executes every load/store against the
    // ordering oracle. The checker is a pure observer, so checked runs
    // produce byte-identical output to unchecked runs; any mismatch
    // panics at the faulting operation with full provenance.
    std::unique_ptr<LsqChecker> checker;
    if (envU64("LSQSCALE_CHECK", 0) != 0) {
        checker = std::make_unique<LsqChecker>(config_.lsq);
        checker->setAbortOnError(true);
        core.lsq().attachChecker(checker.get());
    }

    std::uint64_t measured = effectiveInstructions(config_.instructions);
    std::uint64_t warmup = std::min(config_.warmup, measured / 4);

    // Checkpoint / fast-forward entry points (docs/SAMPLING.md). Both
    // replace the config warm-up: a restored or fast-forwarded run
    // measures from the checkpoint boundary so that the two are
    // bit-identical.
    if (!config_.loadCkptPath.empty()) {
        ScopedHostPhase profRestore(HostPhase::CkptRestore);
        loadCheckpoint(core, config_, config_.loadCkptPath);
    }
    if (config_.ffInsts > 0) {
        ScopedHostPhase profFf(HostPhase::FastForward);
        core.fastForward(config_.ffInsts);
    }
    if (!config_.saveCkptPath.empty()) {
        // Save-only run: snapshot the quiesced state and return
        // without measuring anything.
        ScopedHostPhase profSave(HostPhase::CkptSave);
        saveCheckpoint(core, config_, config_.saveCkptPath);
        core.lsq().attachChecker(nullptr);
        return result;
    }

    SampleSpec sample = effectiveSampleSpec(config_.sample);
    bool skipWarmup = sample.enabled() || config_.ffInsts > 0 ||
                      !config_.loadCkptPath.empty();

    if (warmup > 0 && !skipWarmup) {
        ScopedHostPhase profWarmup(HostPhase::Warmup);
        core.run(warmup);
        result.stats.resetAll();
    }

    // Observers cover only the measurement window: attach after warmup.
    // Both are pure observers, so instrumented runs stay timing-bit-
    // identical to plain ones (verified by the trace-smoke CI flavor).
    std::unique_ptr<Tracer> tracer;
    if (config_.trace.enabled) {
        tracer = std::make_unique<Tracer>(config_.trace);
        core.attachTracer(tracer.get());
    }
    // The external coherence agent also covers only the measurement
    // window: attaching it after warm-up keeps the warm-up stream (and
    // thus checkpoint reuse) identical to probe-free runs.
    std::unique_ptr<ProbeAgent> probes;
    if (config_.probes.enabled) {
        probes = std::make_unique<ProbeAgent>(config_.probes);
        core.attachCoherenceAgent(probes.get());
    }
    std::unique_ptr<IntervalSampler> sampler;
    if (config_.intervalCycles > 0) {
        sampler = std::make_unique<IntervalSampler>(
            core, config_.intervalCycles);
        core.attachSampler(sampler.get());
    }

    // Fault injection triggers in measurement cycles: an armed fault
    // (--inject / LSQSCALE_INJECT) becomes pending here, whatever
    // warm-up, fast-forward, or checkpoint restore preceded it.
    inject::armFromEnv();
    inject::beginMeasurement(core.cycle());

    Cycle startCycle = core.cycle();
    std::uint64_t startCommitted = core.committed();
    // Saturate: a huge count must mean "run on", not wrap past zero.
    std::uint64_t endCommitted =
        measured > UINT64_MAX - startCommitted ? UINT64_MAX
                                               : startCommitted + measured;
    std::uint64_t l1dH = core.memory().l1d().hits();
    std::uint64_t l1dM = core.memory().l1d().misses();
    std::uint64_t l2H = core.memory().l2().hits();
    std::uint64_t l2M = core.memory().l2().misses();

    if (sample.enabled()) {
        // Sampled mode: the measurement window is the union of the
        // periods' measure windows; cache counters below still span
        // the whole loop (fast-forward warming included).
        ScopedHostPhase profRun(HostPhase::Run);
        result.sampling =
            runSampleLoop(core, sample, endCommitted);
        result.cycles = result.sampling.measuredCycles;
        result.committed = result.sampling.measuredInsts;
    } else {
        ScopedHostPhase profRun(HostPhase::Run);
        core.run(endCommitted);
        result.cycles = core.cycle() - startCycle;
        result.committed = core.committed() - startCommitted;
    }
    result.stats.counter("l1d.hits").inc(core.memory().l1d().hits() -
                                         l1dH);
    result.stats.counter("l1d.misses").inc(core.memory().l1d().misses() -
                                           l1dM);
    result.stats.counter("l2.hits").inc(core.memory().l2().hits() - l2H);
    result.stats.counter("l2.misses").inc(core.memory().l2().misses() -
                                          l2M);

    if (sampler) {
        sampler->sample(); // close the final partial interval
        core.attachSampler(nullptr);
        result.intervals = sampler->takeSeries();
        if (!config_.intervalJsonPath.empty())
            writeFileCreatingDirs(config_.intervalJsonPath,
                                  result.intervals.toJson() + "\n");
    }
    if (probes)
        core.attachCoherenceAgent(nullptr);
    if (tracer) {
        core.attachTracer(nullptr);
        tracer->finish();
        if (!config_.trace.konataPath.empty())
            writeKonataFile(config_.trace.konataPath,
                            tracer->collect());
    }

    if (checker) {
        if (checker->mismatches() != 0)
            LSQ_PANIC("ordering oracle found mismatches:\n%s",
                      checker->report().c_str());
        core.lsq().attachChecker(nullptr);
    }
    return result;
}

} // namespace lsqscale
