/**
 * @file
 * Whole-simulation configuration and the paper's named design points.
 *
 * configs::base() is Table 1: 8-wide, 256-entry ROB, 64-entry IQ,
 * 32+32-entry 2-ported conventional LSQ, hybrid branch predictor,
 * 64K L1s / 2M L2 / 150-cycle memory, store-set predictor. Every other
 * design point in the evaluation is derived from it by a modifier.
 */

#ifndef LSQSCALE_SIM_SIM_CONFIG_HH
#define LSQSCALE_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/core_params.hh"
#include "lsq/lsq_params.hh"
#include "memory/memory_system.hh"
#include "memory/probe_agent.hh"
#include "obs/trace.hh"
#include "sample/sampler.hh"

namespace lsqscale {

/** Everything a Simulator needs. */
struct SimConfig
{
    std::string benchmark = "bzip";
    /**
     * Optional recorded trace (workload/trace_file.hh). When set, the
     * simulator replays this file instead of synthesizing the
     * benchmark's stream; `benchmark` is then only a label. Trace
     * runs start with cold caches (no profile-based pre-warm).
     */
    std::string tracePath;
    std::uint64_t instructions = 500000;  ///< measured instructions
    std::uint64_t warmup = 50000;         ///< warm-up instructions
    std::uint64_t seed = 1;

    CoreParams core{};
    LsqParams lsq{};
    MemoryParams memory{};

    /**
     * Event tracing (src/obs/trace.hh; --trace-events/--trace-out).
     */
    TraceConfig trace{};

    /**
     * External coherence agent (src/memory/probe_agent.hh). When
     * probes.enabled, the simulator attaches a ProbeAgent after
     * warm-up — like the tracer, it never perturbs a run in which it
     * is absent (--probe-rate/--probe-seed/--probe-watch).
     */
    ProbeAgentParams probes{};

    /**
     * Interval-stats sampling period in cycles; 0 disables sampling
     * (--interval-stats N).
     */
    std::uint64_t intervalCycles = 0;

    /** Standalone lsqscale-intervals-v1 JSON file (--interval-json). */
    std::string intervalJsonPath;

    /**
     * Interval sampling (docs/SAMPLING.md): when enabled(), the run
     * replaces warm-up + full-detail measurement with alternating
     * fast-forward / warm / measure periods (--sample F:W:D, or the
     * LSQSCALE_SAMPLE environment variable).
     */
    SampleSpec sample{};

    /**
     * Functionally fast-forward this many instructions before
     * measuring (or before saving a checkpoint); skips the config
     * warm-up (--ff N).
     */
    std::uint64_t ffInsts = 0;

    /**
     * Save an lsqscale-ckpt-v1 checkpoint after the fast-forward and
     * exit without measuring (--save-ckpt PATH).
     */
    std::string saveCkptPath;

    /**
     * Restore from a checkpoint instead of starting cold; skips the
     * config warm-up (--load-ckpt PATH).
     */
    std::string loadCkptPath;
};

namespace configs {

/** The paper's base machine (Table 1) for @p benchmark. */
SimConfig base(const std::string &benchmark);

/** Set the number of LSQ search ports (per queue). */
SimConfig withPorts(SimConfig cfg, unsigned ports);

/**
 * Enable the store-load pair predictor scheme: loads search the SQ
 * only when predicted dependent, and store-load violation detection
 * moves to store commit.
 */
SimConfig withPairPredictor(SimConfig cfg);

/** Oracle SQ-search gating (the "perfect predictor" of Figure 6). */
SimConfig withPerfectPredictor(SimConfig cfg);

/** Alias-free pair predictor (the "aggressive predictor"). */
SimConfig withAggressivePredictor(SimConfig cfg);

/** Replace LQ load-load searches with an N-entry load buffer. */
SimConfig withLoadBuffer(SimConfig cfg, unsigned entries);

/**
 * In-order load issue baselines of Figure 9: @p alwaysSearch selects
 * "in-order-always-search"; otherwise the 0-entry load buffer.
 */
SimConfig withInOrderLoads(SimConfig cfg, bool alwaysSearch);

/** Segment the LSQ: @p segments x @p perSegment per queue. */
SimConfig withSegmentation(SimConfig cfg, unsigned segments,
                           unsigned perSegment, SegAllocPolicy policy);

/** Resize the (flat) queues, e.g. the 128-entry comparison point. */
SimConfig withQueueSize(SimConfig cfg, unsigned entriesPerQueue);

/**
 * Combined load/store queue (Figure 5): loads and stores share the
 * segments and search ports; @p entriesPerSegment shared entries per
 * segment.
 */
SimConfig withCombinedQueue(SimConfig cfg, unsigned entriesPerSegment);

/** The paper's scaled processor: 12-wide, 96-entry IQ, 3-cycle L1. */
SimConfig scaledProcessor(SimConfig cfg);

/** All three techniques on one port (Figure 12 configuration). */
SimConfig allTechniques(SimConfig cfg);

} // namespace configs

} // namespace lsqscale

#endif // LSQSCALE_SIM_SIM_CONFIG_HH
