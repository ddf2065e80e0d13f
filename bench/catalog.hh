/**
 * @file
 * The design catalog of the paper's evaluation: every distinct design
 * point once, under a unique label. Each is the Table 1 base machine
 * plus a few modifiers.
 *
 * bench/paper.cpp runs the designs its figures read;
 * tests/sample_test.cc restores checkpoints into every one of them.
 */

#ifndef LSQSCALE_BENCH_CATALOG_HH
#define LSQSCALE_BENCH_CATALOG_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.hh"
#include "sim/sim_config.hh"

namespace lsqscale {

/** The Table 1 base machine, measured over 300k instructions. */
inline SimConfig
benchBase(const std::string &benchmark)
{
    SimConfig cfg = configs::base(benchmark);
    cfg.instructions = 300000;
    return cfg;
}

/**
 * A catalog design: @p modify applied to benchBase, with @p args after
 * the config, e.g. design("4-port", configs::withPorts, 4u).
 */
template <class Modify, class... Args>
NamedConfig
design(std::string label, Modify modify, Args... args)
{
    return {std::move(label), [=](const std::string &b) {
                return modify(benchBase(b), args...);
            }};
}

inline SimConfig
selfCircular(SimConfig cfg)
{
    return configs::withSegmentation(std::move(cfg), 4, 28,
                                     SegAllocPolicy::SelfCircular);
}

/** Figure 10's two techniques: pair predictor + 2-entry load buffer. */
inline SimConfig
withTechniques(SimConfig cfg)
{
    cfg = configs::withPairPredictor(std::move(cfg));
    cfg = configs::withLoadBuffer(std::move(cfg), 2);
    return cfg;
}

inline SimConfig
withWakeupPenalty(SimConfig cfg, unsigned penalty)
{
    cfg = selfCircular(std::move(cfg));
    cfg.lsq.lateWakeupPenalty = penalty;
    return cfg;
}

inline SimConfig
withMemDep(SimConfig cfg, MemDepPolicy policy)
{
    cfg.core.memDepPolicy = policy;
    return cfg;
}

inline SimConfig
withSeed(SimConfig cfg, std::uint64_t seed)
{
    cfg.seed = seed;
    return cfg;
}

inline SimConfig
allTechniquesWithSeed(SimConfig cfg, std::uint64_t seed)
{
    return withSeed(configs::allTechniques(std::move(cfg)), seed);
}

/** Every distinct design point, in order of first use. */
inline const std::vector<NamedConfig> &
catalog()
{
    static const std::vector<NamedConfig> designs = {
        design("base", [](SimConfig c) { return c; }),
        design("perfect", configs::withPerfectPredictor),
        design("aggressive", configs::withAggressivePredictor),
        design("pair", configs::withPairPredictor),
        design("load buffer (2)", configs::withLoadBuffer, 2u),
        design("in-order, always search", configs::withInOrderLoads, true),
        design("load buffer (0)", configs::withInOrderLoads, false),
        design("load buffer (1)", configs::withLoadBuffer, 1u),
        design("load buffer (4)", configs::withLoadBuffer, 4u),
        design("1-port", configs::withPorts, 1u),
        design("1-port + techniques",
               [](SimConfig c) {
                   return configs::withPorts(withTechniques(c), 1);
               }),
        design("2-port + techniques", withTechniques),
        design("4-port", configs::withPorts, 4u),
        design("no-self-circular 4x28", configs::withSegmentation, 4u, 28u,
               SegAllocPolicy::NoSelfCircular),
        design("self-circular 4x28", selfCircular),
        design("flat 128-entry", configs::withQueueSize, 128u),
        design("all techniques", configs::allTechniques),
        design("scaled base", configs::scaledProcessor),
        design("scaled all techniques",
               [](SimConfig c) {
                   return configs::allTechniques(
                       configs::scaledProcessor(c));
               }),
        design("self-circular 4x28, stall",
               [](SimConfig c) {
                   c = selfCircular(c);
                   c.lsq.contentionPolicy = ContentionPolicy::Stall;
                   return c;
               }),
        design("self-circular 4x28, wakeup penalty 0", withWakeupPenalty,
               0u),
        design("self-circular 4x28, wakeup penalty 4", withWakeupPenalty,
               4u),
        design("split 4x14+4x14", configs::withSegmentation, 4u, 14u,
               SegAllocPolicy::SelfCircular),
        design("combined 4x28",
               [](SimConfig c) {
                   return configs::withCombinedQueue(selfCircular(c), 28);
               }),
        design("blind speculation", withMemDep,
               MemDepPolicy::BlindSpeculation),
        design("total order", withMemDep, MemDepPolicy::TotalOrder),
        design("base, seed 2", withSeed, 2u),
        design("all techniques, seed 2", allTechniquesWithSeed, 2u),
        design("base, seed 3", withSeed, 3u),
        design("all techniques, seed 3", allTechniquesWithSeed, 3u),
    };
    return designs;
}

} // namespace lsqscale

#endif // LSQSCALE_BENCH_CATALOG_HH
