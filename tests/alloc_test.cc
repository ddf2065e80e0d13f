/**
 * @file
 * Heap allocations on the per-cycle path, counted exactly.
 *
 * This binary replaces the global operator new with one that counts
 * calls, drives Core directly on the three pinned host-throughput
 * design points (base-2port, all-techniques-1port,
 * segmented-4x28-1port) on gzip and mcf, and checks allocations per
 * 1000 measured cycles after warm-up against a per-cell bound.
 *
 * The bounds are a ratchet: each is the count measured when the test
 * was written, and it may only go down as the cycle loop stops
 * allocating (ROADMAP item 3 takes it to 0). A change that adds one
 * heap allocation per cycle raises a cell by 1000 and fails here.
 * Runs are deterministic, so the counts are exact, not sampled.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "common/stats.hh"
#include "core/core.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"

namespace {

std::atomic<std::uint64_t> gAllocs{0};

void *
countedAlloc(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

// libstdc++'s nothrow forms call these. Over-aligned types (none in
// src/) would bypass the count through the align_val_t forms.
void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace lsqscale;

namespace {

constexpr std::uint64_t kWarmupInsts = 50000;
constexpr std::uint64_t kMeasuredInsts = 200000;

struct Cell
{
    const char *design;
    const char *benchmark;
    /**
     * Allocations per 1000 measured cycles: the ratchet. Measured
     * counts are identical in the release, sanitizer and coverage
     * builds.
     */
    std::uint64_t boundPerKcycle;
};

void
PrintTo(const Cell &cell, std::ostream *os)
{
    *os << cell.design << "/" << cell.benchmark;
}

SimConfig
designFor(const std::string &design, const std::string &benchmark)
{
    SimConfig base = configs::base(benchmark);
    if (design == "all-techniques-1port")
        return configs::allTechniques(base);
    if (design == "segmented-4x28-1port")
        return configs::withPorts(
            configs::withSegmentation(base, 4, 28,
                                      SegAllocPolicy::SelfCircular),
            1);
    return base;
}

// A pointer the optimizer must assume is read, so the probe
// allocations below cannot be elided.
void *volatile gSink = nullptr;

TEST(AllocTest, CounterSeesEveryAllocation)
{
    // A build whose allocations bypass the replacement operator new
    // would count 0 everywhere and pass vacuously; fail it here.
    std::uint64_t before = gAllocs.load();
    gSink = new int(1);
    delete static_cast<int *>(gSink);
    EXPECT_EQ(gAllocs.load() - before, 1u);

    // Past libstdc++'s 15-character inline buffer, a std::string
    // allocates: the hidden cost of a string-keyed stats lookup.
    before = gAllocs.load();
    std::string key(23, 'k');
    gSink = key.data();
    EXPECT_EQ(gAllocs.load() - before, 1u);
}

class AllocBound : public ::testing::TestWithParam<Cell>
{
};

TEST_P(AllocBound, PerCycleAllocationsWithinRatchet)
{
    const Cell &cell = GetParam();
    SimConfig cfg = designFor(cell.design, cell.benchmark);
    StatSet stats;
    const BenchmarkProfile &profile = profileFor(cfg.benchmark);
    Core core(cfg.core, cfg.lsq, cfg.memory, profile, cfg.seed, stats);
    prewarmCaches(core.memory(), profile);
    core.run(kWarmupInsts);

    Cycle startCycle = core.cycle();
    std::uint64_t startAllocs = gAllocs.load();
    core.run(kWarmupInsts + kMeasuredInsts);
    std::uint64_t allocs = gAllocs.load() - startAllocs;
    std::uint64_t cycles = core.cycle() - startCycle;
    ASSERT_GT(cycles, 0u);

    double perKcycle = 1000.0 * static_cast<double>(allocs) /
                       static_cast<double>(cycles);
    std::printf("[ alloc    ] %s/%s: %llu allocations over %llu "
                "cycles = %.1f per 1000 cycles (bound %llu)\n",
                cell.design, cell.benchmark,
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(cycles), perKcycle,
                static_cast<unsigned long long>(cell.boundPerKcycle));
    EXPECT_LE(allocs * 1000, cell.boundPerKcycle * cycles)
        << cell.design << "/" << cell.benchmark << " allocates "
        << perKcycle << " times per 1000 cycles, above its bound of "
        << cell.boundPerKcycle << ": keep the per-cycle path off the "
        << "heap";
}

INSTANTIATE_TEST_SUITE_P(
    PinnedCells, AllocBound,
    ::testing::Values(Cell{"base-2port", "gzip", 2750},
                      Cell{"base-2port", "mcf", 489},
                      Cell{"all-techniques-1port", "gzip", 3076},
                      Cell{"all-techniques-1port", "mcf", 398},
                      Cell{"segmented-4x28-1port", "gzip", 2697},
                      Cell{"segmented-4x28-1port", "mcf", 488}),
    [](const ::testing::TestParamInfo<Cell> &info) {
        std::string name =
            std::string(info.param.design) + "_" + info.param.benchmark;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
