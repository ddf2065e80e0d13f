/**
 * @file
 * Unit tests for src/memory: set-associative cache and the hierarchy.
 */

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "memory/cache.hh"
#include "memory/memory_system.hh"

using namespace lsqscale;

namespace {

CacheParams
tiny(unsigned sizeBytes = 1024, unsigned assoc = 2,
     unsigned block = 32, unsigned ports = 2)
{
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = sizeBytes;
    p.assoc = assoc;
    p.blockBytes = block;
    p.hitLatency = 2;
    p.ports = ports;
    return p;
}

/** Whether @p addr's block is resident, seen by accessing a copy. */
bool
resident(const Cache &c, Addr addr)
{
    Cache copy = c;
    return copy.access(addr);
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameBlockHits)
{
    Cache c(tiny());
    c.access(0x1000);
    EXPECT_TRUE(c.access(0x1000 + 31));   // same 32B block
    EXPECT_FALSE(c.access(0x1000 + 32));  // next block
}

TEST(Cache, LruEviction)
{
    // 1KB, 2-way, 32B blocks -> 16 sets. Three blocks mapping to the
    // same set: the least recently used one is evicted.
    Cache c(tiny());
    Addr setStride = 16 * 32;
    c.access(0x0);                 // way 0
    c.access(setStride);           // way 1
    c.access(0x0);                 // touch way 0 (LRU is now way 1)
    c.access(2 * setStride);       // evicts setStride
    EXPECT_TRUE(resident(c, 0x0));
    EXPECT_FALSE(resident(c, setStride));
    EXPECT_TRUE(resident(c, 2 * setStride));
}

TEST(Cache, DirectMapped)
{
    Cache c(tiny(1024, 1, 32));
    Addr setStride = 32 * 32;
    c.access(0x0);
    c.access(setStride);   // same set, evicts
    EXPECT_FALSE(resident(c, 0x0));
}

TEST(Cache, FullyUsedCapacity)
{
    // Fill the whole cache; everything should stay resident.
    Cache c(tiny(1024, 2, 32));
    for (Addr a = 0; a < 1024; a += 32)
        c.access(a);
    for (Addr a = 0; a < 1024; a += 32)
        EXPECT_TRUE(resident(c, a)) << "addr " << a;
}

TEST(Cache, PortsPerCycle)
{
    Cache c(tiny());
    EXPECT_EQ(c.freePorts(10), 2u);
    EXPECT_TRUE(c.tryPort(10));
    EXPECT_EQ(c.freePorts(10), 1u);
    EXPECT_TRUE(c.tryPort(10));
    EXPECT_FALSE(c.tryPort(10));
    // New cycle resets the count.
    EXPECT_TRUE(c.tryPort(11));
}

TEST(Cache, PortCycleRollover)
{
    Cache c(tiny());
    c.tryPort(5);
    c.tryPort(5);
    EXPECT_EQ(c.freePorts(5), 0u);
    EXPECT_EQ(c.freePorts(6), 2u);
    // Going back to an old stamped cycle after moving on: the cache
    // only tracks one cycle at a time (monotonic use in the core).
    EXPECT_TRUE(c.tryPort(7));
}

TEST(Cache, ExportStats)
{
    Cache c(tiny());
    c.access(0x0);
    c.access(0x0);
    StatSet s;
    c.exportStats(s);
    EXPECT_EQ(s.value("tiny.hits"), 1u);
    EXPECT_EQ(s.value("tiny.misses"), 1u);
}

TEST(Cache, RejectsNonPow2Sets)
{
    CacheParams p = tiny();
    p.sizeBytes = 1000;   // not a power-of-two set count
    EXPECT_DEATH({ Cache c(p); }, "sets");
}

TEST(Cache, CheckpointRoundTrip)
{
    // tiny(): 16 sets x 2 ways. Fill some ways, leave the rest empty.
    Cache c(tiny());
    for (Addr a : {0x1000, 0x1200, 0x1400, 0x2020})
        c.access(a);
    SerialWriter w;
    c.saveState(w);
    // Per way: tag, valid, stamp. Way 0 of set 0 holds 0x1200 (tag
    // 0x1200 >> 9, second access); set 2 was never touched: tag 0, not
    // valid, stamp 0.
    {
        SerialReader r(w.buffer());
        EXPECT_EQ(r.u64(), 32u);
        EXPECT_EQ(r.u64(), 0x1200u >> 9);
        EXPECT_TRUE(r.b());
        EXPECT_EQ(r.u64(), 2u);
        for (int way = 1; way < 4; ++way) {
            r.u64();
            r.b();
            r.u64();
        }
        EXPECT_EQ(r.u64(), 0u);
        EXPECT_FALSE(r.b());
        EXPECT_EQ(r.u64(), 0u);
    }
    Cache back(tiny());
    SerialReader r(w.buffer());
    back.loadState(r);
    SerialWriter again;
    back.saveState(again);
    EXPECT_EQ(again.buffer(), w.buffer());
    for (Addr a : {0x1000, 0x1200, 0x1400, 0x2020, 0x3000})
        EXPECT_EQ(back.access(a), c.access(a)) << a;
}

// ------------------------------------------------- MemorySystem -------

TEST(MemorySystem, L1HitLatency)
{
    MemorySystem m;
    m.accessData(0, 0x100, false);           // install everywhere
    MemAccessResult r = m.accessData(10, 0x100, false);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.readyCycle, 10u + m.params().l1d.hitLatency);
}

TEST(MemorySystem, L2HitLatency)
{
    MemorySystem m;
    m.accessData(0, 0x100, false);
    // Evict from L1 by filling its set (64K 2-way 32B -> 1024 sets,
    // set stride 32KB).
    m.accessData(1, 0x100 + 32 * 1024, false);
    m.accessData(2, 0x100 + 64 * 1024, false);
    MemAccessResult r = m.accessData(10, 0x100, false);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l2Hit);
    EXPECT_EQ(r.readyCycle, 10u + m.params().l1d.hitLatency +
                                m.params().l2.hitLatency);
}

TEST(MemorySystem, FullMissLatency)
{
    MemorySystem m;
    MemAccessResult r = m.accessData(5, 0xdeadbeef00ULL, false);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_FALSE(r.l2Hit);
    EXPECT_EQ(r.readyCycle, 5u + m.params().l1d.hitLatency +
                                m.params().l2.hitLatency +
                                m.params().memLatency);
}

TEST(MemorySystem, InstAndDataSeparateL1)
{
    MemorySystem m;
    m.accessData(0, 0x100, false);
    // Same address on the I-side still misses L1I (hits L2).
    MemAccessResult r = m.accessInst(1, 0x100);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l2Hit);
}

TEST(MemorySystem, WriteTimingSameAsRead)
{
    MemorySystem m;
    MemAccessResult w = m.accessData(0, 0x200, true);
    MemorySystem m2;
    MemAccessResult r = m2.accessData(0, 0x200, false);
    EXPECT_EQ(w.readyCycle, r.readyCycle);
}

TEST(MemorySystem, ExportStatsNames)
{
    MemorySystem m;
    m.accessData(0, 0x100, false);
    m.accessInst(0, 0x500000);
    StatSet s;
    m.exportStats(s);
    EXPECT_TRUE(s.hasCounter("l1d.misses"));
    EXPECT_TRUE(s.hasCounter("l1i.misses"));
    EXPECT_TRUE(s.hasCounter("l2.misses"));
}

TEST(MemorySystem, Table1Defaults)
{
    MemoryParams p;
    EXPECT_EQ(p.l1d.sizeBytes, 64u * 1024);
    EXPECT_EQ(p.l1d.assoc, 2u);
    EXPECT_EQ(p.l1d.blockBytes, 32u);
    EXPECT_EQ(p.l1d.hitLatency, 2u);
    EXPECT_EQ(p.l1d.ports, 4u);
    EXPECT_EQ(p.l1i.ports, 2u);
    EXPECT_EQ(p.l2.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(p.l2.assoc, 8u);
    EXPECT_EQ(p.l2.blockBytes, 64u);
    EXPECT_EQ(p.l2.hitLatency, 12u);
    EXPECT_EQ(p.memLatency, 150u);
}

// Parameterized sweep: hit rate of a working set that fits is 100%
// after the first pass, regardless of geometry.
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheGeometry, ResidentWorkingSetAlwaysHits)
{
    auto [assoc, block] = GetParam();
    CacheParams p;
    p.sizeBytes = 8192;
    p.assoc = assoc;
    p.blockBytes = block;
    Cache c(p);
    for (int pass = 0; pass < 3; ++pass)
        for (Addr a = 0; a < 8192; a += block)
            c.access(a);
    // Two full passes after the cold one: all hits.
    EXPECT_EQ(c.misses(), 8192u / block);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(16u, 32u, 64u)));
