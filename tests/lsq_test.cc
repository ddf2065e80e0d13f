/**
 * @file
 * Unit tests for src/lsq: port scheduling, segment allocation, the
 * load buffer, and the Lsq model itself (forwarding, both violation
 * schemes, the NILP/LIV protocol, segmented searches, contention).
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "lsq/load_buffer.hh"
#include "lsq/lsq.hh"
#include "lsq/port_schedule.hh"
#include "lsq/segment_allocator.hh"
#include "memory/probe_agent.hh"

using namespace lsqscale;

// ---------------------------------------------------- PortSchedule ----

TEST(PortSchedule, PortsPerSegmentPerCycle)
{
    PortSchedule ps(2, 2);
    EXPECT_EQ(ps.freePorts(0, 5), 2u);
    ps.reserve(0, 5);
    ps.reserve(0, 5);
    EXPECT_EQ(ps.freePorts(0, 5), 0u);
    EXPECT_EQ(ps.freePorts(1, 5), 2u);   // other segment unaffected
    EXPECT_EQ(ps.freePorts(0, 6), 2u);   // next cycle resets
}

TEST(PortSchedule, WalkReservation)
{
    PortSchedule ps(4, 1);
    std::vector<unsigned> walk = {2, 1, 0};
    EXPECT_TRUE(ps.canReserveWalk(walk, 10));
    ps.reserveWalk(walk, 10);
    // Each (segment, cycle) pair along the walk is now booked.
    EXPECT_EQ(ps.freePorts(2, 10), 0u);
    EXPECT_EQ(ps.freePorts(1, 11), 0u);
    EXPECT_EQ(ps.freePorts(0, 12), 0u);
    // Off-diagonal slots are free.
    EXPECT_EQ(ps.freePorts(1, 10), 1u);
    EXPECT_EQ(ps.freePorts(2, 11), 1u);
}

TEST(PortSchedule, CollidingWalksDetected)
{
    PortSchedule ps(4, 1);
    using Walk = std::vector<unsigned>;
    ps.reserveWalk(Walk{1, 2}, 10);   // books (1,10), (2,11)
    // A walk arriving at segment 2 in cycle 11 collides.
    EXPECT_FALSE(ps.canReserveWalk(Walk{2}, 11));
    EXPECT_FALSE(ps.canReserveWalk(Walk{3, 2}, 10));
    EXPECT_TRUE(ps.canReserveWalk(Walk{2}, 10));
}

TEST(PortSchedule, OverbookPanics)
{
    PortSchedule ps(1, 1);
    ps.reserve(0, 3);
    EXPECT_DEATH({ ps.reserve(0, 3); }, "overbooked");
}

TEST(PortSchedule, RollingWindowForgetsOldCycles)
{
    PortSchedule ps(1, 1);
    ps.reserve(0, 0);
    EXPECT_EQ(ps.freePorts(0, 16), 1u);   // 16 cycles later, same slot
    ps.reserve(0, 16);
    EXPECT_EQ(ps.freePorts(0, 16), 0u);
}

TEST(PortSchedule, LongWalksDoNotAlias)
{
    // A 20-segment walk (plus the combined queue's stagger) books up to
    // 24 cycles ahead: bookings 16 cycles apart must both stay live.
    PortSchedule ps(20, 1);
    ps.reserve(5, 101);
    ps.reserve(5, 117);
    EXPECT_EQ(ps.freePorts(5, 101), 0u);
    EXPECT_EQ(ps.freePorts(5, 117), 0u);
    std::vector<unsigned> walk(20);
    for (unsigned i = 0; i < 20; ++i)
        walk[i] = 19 - i;
    ps.reserveWalk(walk, 200);
    for (unsigned i = 0; i < 20; ++i)
        EXPECT_EQ(ps.freePorts(19 - i, 200 + i), 0u) << "step " << i;
}

// ------------------------------------------------ SegmentAllocator ----

TEST(SegmentAllocator, NoSelfCircularWalksLinearly)
{
    SegmentAllocator a(4, 2, SegAllocPolicy::NoSelfCircular);
    EXPECT_EQ(a.allocate(), 0u);
    EXPECT_EQ(a.allocate(), 0u);
    EXPECT_EQ(a.allocate(), 1u);
    EXPECT_EQ(a.allocate(), 1u);
    EXPECT_EQ(a.allocate(), 2u);
}

TEST(SegmentAllocator, NoSelfCircularDriftsAcrossSegments)
{
    // A 1-entry working set still wanders across all segments: the
    // effect behind Figure 11's INT slowdowns.
    SegmentAllocator a(4, 2, SegAllocPolicy::NoSelfCircular);
    std::set<unsigned> segments;
    for (int i = 0; i < 8; ++i) {
        segments.insert(a.allocate());
        a.freeOldest();
    }
    EXPECT_EQ(segments.size(), 4u);
}

TEST(SegmentAllocator, SelfCircularCompactsSmallWorkingSets)
{
    SegmentAllocator a(4, 2, SegAllocPolicy::SelfCircular);
    std::set<unsigned> segments;
    for (int i = 0; i < 16; ++i) {
        segments.insert(a.allocate());
        a.freeOldest();
    }
    EXPECT_EQ(segments.size(), 1u);
}

TEST(SegmentAllocator, SelfCircularSpillsWhenFull)
{
    SegmentAllocator a(4, 2, SegAllocPolicy::SelfCircular);
    EXPECT_EQ(a.allocate(), 0u);
    EXPECT_EQ(a.allocate(), 0u);
    EXPECT_EQ(a.allocate(), 1u);   // segment 0 full -> spill
    EXPECT_EQ(a.occupancy(0), 2u);
    EXPECT_EQ(a.occupancy(1), 1u);
}

TEST(SegmentAllocator, CapacityEnforced)
{
    SegmentAllocator a(2, 2, SegAllocPolicy::SelfCircular);
    for (int i = 0; i < 4; ++i)
        a.allocate();
    EXPECT_FALSE(a.canAllocate());
    EXPECT_DEATH({ a.allocate(); }, "full");
}

TEST(SegmentAllocator, SquashRewindsTail)
{
    SegmentAllocator a(2, 2, SegAllocPolicy::NoSelfCircular);
    a.allocate();                      // seg 0
    a.allocate();                      // seg 0
    EXPECT_EQ(a.allocate(), 1u);       // seg 1
    a.freeYoungest();                  // squash the seg-1 entry
    EXPECT_EQ(a.allocate(), 1u);       // tail rewound: same slot again
    EXPECT_EQ(a.live(), 3u);
}

TEST(SegmentAllocator, FifoFreeKeepsAccounting)
{
    SegmentAllocator a(2, 2, SegAllocPolicy::NoSelfCircular);
    for (int round = 0; round < 10; ++round) {
        a.allocate();
        a.allocate();
        EXPECT_EQ(a.live(), 2u);
        a.freeOldest();
        a.freeOldest();
        EXPECT_EQ(a.live(), 0u);
    }
}

TEST(SegmentAllocator, MixedFreePatterns)
{
    SegmentAllocator a(4, 4, SegAllocPolicy::SelfCircular);
    for (int i = 0; i < 10; ++i)
        a.allocate();
    a.freeYoungest();
    a.freeYoungest();
    a.freeOldest();
    EXPECT_EQ(a.live(), 7u);
    unsigned sum = 0;
    for (unsigned s = 0; s < 4; ++s)
        sum += a.occupancy(s);
    EXPECT_EQ(sum, 7u);
}

// ------------------------------------------------------ LoadBuffer ----

TEST(LoadBuffer, CapacityAndFull)
{
    LoadBuffer lb(2);
    EXPECT_FALSE(lb.full());
    lb.insert(1, 0x100, 10);
    lb.insert(2, 0x200, 11);
    EXPECT_TRUE(lb.full());
    lb.release(1);
    EXPECT_FALSE(lb.full());
}

TEST(LoadBuffer, ZeroEntryAlwaysFull)
{
    LoadBuffer lb(0);
    EXPECT_TRUE(lb.full());
}

TEST(LoadBuffer, UnboundedNeverFull)
{
    LoadBuffer lb(0, true);
    for (SeqNum i = 0; i < 100; ++i)
        lb.insert(i, 0x100, i);
    EXPECT_FALSE(lb.full());
    EXPECT_EQ(lb.size(), 100u);
}

TEST(LoadBuffer, FindViolationRequiresYoungerEarlier)
{
    LoadBuffer lb(4);
    lb.insert(20, 0x100, 50);   // younger, executed at 50
    // Search on behalf of load 10 that executed at 60: load 20 is
    // younger and executed earlier -> violation.
    EXPECT_EQ(lb.findViolation(10, 0x100, 60), 20u);
    // Different address: no violation.
    EXPECT_EQ(lb.findViolation(10, 0x200, 60), kNoSeq);
    // Searcher executed earlier than the buffered load: no violation.
    EXPECT_EQ(lb.findViolation(10, 0x100, 40), kNoSeq);
    // Buffered load is older than the searcher: not its problem.
    EXPECT_EQ(lb.findViolation(30, 0x100, 60), kNoSeq);
}

TEST(LoadBuffer, SameCycleIsNotAViolation)
{
    LoadBuffer lb(4);
    lb.insert(20, 0x100, 50);
    EXPECT_EQ(lb.findViolation(10, 0x100, 50), kNoSeq);
}

TEST(LoadBuffer, OldestViolatorReturned)
{
    LoadBuffer lb(4);
    lb.insert(30, 0x100, 50);
    lb.insert(20, 0x100, 51);
    EXPECT_EQ(lb.findViolation(10, 0x100, 60), 20u);
}

TEST(LoadBuffer, SquashRemovesYoung)
{
    LoadBuffer lb(4);
    lb.insert(10, 0x100, 1);
    lb.insert(20, 0x200, 2);
    lb.insert(30, 0x300, 3);
    lb.squashFrom(20);
    EXPECT_EQ(lb.size(), 1u);
    EXPECT_EQ(lb.findViolation(5, 0x100, 9), 10u);
    EXPECT_EQ(lb.findViolation(5, 0x200, 9), kNoSeq);
}

TEST(LoadBuffer, ReleaseUnknownSeqIsNoop)
{
    LoadBuffer lb(2);
    lb.insert(1, 0x100, 1);
    lb.release(99);
    EXPECT_EQ(lb.size(), 1u);
}

// -------------------------------------------------------- Lsq ---------

namespace {

LsqParams
flat(unsigned ports = 2, unsigned entries = 32)
{
    LsqParams p;
    p.lqEntries = entries;
    p.sqEntries = entries;
    p.searchPorts = ports;
    return p;
}

/** Span of live seqs the tests' LSQs cover: Table 1's ROB. */
constexpr unsigned kWindow = 256;

struct LsqFixture
{
    StatSet stats;
    Lsq lsq;

    explicit LsqFixture(const LsqParams &p) : lsq(p, kWindow, stats) {}
};

} // namespace

TEST(Lsq, AllocationCapacity)
{
    LsqFixture f(flat(2, 4));
    for (SeqNum i = 0; i < 4; ++i) {
        EXPECT_TRUE(f.lsq.canAllocateLoad());
        f.lsq.allocateLoad(i, 0x1000 + 4 * i);
    }
    EXPECT_FALSE(f.lsq.canAllocateLoad());
    EXPECT_TRUE(f.lsq.canAllocateStore());   // separate queues
    EXPECT_EQ(f.lsq.lqLive(), 4u);
}

TEST(Lsq, ProgramOrderAllocationEnforced)
{
    LsqFixture f(flat());
    f.lsq.allocateLoad(5, 0x1000);
    EXPECT_DEATH({ f.lsq.allocateLoad(3, 0x1004); }, "program order");
}

TEST(Lsq, ForwardingFromYoungestOlderStore)
{
    LsqFixture f(flat());
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateStore(2, 0x1004);
    f.lsq.allocateLoad(3, 0x1008);
    f.lsq.storeAddrReady(1, 0xA0, 0);
    f.lsq.storeAddrReady(2, 0xA0, 1);
    LoadIssueOutcome out = f.lsq.issueLoad(3, 0xA0, 2, true);
    ASSERT_EQ(out.status, LoadIssueStatus::Accepted);
    EXPECT_TRUE(out.forwarded);
    EXPECT_EQ(out.forwardedFrom, 2u);   // the *youngest* older store
    EXPECT_EQ(out.forwardedFromPc, 0x1004u);
}

TEST(Lsq, NoForwardingFromYoungerStore)
{
    LsqFixture f(flat());
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateStore(2, 0x1004);
    f.lsq.storeAddrReady(2, 0xB0, 0);
    LoadIssueOutcome out = f.lsq.issueLoad(1, 0xB0, 1, true);
    ASSERT_EQ(out.status, LoadIssueStatus::Accepted);
    EXPECT_FALSE(out.forwarded);
}

TEST(Lsq, NoForwardingFromInvalidAddressStore)
{
    LsqFixture f(flat());
    f.lsq.allocateStore(1, 0x1000);   // never executes
    f.lsq.allocateLoad(2, 0x1004);
    LoadIssueOutcome out = f.lsq.issueLoad(2, 0xC0, 1, true);
    ASSERT_EQ(out.status, LoadIssueStatus::Accepted);
    EXPECT_FALSE(out.forwarded);
}

TEST(Lsq, OracleOlderMatchingStore)
{
    LsqFixture f(flat());
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    EXPECT_FALSE(f.lsq.olderMatchingStore(2, 0xD0));
    f.lsq.storeAddrReady(1, 0xD0, 0);
    EXPECT_TRUE(f.lsq.olderMatchingStore(2, 0xD0));
    EXPECT_FALSE(f.lsq.olderMatchingStore(1, 0xD0));   // own seq older
}

TEST(Lsq, SkippedSearchDoesNotConsumePort)
{
    LsqFixture f(flat(1));
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    // Both loads issue in the same cycle: the first consumes the only
    // SQ port; the second one searches nothing so it needs only the
    // LQ port... which the first also used. Use LoadBuffer mode to
    // isolate the SQ port.
    LsqParams p = flat(1);
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    StatSet stats2;
    Lsq lsq2(p, kWindow, stats2);
    lsq2.allocateLoad(1, 0x1000);
    lsq2.allocateLoad(2, 0x1004);
    EXPECT_EQ(lsq2.issueLoad(1, 0xE0, 0, true).status,
              LoadIssueStatus::Accepted);
    // Port gone; a searching load is rejected...
    lsq2.allocateLoad(3, 0x1008);
    EXPECT_EQ(lsq2.issueLoad(2, 0xE8, 0, true).status,
              LoadIssueStatus::NoSqPort);
    // ...but a non-searching load sails through.
    EXPECT_EQ(lsq2.issueLoad(2, 0xE8, 0, false).status,
              LoadIssueStatus::Accepted);
}

TEST(Lsq, SqPortLimitPerCycle)
{
    LsqParams p = flat(2);
    p.loadCheck = LoadCheckPolicy::None;
    LsqFixture f(p);
    for (SeqNum i = 1; i <= 3; ++i)
        f.lsq.allocateLoad(i, 0x1000 + 4 * i);
    EXPECT_EQ(f.lsq.issueLoad(1, 0x10, 7, true).status,
              LoadIssueStatus::Accepted);
    EXPECT_EQ(f.lsq.issueLoad(2, 0x18, 7, true).status,
              LoadIssueStatus::Accepted);
    EXPECT_EQ(f.lsq.issueLoad(3, 0x20, 7, true).status,
              LoadIssueStatus::NoSqPort);
    // Next cycle is fine.
    EXPECT_EQ(f.lsq.issueLoad(3, 0x20, 8, true).status,
              LoadIssueStatus::Accepted);
}

TEST(Lsq, LqPortsConsumedByStoreSearches)
{
    LsqFixture f(flat(1));
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateStore(2, 0x1004);
    EXPECT_TRUE(f.lsq.storeAddrReady(1, 0x30, 4).accepted);
    // Same cycle: LQ port exhausted.
    EXPECT_FALSE(f.lsq.storeAddrReady(2, 0x38, 4).accepted);
    EXPECT_TRUE(f.lsq.storeAddrReady(2, 0x38, 5).accepted);
}

// --------------------------------- store-load violations (execute) ----

TEST(Lsq, ExecTimeViolationDetected)
{
    LsqFixture f(flat());
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    // Premature load executes before the store's address is known.
    f.lsq.issueLoad(2, 0xF0, 0, true);
    StoreSearchOutcome out = f.lsq.storeAddrReady(1, 0xF0, 3);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.violationLoad, 2u);
    EXPECT_EQ(out.violationLoadPc, 0x1004u);
}

TEST(Lsq, NoViolationWhenLoadForwardedFromNewerStore)
{
    LsqFixture f(flat());
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateStore(2, 0x1004);
    f.lsq.allocateLoad(3, 0x1008);
    f.lsq.storeAddrReady(2, 0xF8, 0);
    f.lsq.issueLoad(3, 0xF8, 1, true);   // forwards from store 2
    StoreSearchOutcome out = f.lsq.storeAddrReady(1, 0xF8, 5);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.violationLoad, kNoSeq);
}

TEST(Lsq, OldestViolatorReported)
{
    LsqFixture f(flat(4));
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.allocateLoad(3, 0x1008);
    f.lsq.issueLoad(2, 0xF0, 0, true);
    f.lsq.issueLoad(3, 0xF0, 1, true);
    StoreSearchOutcome out = f.lsq.storeAddrReady(1, 0xF0, 5);
    EXPECT_EQ(out.violationLoad, 2u);
}

TEST(Lsq, UnexecutedLoadIsNotPremature)
{
    LsqFixture f(flat());
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    StoreSearchOutcome out = f.lsq.storeAddrReady(1, 0xF0, 3);
    EXPECT_EQ(out.violationLoad, kNoSeq);
}

// ----------------------------------- store-load violations (commit) ---

TEST(Lsq, CommitTimeViolationScheme)
{
    LsqParams p = flat();
    p.checkViolationsAtCommit = true;
    LsqFixture f(p);
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.issueLoad(2, 0xF0, 0, false);   // predicted independent
    // Execute-time search is skipped in this scheme.
    StoreSearchOutcome exec = f.lsq.storeAddrReady(1, 0xF0, 3);
    EXPECT_TRUE(exec.accepted);
    EXPECT_EQ(exec.violationLoad, kNoSeq);
    // Detection happens at commit.
    StoreSearchOutcome commit = f.lsq.commitStore(1, 10);
    ASSERT_TRUE(commit.accepted);
    EXPECT_EQ(commit.violationLoad, 2u);
    EXPECT_EQ(f.lsq.sqLive(), 0u);
}

TEST(Lsq, CommitSearchDelayedWithoutPort)
{
    LsqParams p = flat(1);
    p.checkViolationsAtCommit = true;
    LsqFixture f(p);
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateStore(2, 0x1004);
    f.lsq.allocateLoad(3, 0x1008);
    f.lsq.storeAddrReady(1, 0x40, 0);
    f.lsq.storeAddrReady(2, 0x48, 1);
    // Consume the only LQ port at cycle 5 with a conventional-check
    // load... LoadCheck is SearchLoadQueue by default.
    f.lsq.issueLoad(3, 0x50, 5, false);
    StoreSearchOutcome out = f.lsq.commitStore(1, 5);
    EXPECT_FALSE(out.accepted);   // delayed
    EXPECT_EQ(f.lsq.sqLive(), 2u);
    EXPECT_TRUE(f.lsq.commitStore(1, 6).accepted);
}

TEST(Lsq, CommitOutOfOrderPanics)
{
    LsqFixture f(flat());
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateStore(2, 0x1004);
    f.lsq.storeAddrReady(1, 0x10, 0);
    f.lsq.storeAddrReady(2, 0x18, 0);
    EXPECT_DEATH({ f.lsq.commitStore(2, 3); }, "SQ head");
}

// ------------------------------------------- load-load ordering -------

TEST(Lsq, ConventionalLoadLoadViolation)
{
    LsqFixture f(flat());
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    // Younger load 2 executes first (out of order), same address.
    f.lsq.issueLoad(2, 0x60, 0, true);
    LoadIssueOutcome out = f.lsq.issueLoad(1, 0x60, 3, true);
    ASSERT_EQ(out.status, LoadIssueStatus::Accepted);
    ASSERT_EQ(out.llViolations.size(), 1u);
    EXPECT_EQ(out.llViolations[0], 2u);
}

TEST(Lsq, NoViolationDifferentAddress)
{
    LsqFixture f(flat());
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.issueLoad(2, 0x60, 0, true);
    LoadIssueOutcome out = f.lsq.issueLoad(1, 0x68, 3, true);
    EXPECT_TRUE(out.llViolations.empty());
}

TEST(Lsq, NoViolationWhenOlderIssuesFirst)
{
    LsqFixture f(flat());
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.issueLoad(1, 0x60, 0, true);
    LoadIssueOutcome out = f.lsq.issueLoad(2, 0x60, 3, true);
    EXPECT_TRUE(out.llViolations.empty());
}

TEST(Lsq, LoadBufferDetectsViolationAtInOrderSearch)
{
    LsqParams p = flat();
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    p.loadBufferEntries = 2;
    LsqFixture f(p);
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    // Load 2 issues out of order -> enters the load buffer.
    EXPECT_EQ(f.lsq.issueLoad(2, 0x60, 0, true).status,
              LoadIssueStatus::Accepted);
    EXPECT_EQ(f.lsq.loadBuffer().size(), 1u);
    // Load 1 (the oldest non-issued) issues in order and searches the
    // buffer immediately.
    LoadIssueOutcome out = f.lsq.issueLoad(1, 0x60, 3, true);
    ASSERT_EQ(out.llViolations.size(), 1u);
    EXPECT_EQ(out.llViolations[0], 2u);
    // NILP passed both: buffer drains.
    EXPECT_EQ(f.lsq.loadBuffer().size(), 0u);
}

TEST(Lsq, LoadBufferDeferredSearchAtRelease)
{
    // Section 2.2.1's release-time search: X (ooo) vs younger R that
    // executed before X.
    LsqParams p = flat();
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    p.loadBufferEntries = 4;
    LsqFixture f(p);
    f.lsq.allocateLoad(1, 0x1000);   // stays non-issued for a while
    f.lsq.allocateLoad(2, 0x1004);   // X
    f.lsq.allocateLoad(3, 0x1008);   // R
    f.lsq.issueLoad(3, 0x70, 0, true);   // R executes first (ooo)
    f.lsq.issueLoad(2, 0x70, 2, true);   // X executes later (ooo)
    // No violation detected yet: X's search is deferred to release.
    // When load 1 issues, the NILP passes X and R; X's release search
    // finds R (younger, executed earlier, same address).
    LoadIssueOutcome out = f.lsq.issueLoad(1, 0x90, 5, true);
    ASSERT_EQ(out.status, LoadIssueStatus::Accepted);
    ASSERT_EQ(out.llViolations.size(), 1u);
    EXPECT_EQ(out.llViolations[0], 3u);
}

TEST(Lsq, LoadBufferFullStallsOooLoads)
{
    LsqParams p = flat();
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    p.loadBufferEntries = 1;
    LsqFixture f(p);
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.allocateLoad(3, 0x1008);
    EXPECT_EQ(f.lsq.issueLoad(2, 0x60, 0, true).status,
              LoadIssueStatus::Accepted);    // fills the 1-entry LB
    EXPECT_EQ(f.lsq.issueLoad(3, 0x68, 1, true).status,
              LoadIssueStatus::LoadBufferFull);
    // The oldest non-issued load elides the buffer entirely.
    EXPECT_EQ(f.lsq.issueLoad(1, 0x70, 2, true).status,
              LoadIssueStatus::Accepted);
    // NILP advanced past everything: load 3 can now issue.
    EXPECT_EQ(f.lsq.issueLoad(3, 0x68, 3, true).status,
              LoadIssueStatus::Accepted);
}

TEST(Lsq, InOrderPolicyForcesProgramOrder)
{
    LsqParams p = flat();
    p.loadCheck = LoadCheckPolicy::InOrder;
    LsqFixture f(p);
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    EXPECT_EQ(f.lsq.issueLoad(2, 0x60, 0, true).status,
              LoadIssueStatus::InOrderStall);
    EXPECT_EQ(f.lsq.issueLoad(1, 0x58, 0, true).status,
              LoadIssueStatus::Accepted);
    EXPECT_EQ(f.lsq.issueLoad(2, 0x60, 1, true).status,
              LoadIssueStatus::Accepted);
}

TEST(Lsq, InOrderAlwaysSearchStillSearchesLq)
{
    LsqParams p = flat();
    p.loadCheck = LoadCheckPolicy::InOrderAlwaysSearch;
    LsqFixture f(p);
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.issueLoad(1, 0x58, 0, true);
    EXPECT_EQ(f.stats.value("lq.searches.byload"), 1u);

    LsqParams q = flat();
    q.loadCheck = LoadCheckPolicy::InOrder;
    LsqFixture g(q);
    g.lsq.allocateLoad(1, 0x1000);
    g.lsq.issueLoad(1, 0x58, 0, true);
    EXPECT_EQ(g.stats.value("lq.searches.byload"), 0u);
}

// ------------------------------------------------------- squash -------

TEST(Lsq, SquashRemovesYoungEntries)
{
    LsqFixture f(flat());
    for (SeqNum i = 1; i <= 6; ++i) {
        if (i % 2)
            f.lsq.allocateLoad(i, 0x1000 + 4 * i);
        else
            f.lsq.allocateStore(i, 0x1000 + 4 * i);
    }
    f.lsq.squashFrom(4);
    EXPECT_EQ(f.lsq.lqLive(), 2u);   // loads 1, 3
    EXPECT_EQ(f.lsq.sqLive(), 1u);   // store 2
    // Reallocation after squash works.
    f.lsq.allocateStore(4, 0x2000);
    f.lsq.allocateLoad(5, 0x2004);
    EXPECT_EQ(f.lsq.sqLive(), 2u);
}

TEST(Lsq, SquashClearsLoadBuffer)
{
    LsqParams p = flat();
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    LsqFixture f(p);
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.issueLoad(2, 0x60, 0, true);
    EXPECT_EQ(f.lsq.loadBuffer().size(), 1u);
    f.lsq.squashFrom(2);
    EXPECT_EQ(f.lsq.loadBuffer().size(), 0u);
}

TEST(Lsq, OooAccountingSurvivesSquash)
{
    LsqFixture f(flat());
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.issueLoad(2, 0x60, 0, true);   // ooo
    f.lsq.squashFrom(2);
    f.lsq.sampleOccupancy();
    // After the squash no ooo load is in flight.
    EXPECT_DOUBLE_EQ(f.stats.getHistogram("ooo.inflight").mean(), 0.0);
}

// ------------------------------------------------- segmentation -------

namespace {

LsqParams
segmented(SegAllocPolicy policy, unsigned segments = 4,
          unsigned perSegment = 4, unsigned ports = 2)
{
    LsqParams p;
    p.numSegments = segments;
    p.lqEntries = perSegment;
    p.sqEntries = perSegment;
    p.searchPorts = ports;
    p.allocPolicy = policy;
    return p;
}

} // namespace

TEST(LsqSegmented, CapacityIsSegmentsTimesEntries)
{
    LsqFixture f(segmented(SegAllocPolicy::SelfCircular));
    for (SeqNum i = 0; i < 16; ++i)
        f.lsq.allocateLoad(i, 0x1000 + 4 * i);
    EXPECT_FALSE(f.lsq.canAllocateLoad());
}

TEST(LsqSegmented, MultiSegmentForwardingSearch)
{
    // Fill several SQ segments with stores, then search from a young
    // load toward the head: the visit count reflects the span.
    LsqFixture f(segmented(SegAllocPolicy::NoSelfCircular));
    SeqNum seq = 0;
    for (; seq < 12; ++seq)
        f.lsq.allocateStore(seq, 0x1000 + 4 * seq);
    for (SeqNum s = 0; s < 12; ++s)
        f.lsq.storeAddrReady(s, 0x5000 + 16 * s, s);
    f.lsq.allocateLoad(seq, 0x2000);
    // The match is the oldest store (segment 0), 3 segments away.
    LoadIssueOutcome out = f.lsq.issueLoad(seq, 0x5000, 20, true);
    ASSERT_EQ(out.status, LoadIssueStatus::Accepted);
    EXPECT_TRUE(out.forwarded);
    EXPECT_EQ(out.forwardedFrom, 0u);
    EXPECT_EQ(out.sqSegmentsVisited, 3u);
    EXPECT_EQ(out.searchDoneCycle, 23u);
    EXPECT_FALSE(out.constantLatency);
}

TEST(LsqSegmented, SearchStopsAtMatchSegment)
{
    LsqFixture f(segmented(SegAllocPolicy::NoSelfCircular));
    SeqNum seq = 0;
    for (; seq < 12; ++seq)
        f.lsq.allocateStore(seq, 0x1000 + 4 * seq);
    for (SeqNum s = 0; s < 12; ++s)
        f.lsq.storeAddrReady(s, 0x5000 + 16 * s, s);
    f.lsq.allocateLoad(seq, 0x2000);
    // Match in the youngest (third) segment: one visit.
    LoadIssueOutcome out =
        f.lsq.issueLoad(seq, 0x5000 + 16 * 11, 20, true);
    EXPECT_TRUE(out.forwarded);
    EXPECT_EQ(out.sqSegmentsVisited, 1u);
}

TEST(LsqSegmented, HeadSegmentLoadsHaveConstantLatency)
{
    LsqFixture f(segmented(SegAllocPolicy::SelfCircular));
    // Few stores, all in one segment: every load's search is confined
    // to the head segment -> early wakeup is preserved.
    f.lsq.allocateStore(0, 0x1000);
    f.lsq.storeAddrReady(0, 0x5000, 0);
    f.lsq.allocateLoad(1, 0x2000);
    LoadIssueOutcome out = f.lsq.issueLoad(1, 0x6000, 2, true);
    EXPECT_TRUE(out.constantLatency);
}

TEST(LsqSegmented, PipelinedSearchesContend)
{
    // A 1-port segmented queue: a walk booked through segment 0 at
    // cycle T+1 collides with a new search initiated there.
    LsqFixture f(segmented(SegAllocPolicy::NoSelfCircular, 4, 4, 1));
    SeqNum seq = 0;
    for (; seq < 8; ++seq)
        f.lsq.allocateStore(seq, 0x1000 + 4 * seq);
    for (SeqNum s = 0; s < 8; ++s)
        f.lsq.storeAddrReady(s, 0x5000 + 16 * s, s);
    // Load A searches from segment 1 toward segment 0: books
    // (seg1, 20) and (seg0, 21).
    f.lsq.allocateLoad(seq, 0x2000);
    LoadIssueOutcome a = f.lsq.issueLoad(seq, 0x5000, 20, true);
    ASSERT_EQ(a.status, LoadIssueStatus::Accepted);
    EXPECT_EQ(a.sqSegmentsVisited, 2u);
    ++seq;
    // Load B at cycle 21 wants the same walk starting at segment 1:
    // (seg1,21) free, (seg0,22) free -> fine. But a search needing
    // (seg0, 21) directly conflicts:
    f.lsq.allocateLoad(seq, 0x2004);
    LoadIssueOutcome b = f.lsq.issueLoad(seq, 0x5000 + 16, 21, true);
    // Its walk starts at seg1 cycle21... books fine; to force the
    // collision, issue another search the same cycle.
    ASSERT_EQ(b.status, LoadIssueStatus::Accepted);
    ++seq;
    f.lsq.allocateLoad(seq, 0x2008);
    LoadIssueOutcome c = f.lsq.issueLoad(seq, 0x5000, 21, true);
    EXPECT_NE(c.status, LoadIssueStatus::Accepted);
}

TEST(LsqSegmented, ContentionPolicyStallReportsPortBusy)
{
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular, 4, 4, 1);
    p.contentionPolicy = ContentionPolicy::Stall;
    LsqFixture f(p);
    SeqNum seq = 0;
    for (; seq < 8; ++seq)
        f.lsq.allocateStore(seq, 0x1000 + 4 * seq);
    for (SeqNum s = 0; s < 8; ++s)
        f.lsq.storeAddrReady(s, 0x5000 + 16 * s, s);
    f.lsq.allocateLoad(seq, 0x2000);
    f.lsq.issueLoad(seq, 0x5000, 20, true);
    ++seq;
    f.lsq.allocateLoad(seq, 0x2004);
    f.lsq.issueLoad(seq, 0x5000 + 16, 21, true);
    ++seq;
    f.lsq.allocateLoad(seq, 0x2008);
    LoadIssueOutcome c = f.lsq.issueLoad(seq, 0x5000, 21, true);
    EXPECT_TRUE(c.status == LoadIssueStatus::NoSqPort ||
                c.status == LoadIssueStatus::NoLqPort);
}

TEST(LsqSegmented, SegmentDistributionHistogram)
{
    LsqFixture f(segmented(SegAllocPolicy::NoSelfCircular));
    SeqNum seq = 0;
    for (; seq < 12; ++seq)
        f.lsq.allocateStore(seq, 0x1000 + 4 * seq);
    for (SeqNum s = 0; s < 12; ++s)
        f.lsq.storeAddrReady(s, 0x5000 + 16 * s, s);
    f.lsq.allocateLoad(seq, 0x2000);
    f.lsq.issueLoad(seq, 0x5000, 20, true);   // 3 segments
    const Histogram &h = f.stats.getHistogram("sq.search.segments");
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
}

// Property sweep over configurations: issue/commit round trips keep
// occupancy consistent for every (policy, segments, ports) combo.
class LsqConfigSweep
    : public ::testing::TestWithParam<
          std::tuple<SegAllocPolicy, unsigned, unsigned>>
{
};

TEST_P(LsqConfigSweep, RoundTripConsistency)
{
    auto [policy, segments, ports] = GetParam();
    LsqParams p;
    p.numSegments = segments;
    p.lqEntries = 8;
    p.sqEntries = 8;
    p.searchPorts = ports;
    p.allocPolicy = policy;
    StatSet stats;
    Lsq lsq(p, kWindow, stats);

    Cycle now = 0;
    SeqNum seq = 0;
    for (int round = 0; round < 20; ++round) {
        std::vector<SeqNum> loads, stores;
        for (int i = 0; i < 6; ++i) {
            if (i % 3 == 2) {
                lsq.allocateStore(seq, 0x1000 + 4 * seq);
                stores.push_back(seq);
            } else {
                lsq.allocateLoad(seq, 0x1000 + 4 * seq);
                loads.push_back(seq);
            }
            ++seq;
        }
        for (SeqNum s : stores) {
            while (!lsq.storeAddrReady(s, 0x9000 + 8 * (s % 64), now)
                        .accepted)
                ++now;
            ++now;
        }
        for (SeqNum l : loads) {
            LoadIssueOutcome out;
            do {
                out = lsq.issueLoad(l, 0x9000 + 8 * (l % 64), now,
                                    true);
                ++now;
            } while (out.status != LoadIssueStatus::Accepted);
        }
        // Commit in program order.
        std::size_t li = 0, si = 0;
        for (int i = 0; i < 6; ++i) {
            if (i % 3 == 2) {
                while (!lsq.commitStore(stores[si], now).accepted)
                    ++now;
                ++si;
                ++now;
            } else {
                lsq.commitLoad(loads[li++]);
            }
        }
        ASSERT_EQ(lsq.lqLive(), 0u);
        ASSERT_EQ(lsq.sqLive(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LsqConfigSweep,
    ::testing::Combine(::testing::Values(SegAllocPolicy::NoSelfCircular,
                                         SegAllocPolicy::SelfCircular),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 2u, 4u)));

// --------------------------------------- invalidation extension -------

TEST(LsqInvalidate, MatchesOutstandingLoad)
{
    LsqFixture f(flat());
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.issueLoad(1, 0xAA0, 0, true);
    StoreSearchOutcome out = f.lsq.invalidate(0xAA0, 3);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.violationLoad, 1u);
    EXPECT_EQ(f.stats.value("lq.searches.invalidation"), 1u);
}

TEST(LsqInvalidate, MissesUnexecutedAndOtherAddresses)
{
    LsqFixture f(flat());
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.issueLoad(2, 0xBB0, 0, true);
    EXPECT_EQ(f.lsq.invalidate(0xCC0, 3).violationLoad, kNoSeq);
    // Load 1 never executed: not outstanding.
    EXPECT_EQ(f.lsq.invalidate(0x1000, 4).violationLoad, kNoSeq);
}

TEST(LsqInvalidate, ConsumesLqPort)
{
    LsqFixture f(flat(1));
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.issueLoad(1, 0xAA0, 0, true);   // uses the LQ port at 0
    EXPECT_FALSE(f.lsq.invalidate(0xAA0, 0).accepted);
    EXPECT_TRUE(f.lsq.invalidate(0xAA0, 1).accepted);
}

TEST(LsqInvalidate, OldestOutstandingLoadSquashed)
{
    LsqFixture f(flat(4));
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.issueLoad(1, 0xDD0, 0, true);
    f.lsq.issueLoad(2, 0xDD0, 1, true);
    EXPECT_EQ(f.lsq.invalidate(0xDD0, 5).violationLoad, 1u);
}

// Coherence probes under the load-buffer snoop policies: the probe
// searches only the tiny out-of-order-issued-loads CAM and never
// takes an LQ port (the point of the paper's scheme 2).

TEST(LoadBuffer, FindMatchReturnsOldestResident)
{
    LoadBuffer lb(4);
    lb.insert(7, 0xAA0, 10);
    lb.insert(5, 0xAA0, 12);
    lb.insert(6, 0xBB0, 11);
    EXPECT_EQ(lb.findMatch(0xAA0), 5u);
    EXPECT_EQ(lb.findMatch(0xBB0), 6u);
    EXPECT_EQ(lb.findMatch(0xCC0), kNoSeq);
    lb.release(5);                        // NILP passed it: replaced
    EXPECT_EQ(lb.findMatch(0xAA0), 7u);
    lb.squashFrom(6);
    EXPECT_EQ(lb.findMatch(0xAA0), kNoSeq);
}

namespace {

LsqParams
lbPolicy(unsigned ports = 1, unsigned lbEntries = 4)
{
    LsqParams p = flat(ports);
    p.loadCheck = LoadCheckPolicy::LoadBuffer;
    p.loadBufferEntries = lbEntries;
    return p;
}

} // namespace

TEST(LsqInvalidate, LoadBufferSnoopSquashesVulnerableLoad)
{
    LsqFixture f(lbPolicy());
    f.lsq.allocateLoad(1, 0x1000);        // never issues: load 2 is OOO
    f.lsq.allocateLoad(2, 0x1004);
    ASSERT_EQ(f.lsq.issueLoad(2, 0xAA0, 0, false).status,
              LoadIssueStatus::Accepted);
    StoreSearchOutcome out = f.lsq.invalidate(0xAA0, 3);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.violationLoad, 2u);
    EXPECT_EQ(out.violationLoadPc, 0x1004u);
    // The snoop hits the load buffer, not the LQ CAM.
    EXPECT_EQ(f.stats.value("lb.probes"), 1u);
    EXPECT_EQ(f.stats.value("lq.searches.invalidation"), 0u);
}

TEST(LsqInvalidate, LoadBufferSnoopIsPortFree)
{
    // One search port, and it is busy: probes are still accepted in
    // the same cycle, any number of them (no LQ walk reservation).
    LsqFixture f(lbPolicy(1));
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    ASSERT_EQ(f.lsq.issueLoad(2, 0xAA0, 0, false).status,
              LoadIssueStatus::Accepted);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(f.lsq.invalidate(0xDD0, 0).accepted);
}

TEST(LsqInvalidate, LoadBufferSnoopIgnoresInOrderIssuedLoad)
{
    // A load that issued in program order never enters the buffer, so
    // a probe to its line reports no victim: the older-load horizon
    // it could violate does not exist.
    LsqFixture f(lbPolicy());
    f.lsq.allocateLoad(1, 0x1000);
    ASSERT_EQ(f.lsq.issueLoad(1, 0xAA0, 0, false).status,
              LoadIssueStatus::Accepted);
    StoreSearchOutcome out = f.lsq.invalidate(0xAA0, 2);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.violationLoad, kNoSeq);
}

TEST(LsqInvalidate, LoadBufferSnoopMissesReleasedLoad)
{
    // Once the NILP passes an out-of-order-issued load (every older
    // load has issued), it leaves the buffer and probes no longer
    // squash it.
    LsqFixture f(lbPolicy(2));
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    ASSERT_EQ(f.lsq.issueLoad(2, 0xAA0, 0, false).status,
              LoadIssueStatus::Accepted);
    EXPECT_EQ(f.lsq.invalidate(0xAA0, 1).violationLoad, 2u);
    ASSERT_EQ(f.lsq.issueLoad(1, 0xBB0, 2, false).status,
              LoadIssueStatus::Accepted);   // NILP passes load 2
    EXPECT_EQ(f.lsq.invalidate(0xAA0, 3).violationLoad, kNoSeq);
}

TEST(LsqInvalidate, LoadBufferSnoopPicksOldestVulnerable)
{
    LsqFixture f(lbPolicy(2));
    f.lsq.allocateLoad(1, 0x1000);        // never issues
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.allocateLoad(3, 0x1008);
    ASSERT_EQ(f.lsq.issueLoad(3, 0xAA0, 0, false).status,
              LoadIssueStatus::Accepted);
    ASSERT_EQ(f.lsq.issueLoad(2, 0xAA0, 1, false).status,
              LoadIssueStatus::Accepted);
    EXPECT_EQ(f.lsq.invalidate(0xAA0, 2).violationLoad, 2u);
}

TEST(LsqInvalidate, SquashOnProbeEmptiesBuffer)
{
    // The squash a probe demands also removes the victim (and all
    // younger loads) from the buffer: a replayed probe finds nothing.
    LsqFixture f(lbPolicy());
    f.lsq.allocateLoad(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.allocateLoad(3, 0x1008);
    ASSERT_EQ(f.lsq.issueLoad(2, 0xAA0, 0, false).status,
              LoadIssueStatus::Accepted);
    ASSERT_EQ(f.lsq.issueLoad(3, 0xAA0, 1, false).status,
              LoadIssueStatus::Accepted);
    SeqNum victim = f.lsq.invalidate(0xAA0, 2).violationLoad;
    ASSERT_EQ(victim, 2u);
    f.lsq.squashFrom(victim);
    EXPECT_EQ(f.lsq.invalidate(0xAA0, 3).violationLoad, kNoSeq);
}

TEST(LsqInvalidate, InOrderPolicySnoopIsEmptyNoop)
{
    // The "0-entry load buffer" baseline: in-order issue keeps the
    // buffer empty, so every probe is accepted and nothing is ever
    // squashed — the scheme's correctness argument in miniature.
    LsqParams p = flat(1);
    p.loadCheck = LoadCheckPolicy::InOrder;
    p.loadBufferEntries = 0;
    LsqFixture f(p);
    f.lsq.allocateLoad(1, 0x1000);
    ASSERT_EQ(f.lsq.issueLoad(1, 0xAA0, 0, false).status,
              LoadIssueStatus::Accepted);
    StoreSearchOutcome out = f.lsq.invalidate(0xAA0, 1);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.violationLoad, kNoSeq);
}

// ------------------------------------------------- ProbeAgent ---------

TEST(ProbeAgent, ScriptedWritersFireOnSchedule)
{
    ProbeAgentParams p;
    p.enabled = true;
    p.writers.push_back(ProbeWriter{0xAA0, 10, 0, 0});    // one-shot
    p.writers.push_back(ProbeWriter{0xBB0, 12, 5, 2});    // two writes
    ProbeAgent agent(p);
    Addr a = 0;
    for (Cycle c = 0; c < 10; ++c)
        EXPECT_FALSE(agent.due(c, a)) << c;
    ASSERT_TRUE(agent.due(10, a));
    EXPECT_EQ(a, 0xAA0u);
    agent.delivered(a, 10, kNoSeq);
    EXPECT_FALSE(agent.due(11, a));
    ASSERT_TRUE(agent.due(12, a));
    EXPECT_EQ(a, 0xBB0u);
    agent.delivered(a, 12, kNoSeq);
    ASSERT_TRUE(agent.due(17, a));
    agent.delivered(a, 17, kNoSeq);
    for (Cycle c = 18; c < 40; ++c)
        EXPECT_FALSE(agent.due(c, a)) << c;   // count exhausted
    EXPECT_EQ(agent.deliveredCount(), 3u);
}

TEST(ProbeAgent, RejectedProbeRetriesInFifoOrder)
{
    ProbeAgentParams p;
    p.enabled = true;
    p.writers.push_back(ProbeWriter{0xAA0, 5, 0, 0});
    p.writers.push_back(ProbeWriter{0xBB0, 6, 0, 0});
    ProbeAgent agent(p);
    Addr a = 0;
    ASSERT_TRUE(agent.due(5, a));
    EXPECT_EQ(a, 0xAA0u);
    agent.rejected();                     // no LQ port this cycle
    ASSERT_TRUE(agent.due(6, a));
    EXPECT_EQ(a, 0xAA0u);                 // still first in line
    agent.delivered(a, 6, kNoSeq);
    ASSERT_TRUE(agent.due(7, a));
    EXPECT_EQ(a, 0xBB0u);
    agent.delivered(a, 7, kNoSeq);
    EXPECT_EQ(agent.rejectedCount(), 1u);
    EXPECT_EQ(agent.pendingProbes(), 0u);
}

TEST(ProbeAgent, WatchSetOverflowEvictsOldest)
{
    ProbeAgentParams p;
    p.enabled = true;
    p.watchCapacity = 2;
    ProbeAgent agent(p);
    agent.observeLoadCommit(1, 0x100, 0xAA0, 5, kNoSeq, 6);
    agent.observeLoadCommit(2, 0x104, 0xBB0, 6, kNoSeq, 7);
    agent.observeLoadCommit(3, 0x108, 0xBB0, 7, kNoSeq, 8);  // dup
    EXPECT_EQ(agent.watchSize(), 2u);
    EXPECT_EQ(agent.watchEvictions(), 0u);
    agent.observeStoreCommit(4, 0x10c, 0xCC0, 9);            // evicts AA0
    EXPECT_EQ(agent.watchSize(), 2u);
    EXPECT_EQ(agent.watchEvictions(), 1u);
}

TEST(ProbeAgent, TriggerChasesStoreCommit)
{
    ProbeAgentParams p;
    p.enabled = true;
    p.triggers.push_back(ProbeTrigger{0xBB0, 0xAA0, 3});
    ProbeAgent agent(p);
    Addr a = 0;
    EXPECT_FALSE(agent.due(4, a));
    agent.observeStoreCommit(1, 0x100, 0xBB0, 5);
    EXPECT_FALSE(agent.due(6, a));        // fires at 5 + 3
    EXPECT_FALSE(agent.due(7, a));
    ASSERT_TRUE(agent.due(8, a));
    EXPECT_EQ(a, 0xAA0u);
    agent.delivered(a, 8, kNoSeq);
}

TEST(ProbeAgent, ValueIndicesCountPerAddress)
{
    ProbeAgentParams p;
    p.enabled = true;
    p.writers.push_back(ProbeWriter{0xAA0, 2, 4, 2});
    p.writers.push_back(ProbeWriter{0xBB0, 4, 0, 0});
    ProbeAgent agent(p);
    Addr a = 0;
    for (Cycle c = 0; c < 12; ++c) {
        if (agent.due(c, a))
            agent.delivered(a, c, kNoSeq);
    }
    ASSERT_EQ(agent.writes().size(), 3u);
    EXPECT_EQ(agent.valueAt(0xAA0, 1), 0u);
    EXPECT_EQ(agent.valueAt(0xAA0, 2), 1u);
    EXPECT_EQ(agent.valueAt(0xAA0, 6), 2u);
    EXPECT_EQ(agent.valueAt(0xBB0, 3), 0u);
    EXPECT_EQ(agent.valueAt(0xBB0, 100), 1u);
    EXPECT_EQ(agent.squashCount(), 0u);
}

TEST(LsqSegmented, CommitSchemeSearchesAcrossSegments)
{
    // Pair scheme on a segmented queue: a committing store's LQ
    // violation search walks the segments holding younger loads.
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular);
    p.checkViolationsAtCommit = true;
    p.loadCheck = LoadCheckPolicy::None;
    LsqFixture f(p);
    f.lsq.allocateStore(0, 0x1000);
    f.lsq.storeAddrReady(0, 0x7000, 0);
    SeqNum seq = 1;
    for (; seq <= 12; ++seq) {
        f.lsq.allocateLoad(seq, 0x1000 + 4 * seq);
        LoadIssueOutcome out =
            f.lsq.issueLoad(seq, 0x8000 + 16 * seq, seq, false);
        ASSERT_EQ(out.status, LoadIssueStatus::Accepted);
    }
    StoreSearchOutcome out = f.lsq.commitStore(0, 40);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.violationLoad, kNoSeq);
    EXPECT_GE(out.segmentsVisited, 3u);   // loads span >= 3 segments
}

TEST(LsqSegmented, CommitSchemeFindsViolatorInLaterSegment)
{
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular);
    p.checkViolationsAtCommit = true;
    p.loadCheck = LoadCheckPolicy::None;
    LsqFixture f(p);
    f.lsq.allocateStore(0, 0x1000);
    f.lsq.storeAddrReady(0, 0x7000, 0);
    SeqNum seq = 1;
    for (; seq <= 12; ++seq) {
        f.lsq.allocateLoad(seq, 0x1000 + 4 * seq);
        // The 10th load (third LQ segment) reads the store's address
        // prematurely (predicted independent).
        Addr a = (seq == 10) ? 0x7000 : 0x8000 + 16 * seq;
        f.lsq.issueLoad(seq, a, seq, false);
    }
    StoreSearchOutcome out = f.lsq.commitStore(0, 40);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.violationLoad, 10u);
}

TEST(Lsq, OccupancyHistogramsSample)
{
    LsqFixture f(flat());
    f.lsq.allocateLoad(0, 0x1000);
    f.lsq.allocateStore(1, 0x1004);
    f.lsq.sampleOccupancy();
    f.lsq.sampleOccupancy();
    const Histogram &lq = f.stats.getHistogram("lq.occupancy");
    const Histogram &sq = f.stats.getHistogram("sq.occupancy");
    EXPECT_EQ(lq.samples(), 2u);
    EXPECT_DOUBLE_EQ(lq.mean(), 1.0);
    EXPECT_DOUBLE_EQ(sq.mean(), 1.0);
}

TEST(Lsq, AnyOlderStoreUnaddressed)
{
    LsqFixture f(flat());
    f.lsq.allocateStore(1, 0x1000);
    f.lsq.allocateLoad(2, 0x1004);
    f.lsq.allocateStore(3, 0x1008);
    EXPECT_TRUE(f.lsq.anyOlderStoreUnaddressed(2));
    f.lsq.storeAddrReady(1, 0x40, 0);
    EXPECT_FALSE(f.lsq.anyOlderStoreUnaddressed(2));
    // Store 3 is younger than load 2: irrelevant to it.
    EXPECT_TRUE(f.lsq.anyOlderStoreUnaddressed(4));
}

TEST(LsqSegmented, InvalidationWalksLoadSegments)
{
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular);
    p.loadCheck = LoadCheckPolicy::None;
    LsqFixture f(p);
    for (SeqNum seq = 0; seq < 12; ++seq) {
        f.lsq.allocateLoad(seq, 0x1000 + 4 * seq);
        f.lsq.issueLoad(seq, 0x8000 + 16 * seq, seq, false);
    }
    // Match in the last allocated segment: the walk spans them all.
    StoreSearchOutcome out = f.lsq.invalidate(0x8000 + 16 * 11, 40);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.violationLoad, 11u);
    EXPECT_EQ(out.segmentsVisited, 3u);
}

TEST(LsqSegmented, InFlightWalkBlocksNewSearchAtItsSegment)
{
    // The paper's Section 3.2 contention: an earlier-initiated search
    // arriving at a segment blocks a search initiating there. In our
    // *split-queue* implementation every walk in a given queue travels
    // the same direction at one segment/cycle, so the collision always
    // surfaces at the newcomer's FIRST slot (a plain port rejection
    // that retries next cycle) — the downstream-collision squash case
    // of the combined-queue design cannot arise. See EXPERIMENTS.md.
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular, 4, 4, 1);
    LsqFixture f(p);
    SeqNum seq = 0;
    for (; seq < 8; ++seq)
        f.lsq.allocateStore(seq, 0x1000 + 4 * seq);
    for (SeqNum s = 0; s < 8; ++s)
        f.lsq.storeAddrReady(s, 0x5000 + 16 * s, s);
    // Load A (young: all 8 stores are older) initiates at cycle 20:
    // its search walks SQ (seg1, 20) then (seg0, 21).
    f.lsq.allocateLoad(seq, 0x2000);
    ASSERT_EQ(f.lsq.issueLoad(seq, 0x5000, 20, true).status,
              LoadIssueStatus::Accepted);
    // Load B is *older than the seg1 stores* (we model it by noting
    // that a load whose older stores all live in seg0 starts its walk
    // there): issue a second young load at 21 whose single-segment
    // walk (seg0, 21) meets A's walk arriving at seg0 that cycle.
    // With 8 older stores spanning both segments the walk is
    // (seg1, 21), (seg0, 22) — parallel to A's and conflict-free; so
    // instead collide at initiation: a third search in cycle 20.
    ++seq;
    f.lsq.allocateLoad(seq, 0x2004);
    LoadIssueOutcome sameCycle = f.lsq.issueLoad(seq, 0x5010, 20, true);
    EXPECT_EQ(sameCycle.status, LoadIssueStatus::NoSqPort);
    // Retrying one cycle later succeeds (the walk moved on).
    LoadIssueOutcome retry = f.lsq.issueLoad(seq, 0x5010, 21, true);
    EXPECT_EQ(retry.status, LoadIssueStatus::Accepted);
}

TEST(LsqSegmented, ArrivingWalkBlocksShortSearchAtHeadSegment)
{
    // A genuinely cross-positional case: an older load whose matching
    // stores all live in the head segment starts its one-segment walk
    // exactly where a younger load's multi-segment walk arrives.
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular, 4, 4, 1);
    p.loadCheck = LoadCheckPolicy::None;
    LsqFixture f(p);
    SeqNum seq = 0;
    for (; seq < 4; ++seq) {   // stores 0-3 -> SQ segment 0
        f.lsq.allocateStore(seq, 0x1000 + 4 * seq);
        f.lsq.storeAddrReady(seq, 0x5000 + 16 * seq, seq);
    }
    SeqNum oldLoad = seq++;    // load 4: older stores are seg0 only
    f.lsq.allocateLoad(oldLoad, 0x2000);
    for (; seq < 9; ++seq) {   // stores 5-8 -> SQ segment 1
        f.lsq.allocateStore(seq, 0x1000 + 4 * seq);
        f.lsq.storeAddrReady(seq, 0x6000 + 16 * seq, seq + 4);
    }
    SeqNum youngLoad = seq++;  // load 9: walk spans seg1 then seg0
    f.lsq.allocateLoad(youngLoad, 0x2004);
    ASSERT_EQ(f.lsq.issueLoad(youngLoad, 0x5000, 20, true).status,
              LoadIssueStatus::Accepted);
    // load 4's one-segment walk is (seg0, 21) — exactly where load 9's
    // walk arrives: blocked, then fine a cycle later.
    EXPECT_EQ(f.lsq.issueLoad(oldLoad, 0x5000, 21, true).status,
              LoadIssueStatus::NoSqPort);
    EXPECT_EQ(f.lsq.issueLoad(oldLoad, 0x5000, 22, true).status,
              LoadIssueStatus::Accepted);
}

TEST(Lsq, SqSearchWithNoOlderStoresVisitsOneSegment)
{
    LsqFixture f(flat());
    f.lsq.allocateLoad(0, 0x1000);
    LoadIssueOutcome out = f.lsq.issueLoad(0, 0x9000, 0, true);
    ASSERT_EQ(out.status, LoadIssueStatus::Accepted);
    EXPECT_TRUE(out.searchedSq);
    EXPECT_FALSE(out.forwarded);
    EXPECT_EQ(out.sqSegmentsVisited, 1u);
    EXPECT_TRUE(out.constantLatency);
}

TEST(Lsq, ForwardingIgnoredWhenSearchSkipped)
{
    // A matching older store exists, but the load was predicted
    // independent: no forwarding, and the stale read is later caught
    // by the commit-time check.
    LsqParams p = flat();
    p.checkViolationsAtCommit = true;
    LsqFixture f(p);
    f.lsq.allocateStore(0, 0x1000);
    f.lsq.storeAddrReady(0, 0x9000, 0);
    f.lsq.allocateLoad(1, 0x1004);
    LoadIssueOutcome out = f.lsq.issueLoad(1, 0x9000, 2, false);
    ASSERT_EQ(out.status, LoadIssueStatus::Accepted);
    EXPECT_FALSE(out.searchedSq);
    EXPECT_FALSE(out.forwarded);
    StoreSearchOutcome commit = f.lsq.commitStore(0, 10);
    EXPECT_EQ(commit.violationLoad, 1u);
}

// ------------------------------------------------ combined queue ------

TEST(LsqCombined, SharedCapacity)
{
    LsqParams p = flat(2, 4);
    p.combinedQueue = true;   // 4 shared entries total
    LsqFixture f(p);
    f.lsq.allocateLoad(0, 0x1000);
    f.lsq.allocateStore(1, 0x1004);
    f.lsq.allocateLoad(2, 0x1008);
    f.lsq.allocateStore(3, 0x100c);
    EXPECT_FALSE(f.lsq.canAllocateLoad());
    EXPECT_FALSE(f.lsq.canAllocateStore());
    EXPECT_EQ(f.lsq.lqLive(), 2u);
    EXPECT_EQ(f.lsq.sqLive(), 2u);
}

TEST(LsqCombined, CommitInProgramOrderFreesShared)
{
    LsqParams p = flat(2, 4);
    p.combinedQueue = true;
    LsqFixture f(p);
    f.lsq.allocateStore(0, 0x1000);
    f.lsq.allocateLoad(1, 0x1004);
    f.lsq.storeAddrReady(0, 0x40, 0);
    f.lsq.issueLoad(1, 0x48, 1, true);
    f.lsq.commitStore(0, 5);
    f.lsq.commitLoad(1);
    EXPECT_EQ(f.lsq.lqLive(), 0u);
    EXPECT_EQ(f.lsq.sqLive(), 0u);
    // Four fresh entries fit again.
    for (SeqNum s = 10; s < 14; ++s)
        f.lsq.allocateLoad(s, 0x2000 + 4 * s);
    EXPECT_FALSE(f.lsq.canAllocateStore());
}

TEST(LsqCombined, SquashInterleavesTypes)
{
    LsqParams p = flat(2, 8);
    p.combinedQueue = true;
    LsqFixture f(p);
    for (SeqNum s = 0; s < 8; ++s) {
        if (s % 2)
            f.lsq.allocateStore(s, 0x1000 + 4 * s);
        else
            f.lsq.allocateLoad(s, 0x1000 + 4 * s);
    }
    f.lsq.squashFrom(3);
    EXPECT_EQ(f.lsq.lqLive(), 2u);   // loads 0, 2
    EXPECT_EQ(f.lsq.sqLive(), 1u);   // store 1
    // Capacity accounting is consistent: five more fit.
    for (SeqNum s = 20; s < 25; ++s)
        f.lsq.allocateLoad(s, 0x2000 + 4 * s);
    EXPECT_FALSE(f.lsq.canAllocateLoad());
}

TEST(LsqCombined, SharedPortsAcrossSearchTypes)
{
    // One shared port: a load's forwarding search and a store's
    // violation search contend in the same cycle.
    LsqParams p = flat(1, 8);
    p.combinedQueue = true;
    p.loadCheck = LoadCheckPolicy::None;
    LsqFixture f(p);
    f.lsq.allocateStore(0, 0x1000);
    f.lsq.allocateStore(1, 0x1004);
    f.lsq.allocateLoad(2, 0x1008);
    f.lsq.storeAddrReady(0, 0x40, 0);
    // Load's SQ search at cycle 3 takes the single shared port...
    EXPECT_EQ(f.lsq.issueLoad(2, 0x48, 3, true).status,
              LoadIssueStatus::Accepted);
    // ...so the store's execute-time LQ search is rejected this cycle.
    EXPECT_FALSE(f.lsq.storeAddrReady(1, 0x50, 3).accepted);
    EXPECT_TRUE(f.lsq.storeAddrReady(1, 0x50, 4).accepted);
}

TEST(LsqCombined, CrossDirectionContentionIsReachable)
{
    // Figure 5 / Section 3.2: a store's tail-ward violation walk and a
    // load's head-ward forwarding walk cross inside the shared
    // segments, colliding at a *downstream* slot — the case the split
    // queues preclude.
    LsqParams p;
    p.combinedQueue = true;
    p.numSegments = 4;
    p.lqEntries = 4;
    p.sqEntries = 4;
    p.searchPorts = 1;
    p.loadCheck = LoadCheckPolicy::None;
    LsqFixture f(p);
    // Layout (self-circular, 4 shared entries/segment):
    //   seg0: store0 (match target) + loads 1-3
    //   seg1: loads 4-7
    //   seg2: store8 + loads 9-11
    //   seg3: store12 + load13 (the searcher)
    f.lsq.allocateStore(0, 0x1000);
    f.lsq.storeAddrReady(0, 0x9000, 0);
    SeqNum seq = 1;
    for (; seq <= 7; ++seq) {
        f.lsq.allocateLoad(seq, 0x1000 + 4 * seq);
        f.lsq.issueLoad(seq, 0x8000 + 16 * seq, seq, false);
    }
    f.lsq.allocateStore(8, 0x1020);
    f.lsq.storeAddrReady(8, 0x7000, 8);
    for (seq = 9; seq <= 11; ++seq) {
        f.lsq.allocateLoad(seq, 0x1000 + 4 * seq);
        f.lsq.issueLoad(seq, 0x8000 + 16 * seq, seq, false);
    }
    f.lsq.allocateStore(12, 0x1030);
    f.lsq.storeAddrReady(12, 0x6000, 12);

    // A tail-ward walk (invalidation) books (seg0,20), (seg1,21),
    // (seg2,22) on the shared ports.
    StoreSearchOutcome inval = f.lsq.invalidate(0xdead0, 20);
    ASSERT_TRUE(inval.accepted);
    ASSERT_GE(inval.segmentsVisited, 3u);

    // Load 13's head-ward forwarding walk visits seg3 (store 12),
    // then seg2 (store 8): its first slot (seg3, 21) is free but the
    // downstream slot (seg2, 22) is held by the crossing walk ->
    // Contention (the paper's squash-and-replay case).
    f.lsq.allocateLoad(13, 0x3000);
    LoadIssueOutcome out = f.lsq.issueLoad(13, 0x9000, 21, true);
    EXPECT_EQ(out.status, LoadIssueStatus::Contention);
    EXPECT_GE(f.stats.value("lsq.contention.loads"), 1u);
}

// ------------------------------------------------ retry rules ---------
//
// A search is accepted or rejected on its first visited segment: no
// free port there is NoSqPort/NoLqPort (the caller retries next cycle);
// a free first segment with a booked downstream slot is contention.
// These pin where each walk starts.

TEST(LsqRetryRule, SqWalkStartsAtYoungestOlderStoreSegment)
{
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular, 4, 4, 1);
    p.loadCheck = LoadCheckPolicy::None;
    LsqFixture f(p);
    // SQ seg0: stores 0-3; loads 4, 5; SQ seg1: stores 6-9; load 10.
    SeqNum seq = 0;
    for (; seq < 4; ++seq) {
        f.lsq.allocateStore(seq, 0x1000 + 4 * seq);
        f.lsq.storeAddrReady(seq, 0x5000 + 16 * seq, seq);
    }
    f.lsq.allocateLoad(4, 0x2000);
    f.lsq.allocateLoad(5, 0x2004);
    for (seq = 6; seq < 10; ++seq) {
        f.lsq.allocateStore(seq, 0x1000 + 4 * seq);
        f.lsq.storeAddrReady(seq, 0x6000 + 16 * seq, seq);
    }
    f.lsq.allocateLoad(10, 0x2008);
    // Load 10 walks (seg1, 20) then (seg0, 21).
    ASSERT_EQ(f.lsq.issueLoad(10, 0x9000, 20, true).status,
              LoadIssueStatus::Accepted);
    // Load 5's youngest older store (3) is in seg0, free in cycle 20,
    // though the SQ's youngest store's segment (seg1) is booked.
    EXPECT_EQ(f.lsq.issueLoad(5, 0x9000, 20, true).status,
              LoadIssueStatus::Accepted);
    // Load 4 starts at seg0 too, booked in cycle 21: a port rejection.
    EXPECT_EQ(f.lsq.issueLoad(4, 0x9000, 21, true).status,
              LoadIssueStatus::NoSqPort);
    EXPECT_EQ(f.stats.value("lsq.contention.loads"), 0u);
    EXPECT_EQ(f.lsq.issueLoad(4, 0x9000, 22, true).status,
              LoadIssueStatus::Accepted);
}

TEST(LsqRetryRule, SqWalkWithNoOlderStoreStartsAtTailSegment)
{
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular, 4, 4, 1);
    p.loadCheck = LoadCheckPolicy::None;
    LsqFixture f(p);
    // Load 0 has no older store. Stores 1-5 fill SQ seg0 and start
    // seg1, so the SQ tail segment is seg1.
    f.lsq.allocateLoad(0, 0x2000);
    for (SeqNum s = 1; s <= 5; ++s) {
        f.lsq.allocateStore(s, 0x1000 + 4 * s);
        f.lsq.storeAddrReady(s, 0x5000 + 16 * s, s);
    }
    f.lsq.allocateLoad(6, 0x2004);
    // Load 6 walks (seg1, 20) then (seg0, 21).
    ASSERT_EQ(f.lsq.issueLoad(6, 0x9000, 20, true).status,
              LoadIssueStatus::Accepted);
    EXPECT_EQ(f.lsq.issueLoad(0, 0x9000, 20, true).status,
              LoadIssueStatus::NoSqPort);
    // (seg1, 21) is free; the booked (seg0, 21) is not on its walk.
    LoadIssueOutcome out = f.lsq.issueLoad(0, 0x9000, 21, true);
    EXPECT_EQ(out.status, LoadIssueStatus::Accepted);
    EXPECT_EQ(out.sqSegmentsVisited, 1u);
}

TEST(LsqRetryRule, LqWalkStartsAtFirstYoungerLoadElseOwnSegment)
{
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular, 4, 4, 1);
    LsqFixture f(p);
    // LQ seg0: loads 1-4; seg1: loads 5-8; the LQ tail is seg2.
    f.lsq.allocateStore(0, 0x1000);
    for (SeqNum s = 1; s <= 8; ++s)
        f.lsq.allocateLoad(s, 0x1000 + 4 * s);
    // The store's violation walk books LQ (seg0, 20) and (seg1, 21).
    StoreSearchOutcome st = f.lsq.storeAddrReady(0, 0x7000, 20);
    ASSERT_TRUE(st.accepted);
    ASSERT_EQ(st.segmentsVisited, 2u);
    // Load 4 sits in seg0 but its first younger load (5) is in seg1,
    // free in cycle 20.
    EXPECT_EQ(f.lsq.issueLoad(4, 0x8000, 20, false).status,
              LoadIssueStatus::Accepted);
    // Load 8 has no younger load: its walk is its own segment (seg1),
    // booked in cycle 21, not the free tail segment.
    EXPECT_EQ(f.lsq.issueLoad(8, 0x8010, 21, false).status,
              LoadIssueStatus::NoLqPort);
    EXPECT_EQ(f.lsq.issueLoad(8, 0x8010, 22, false).status,
              LoadIssueStatus::Accepted);
}

TEST(LsqRetryRule, StoreWithNoYoungerLoadStartsAtLqTailSegment)
{
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular, 4, 4, 1);
    LsqFixture f(p);
    // Loads 0-4 fill LQ seg0 and start seg1 (the tail); store 5 has
    // no younger load.
    for (SeqNum s = 0; s <= 4; ++s)
        f.lsq.allocateLoad(s, 0x1000 + 4 * s);
    f.lsq.allocateStore(5, 0x1014);
    // Load 4's own-segment walk books (seg1, 20).
    ASSERT_EQ(f.lsq.issueLoad(4, 0x8000, 20, false).status,
              LoadIssueStatus::Accepted);
    StoreSearchOutcome busy = f.lsq.storeAddrReady(5, 0x7000, 20);
    EXPECT_FALSE(busy.accepted);
    EXPECT_FALSE(busy.contention);
    StoreSearchOutcome ok = f.lsq.storeAddrReady(5, 0x7000, 21);
    EXPECT_TRUE(ok.accepted);
    EXPECT_EQ(ok.segmentsVisited, 1u);
}

namespace {

/**
 * A combined 4-segment, 1-port queue (no-self-circular, 4 shared
 * entries per segment) laid out so that head-ward SQ walks and
 * tail-ward LQ walks cross:
 *   seg0: store 0, loads 1-3
 *   seg1: store 4, loads 5-7
 *   seg2: store 8, loads 9-11
 *   seg3: store 12, load 13
 * Only store 4 has an address.
 */
LsqParams
crossingLayout()
{
    LsqParams p = segmented(SegAllocPolicy::NoSelfCircular, 4, 4, 1);
    p.combinedQueue = true;
    p.loadCheck = LoadCheckPolicy::None;
    return p;
}

void
fillCrossingLayout(Lsq &lsq)
{
    for (SeqNum s = 0; s <= 13; ++s) {
        if (s % 4 == 0)
            lsq.allocateStore(s, 0x1000 + 4 * s);
        else
            lsq.allocateLoad(s, 0x1000 + 4 * s);
    }
    ASSERT_TRUE(lsq.storeAddrReady(4, 0x6000, 4).accepted);
}

} // namespace

TEST(LsqRetryRule, StoreRejectedAtFirstSegmentContendsDownstream)
{
    LsqFixture f(crossingLayout());
    fillCrossingLayout(f.lsq);
    // Load 13's head-ward walk books (seg3,20), (seg2,21), (seg1,22),
    // (seg0,23).
    ASSERT_EQ(f.lsq.issueLoad(13, 0x9000, 20, true).status,
              LoadIssueStatus::Accepted);
    // Store 12's first younger load (13) is in seg3, booked in cycle
    // 20: a plain port rejection.
    StoreSearchOutcome first = f.lsq.storeAddrReady(12, 0x7000, 20);
    EXPECT_FALSE(first.accepted);
    EXPECT_FALSE(first.contention);
    // Store 0's walk starts at (seg0, 21), free, then needs the booked
    // (seg1, 22): contention.
    StoreSearchOutcome down = f.lsq.storeAddrReady(0, 0x7000, 21);
    EXPECT_FALSE(down.accepted);
    EXPECT_TRUE(down.contention);
}

TEST(LsqRetryRule, LoadWithBookedDownstreamSlotContends)
{
    LsqFixture f(crossingLayout());
    fillCrossingLayout(f.lsq);
    // Store 0's tail-ward walk books (seg0,20), (seg1,21), (seg2,22),
    // (seg3,23).
    StoreSearchOutcome st = f.lsq.storeAddrReady(0, 0x7000, 20);
    ASSERT_TRUE(st.accepted);
    ASSERT_EQ(st.segmentsVisited, 4u);
    // Load 13's walk starts at (seg3, 21), free, then needs the booked
    // (seg2, 22).
    EXPECT_EQ(f.stats.value("lsq.contention.loads"), 0u);
    EXPECT_EQ(f.lsq.issueLoad(13, 0x9000, 21, true).status,
              LoadIssueStatus::Contention);
    EXPECT_EQ(f.stats.value("lsq.contention.loads"), 1u);
}
