/**
 * @file
 * Unit tests for src/core: renaming, ROB, issue queue, and whole-
 * pipeline behaviour of the Core.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hh"
#include "core/completion_calendar.hh"
#include "core/core.hh"
#include "core/interval.hh"
#include "core/issue_queue.hh"
#include "core/phys_reg_file.hh"
#include "core/rob.hh"
#include "memory/probe_agent.hh"
#include "metrics/hostprof.hh"
#include "obs/trace.hh"
#include "sim/sim_config.hh"
#include "workload/benchmark_profile.hh"

using namespace lsqscale;

// ---------------------------------------------------- PhysRegFile -----

TEST(PhysRegFile, InitialMappingReady)
{
    PhysRegFile f(32, 64);
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_EQ(f.lookup(i), i);
        EXPECT_TRUE(f.isReady(f.lookup(i)));
    }
    EXPECT_EQ(f.freeRegs(), 32u);
}

TEST(PhysRegFile, RenameAllocatesNotReady)
{
    PhysRegFile f(32, 64);
    PhysReg prev = f.rename(5);
    EXPECT_EQ(prev, 5);
    PhysReg fresh = f.lookup(5);
    EXPECT_NE(fresh, prev);
    EXPECT_FALSE(f.isReady(fresh));
    f.setReady(fresh);
    EXPECT_TRUE(f.isReady(fresh));
}

TEST(PhysRegFile, FreeListExhaustion)
{
    PhysRegFile f(4, 8);
    for (int i = 0; i < 4; ++i)
        f.rename(0);
    EXPECT_FALSE(f.hasFreeReg());
    EXPECT_DEATH({ f.rename(0); }, "free register");
}

TEST(PhysRegFile, WalkBackRestoresMapping)
{
    PhysRegFile f(8, 16);
    PhysReg prev1 = f.rename(3);
    PhysReg p1 = f.lookup(3);
    PhysReg prev2 = f.rename(3);
    PhysReg p2 = f.lookup(3);
    EXPECT_EQ(prev2, p1);
    // Undo newest-first.
    f.restoreMapping(3, p2, prev2);
    EXPECT_EQ(f.lookup(3), p1);
    f.restoreMapping(3, p1, prev1);
    EXPECT_EQ(f.lookup(3), prev1);
    EXPECT_EQ(f.freeRegs(), 8u);
}

TEST(PhysRegFile, OutOfOrderWalkBackDies)
{
    PhysRegFile f(8, 16);
    PhysReg prev1 = f.rename(3);
    PhysReg p1 = f.lookup(3);
    f.rename(3);
    EXPECT_DEATH({ f.restoreMapping(3, p1, prev1); }, "walk-back");
}

TEST(PhysRegFile, CommitRecyclesPrev)
{
    PhysRegFile f(8, 16);
    std::size_t before = f.freeRegs();
    PhysReg prev = f.rename(2);
    EXPECT_EQ(f.freeRegs(), before - 1);
    f.releaseAtCommit(prev);
    EXPECT_EQ(f.freeRegs(), before);
}

// ------------------------------------------------------------ Rob -----

TEST(Rob, PushPopInOrder)
{
    Rob rob(4);
    MicroOp op;
    for (SeqNum i = 0; i < 4; ++i) {
        op.seq = i;
        rob.push(op, 0);
    }
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head().op.seq, 0u);
    rob.popHead();
    EXPECT_EQ(rob.head().op.seq, 1u);
    EXPECT_EQ(rob.back().op.seq, 3u);
    rob.popBack();
    EXPECT_EQ(rob.size(), 2u);
}

TEST(Rob, FindBinarySearch)
{
    Rob rob(16);
    MicroOp op;
    for (SeqNum i = 10; i < 20; ++i) {
        op.seq = i;
        rob.push(op, 0);
    }
    EXPECT_NE(rob.find(14), nullptr);
    EXPECT_EQ(rob.find(14)->op.seq, 14u);
    EXPECT_EQ(rob.find(9), nullptr);
    EXPECT_EQ(rob.find(20), nullptr);
    EXPECT_EQ(rob.find(100), nullptr);
}

TEST(Rob, FindIndexesContiguousRange)
{
    Rob rob(8);
    MicroOp op;
    for (SeqNum i = 0; i < 8; ++i) {
        op.seq = i;
        rob.push(op, 0);
    }
    rob.popHead();
    rob.popHead();   // commit 0, 1
    for (SeqNum i = 2; i < 8; ++i) {
        ASSERT_NE(rob.find(i), nullptr);
        EXPECT_EQ(rob.find(i)->op.seq, i);
    }
    EXPECT_EQ(rob.find(1), nullptr);
    EXPECT_EQ(rob.find(8), nullptr);
    // Squash from 5, then refetch 5 and 6.
    rob.popBack();
    rob.popBack();
    rob.popBack();
    EXPECT_EQ(rob.find(5), nullptr);
    for (SeqNum i = 5; i < 7; ++i) {
        op.seq = i;
        rob.push(op, 1);
    }
    ASSERT_NE(rob.find(5), nullptr);
    EXPECT_EQ(rob.find(5)->dispatchCycle, 1u);
    EXPECT_EQ(rob.find(6)->op.seq, 6u);
    EXPECT_EQ(rob.find(7), nullptr);
    EXPECT_EQ(rob.find(2)->op.seq, 2u);
}

TEST(Rob, SeqGapDies)
{
    Rob rob(4);
    MicroOp op;
    op.seq = 0;
    rob.push(op, 0);
    op.seq = 2;
    EXPECT_DEATH({ rob.push(op, 0); }, "dense");
}

TEST(Rob, OutOfOrderPushDies)
{
    Rob rob(4);
    MicroOp op;
    op.seq = 5;
    rob.push(op, 0);
    op.seq = 3;
    EXPECT_DEATH({ rob.push(op, 0); }, "program order");
}

TEST(Rob, OverflowDies)
{
    Rob rob(2);
    MicroOp op;
    op.seq = 0;
    rob.push(op, 0);
    op.seq = 1;
    rob.push(op, 0);
    op.seq = 2;
    EXPECT_DEATH({ rob.push(op, 0); }, "overflow");
}

TEST(Rob, FindAcrossWrap)
{
    // Capacity 4 is the ring's storage size: seqs 4 and 5 land in the
    // slots 0 and 1 vacated by the two commits.
    Rob rob(4);
    MicroOp op;
    for (SeqNum i = 0; i < 4; ++i) {
        op.seq = i;
        rob.push(op, 0);
    }
    rob.popHead();
    rob.popHead();
    for (SeqNum i = 4; i < 6; ++i) {
        op.seq = i;
        rob.push(op, 1);
    }
    EXPECT_TRUE(rob.full());
    for (SeqNum i = 2; i < 6; ++i) {
        ASSERT_NE(rob.find(i), nullptr);
        EXPECT_EQ(rob.find(i)->op.seq, i);
    }
    EXPECT_EQ(rob.find(1), nullptr);
    EXPECT_EQ(rob.find(6), nullptr);
    // Squash back across the wrap, then refetch.
    rob.popBack();
    rob.popBack();
    rob.popBack();
    EXPECT_EQ(rob.back().op.seq, 2u);
    EXPECT_EQ(rob.find(3), nullptr);
    op.seq = 3;
    rob.push(op, 2);
    EXPECT_EQ(rob.find(3)->dispatchCycle, 2u);
    SeqNum expect = 2;
    for (const RobEntry &e : rob)
        EXPECT_EQ(e.op.seq, expect++);
}

// ----------------------------------------------------- IssueQueue -----

namespace {

/** A register file the tests drive by hand: a ready byte per reg. */
struct TestRegs
{
    std::vector<std::uint8_t> ready[2];

    explicit TestRegs(unsigned n)
    {
        ready[0].assign(n, 1);
        ready[1].assign(n, 1);
    }

    auto
    fn() const
    {
        return [this](PhysReg p, bool fp) { return ready[fp][p] != 0; };
    }
};

/** Seqs select() offers at @p now, oldest first, issuing none. */
std::vector<SeqNum>
offered(IssueQueue &iq, Cycle now)
{
    std::vector<SeqNum> out;
    iq.select(now, ~0u, [&](IqEntry &e) {
        out.push_back(e.seq);
        return false;
    });
    return out;
}

IqEntry
entry(SeqNum seq, PhysReg src1 = kNoReg, PhysReg src2 = kNoReg)
{
    IqEntry e;
    e.seq = seq;
    e.src1 = src1;
    e.src2 = src2;
    return e;
}

auto allReady = [](PhysReg, bool) { return true; };

} // namespace

TEST(IssueQueue, SelectRespectsReadiness)
{
    IssueQueue iq(8, 16, 32, 32);
    TestRegs regs(32);
    regs.ready[0][10] = 0;
    iq.push(entry(1, 10), regs.fn());
    iq.push(entry(2), regs.fn());
    EXPECT_EQ(offered(iq, 5), std::vector<SeqNum>{2});
    regs.ready[0][10] = 1;
    iq.wake(10, false);
    EXPECT_EQ(offered(iq, 5), (std::vector<SeqNum>{1, 2}));
}

TEST(IssueQueue, SelectRespectsNotBefore)
{
    IssueQueue iq(8, 16, 32, 32);
    IqEntry e = entry(1);
    e.notBefore = 10;
    iq.push(e, allReady);
    EXPECT_TRUE(offered(iq, 9).empty());
    EXPECT_EQ(offered(iq, 10).size(), 1u);
}

TEST(IssueQueue, OldestFirstOrder)
{
    IssueQueue iq(8, 16, 32, 32);
    for (SeqNum s : {3u, 7u, 9u})
        iq.push(entry(s), allReady);
    std::vector<SeqNum> ready = offered(iq, 0);
    ASSERT_EQ(ready.size(), 3u);
    EXPECT_EQ(ready[0], 3u);
    EXPECT_EQ(ready[2], 9u);
}

TEST(IssueQueue, RemoveAndSquash)
{
    IssueQueue iq(8, 16, 32, 32);
    for (SeqNum s = 0; s < 6; ++s)
        iq.push(entry(s), allReady);
    iq.remove(2);
    EXPECT_EQ(iq.size(), 5u);
    EXPECT_EQ(iq.find(2), nullptr);
    iq.squashFrom(4);
    EXPECT_EQ(iq.size(), 3u);   // 0, 1, 3
    EXPECT_NE(iq.find(3), nullptr);
    EXPECT_EQ(iq.find(5), nullptr);
}

TEST(IssueQueue, RemoveMissingDies)
{
    IssueQueue iq(4, 8, 32, 32);
    EXPECT_DEATH({ iq.remove(9); }, "not present");
}

TEST(IssueQueue, FullStops)
{
    IssueQueue iq(2, 8, 32, 32);
    iq.push(entry(0), allReady);
    iq.push(entry(1), allReady);
    EXPECT_TRUE(iq.full());
    EXPECT_DEATH({ iq.push(entry(2), allReady); }, "overflow");
}

TEST(IssueQueue, StaleWaiterAfterSquashAndRefetch)
{
    // Seq 5 waits on int reg 3, is squashed, and is refetched reading
    // int reg 4 instead. Waking reg 3 must not wake the refetched 5.
    IssueQueue iq(8, 16, 32, 32);
    TestRegs regs(32);
    regs.ready[0][3] = 0;
    regs.ready[0][4] = 0;
    iq.push(entry(4, 3), regs.fn());
    iq.push(entry(5, 3), regs.fn());
    iq.squashFrom(5);
    iq.push(entry(5, 4), regs.fn());
    regs.ready[0][3] = 1;
    iq.wake(3, false);
    EXPECT_EQ(offered(iq, 0), std::vector<SeqNum>{4});
    regs.ready[0][4] = 1;
    iq.wake(4, false);
    EXPECT_EQ(offered(iq, 0), (std::vector<SeqNum>{4, 5}));
    iq.checkWakeups(regs.fn());
}

TEST(IssueQueue, RepeatedWakeIsIdempotent)
{
    IssueQueue iq(8, 16, 32, 32);
    TestRegs regs(32);
    regs.ready[1][7] = 0;
    IqEntry e = entry(1, 7, 7);   // both sources on one register
    e.src1Fp = e.src2Fp = true;
    iq.push(e, regs.fn());
    iq.wake(7, false);             // the int register 7: no waiters
    EXPECT_TRUE(offered(iq, 0).empty());
    regs.ready[1][7] = 1;
    iq.wake(7, true);
    iq.wake(7, true);
    EXPECT_EQ(offered(iq, 0), std::vector<SeqNum>{1});
    iq.remove(1);
    // Renamed again: a new reader waits, and the next wake frees it.
    regs.ready[1][7] = 0;
    e = entry(2, 7);
    e.src1Fp = true;
    iq.push(e, regs.fn());
    iq.push(entry(3, 7), regs.fn());   // int reg 7 is ready
    EXPECT_EQ(offered(iq, 0), std::vector<SeqNum>{3});
    iq.checkWakeups(regs.fn());
    regs.ready[1][7] = 1;
    iq.wake(7, true);
    EXPECT_EQ(offered(iq, 0), (std::vector<SeqNum>{2, 3}));
}

TEST(IssueQueue, SelectOrderAcrossSlotWrap)
{
    // An 8-seq window: seqs 6..9 occupy slots 6, 7, 0, 1.
    IssueQueue iq(8, 8, 32, 32);
    for (SeqNum s = 6; s < 10; ++s)
        iq.push(entry(s), allReady);
    EXPECT_EQ(offered(iq, 0), (std::vector<SeqNum>{6, 7, 8, 9}));
    iq.remove(6);
    iq.remove(7);
    for (SeqNum s = 10; s < 14; ++s)
        iq.push(entry(s), allReady);
    EXPECT_EQ(offered(iq, 0),
              (std::vector<SeqNum>{8, 9, 10, 11, 12, 13}));
    // A seq a whole window past a live one would share its slot.
    EXPECT_DEATH({ iq.push(entry(16), allReady); }, "holds seq 8");
}

TEST(IssueQueue, SelectStopsAtIssueWidth)
{
    IssueQueue iq(8, 16, 32, 32);
    for (SeqNum s = 0; s < 5; ++s)
        iq.push(entry(s), allReady);
    std::vector<SeqNum> seen;
    unsigned issued = iq.select(0, 2, [&](IqEntry &e) {
        seen.push_back(e.seq);
        if (e.seq == 0)
            return false;   // e.g. no free unit: not issued
        iq.remove(e.seq);
        return true;
    });
    EXPECT_EQ(issued, 2u);
    EXPECT_EQ(seen, (std::vector<SeqNum>{0, 1, 2}));
    EXPECT_EQ(offered(iq, 0), (std::vector<SeqNum>{0, 3, 4}));
}

namespace {

/**
 * The polled issue queue the wakeup-driven one replaced: a
 * program-ordered vector whose select re-tests every entry's sources.
 * Kept only as the reference model.
 */
class PolledIssueQueue
{
  public:
    void push(const IqEntry &e) { entries_.push_back(e); }

    void
    remove(SeqNum seq)
    {
        std::erase_if(entries_,
                      [seq](const IqEntry &e) { return e.seq == seq; });
    }

    void
    squashFrom(SeqNum seq)
    {
        std::erase_if(entries_,
                      [seq](const IqEntry &e) { return e.seq >= seq; });
    }

    IqEntry *
    find(SeqNum seq)
    {
        for (IqEntry &e : entries_)
            if (e.seq == seq)
                return &e;
        return nullptr;
    }

    template <typename ReadyFn>
    std::vector<SeqNum>
    selectReady(Cycle now, ReadyFn &&ready) const
    {
        std::vector<SeqNum> out;
        for (const auto &e : entries_) {
            if (e.notBefore > now)
                continue;
            if (e.src1 != kNoReg && !ready(e.src1, e.src1Fp))
                continue;
            if (e.src2 != kNoReg && !ready(e.src2, e.src2Fp))
                continue;
            out.push_back(e.seq);
        }
        return out;
    }

    bool
    reads(PhysReg p, bool fp) const
    {
        for (const IqEntry &e : entries_)
            if ((e.src1 == p && e.src1Fp == fp) ||
                (e.src2 == p && e.src2Fp == fp))
                return true;
        return false;
    }

    std::size_t size() const { return entries_.size(); }

  private:
    std::vector<IqEntry> entries_;
};

/**
 * Drive the wakeup-driven queue and the polled reference through one
 * random schedule of dispatch, wake, issue, contention replay,
 * commit, squash and refetch, comparing the eligible seqs every cycle
 * and the offer order of every issue.
 */
void
runDifferential(std::uint64_t seed)
{
    constexpr unsigned kCap = 16, kWindow = 24, kRegs = 12;
    Rng rng(seed);
    IssueQueue iq(kCap, kWindow, kRegs, kRegs);
    PolledIssueQueue ref;
    TestRegs regs(kRegs);
    SeqNum head = 0, tail = 0;   // the ROB's live range

    auto randomSrc = [&](PhysReg &src, bool &fp) {
        if (rng.chance(0.25))
            return;
        src = static_cast<PhysReg>(rng.below(kRegs));
        fp = rng.chance(0.5);
    };

    for (Cycle now = 1; now < 6000; ++now) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " cycle "
                                        << now);
        // Writeback: wake a few registers, sometimes one already ready.
        for (unsigned i = 0; i < 3; ++i) {
            PhysReg p = static_cast<PhysReg>(rng.below(kRegs));
            bool fp = rng.chance(0.5);
            if (regs.ready[fp][p] && !rng.chance(0.2))
                continue;
            regs.ready[fp][p] = 1;
            iq.wake(p, fp);
        }
        // Rename: a register no live entry reads may go unready.
        for (unsigned i = 0; i < 2; ++i) {
            PhysReg p = static_cast<PhysReg>(rng.below(kRegs));
            bool fp = rng.chance(0.5);
            if (!ref.reads(p, fp))
                regs.ready[fp][p] = 0;
        }

        iq.checkWakeups(regs.fn());
        std::vector<SeqNum> want = ref.selectReady(now, regs.fn());
        ASSERT_EQ(offered(iq, now), want);

        // Issue: replay the polled loop's decisions in the new walk.
        unsigned width = 1 + static_cast<unsigned>(rng.below(4));
        std::size_t next = 0;
        bool mismatch = false;
        unsigned issued = iq.select(now, width, [&](IqEntry &e) {
            while (next < want.size() && ref.find(want[next]) == nullptr)
                ++next;
            if (next >= want.size() || want[next] != e.seq) {
                mismatch = true;
                return false;
            }
            ++next;
            std::uint64_t roll = rng.below(10);
            if (roll < 2) {
                // Contention replay: the entry waits a few cycles.
                e.notBefore = now + 1 + rng.below(3);
                ref.find(e.seq)->notBefore = e.notBefore;
                return false;
            }
            if (roll < 4)
                return false;   // no unit or port this cycle
            SeqNum seq = e.seq;
            iq.remove(seq);
            ref.remove(seq);
            if (roll == 9 && seq + 1 < tail) {
                // The issue found a violation: squash younger seqs.
                SeqNum from = seq + 1 + rng.below(tail - seq - 1);
                iq.squashFrom(from);
                ref.squashFrom(from);
                tail = from;
            }
            return true;
        });
        ASSERT_FALSE(mismatch) << "select offered a seq out of order";
        if (issued < width) {
            while (next < want.size() && ref.find(want[next]) == nullptr)
                ++next;
            ASSERT_EQ(next, want.size()) << "select stopped early";
        }

        // Commit: retire issued seqs from the head.
        unsigned commits = static_cast<unsigned>(rng.below(4));
        while (commits-- > 0 && head < tail && ref.find(head) == nullptr)
            ++head;

        // Squash and refetch: the refetched seqs get new registers.
        if (tail > head && rng.chance(0.03)) {
            SeqNum from = head + rng.below(tail - head);
            iq.squashFrom(from);
            ref.squashFrom(from);
            tail = from;
        }

        // Dispatch.
        unsigned n = static_cast<unsigned>(rng.below(4));
        while (n-- > 0 && tail - head < kWindow && !iq.full()) {
            IqEntry e;
            e.seq = tail++;
            e.notBefore = now + 1;
            randomSrc(e.src1, e.src1Fp);
            randomSrc(e.src2, e.src2Fp);
            iq.push(e, regs.fn());
            ref.push(e);
        }
        ASSERT_EQ(iq.size(), ref.size());
    }
}

} // namespace

TEST(IssueQueue, MatchesPolledReference)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        runDifferential(seed);
}

// ---------------------------------------------- CompletionCalendar ---

namespace {

/** The events a calendar retires at @p now, in order. */
std::vector<SeqNum>
retireAt(CompletionCalendar &cal, Cycle now)
{
    std::vector<SeqNum> out;
    cal.retire(now, [&](SeqNum seq, std::uint64_t) { out.push_back(seq); });
    return out;
}

} // namespace

TEST(CompletionCalendar, SameCycleEventsRetireInScheduleOrder)
{
    // A bucket is a FIFO: within a cycle, schedule order decides, so
    // the younger seq scheduled first goes first.
    CompletionCalendar cal(256, 200);
    cal.schedule(9, 1, 12, 10);
    cal.schedule(4, 2, 12, 10);
    cal.schedule(7, 3, 11, 10);
    cal.schedule(5, 4, 12, 11);
    EXPECT_EQ(cal.size(), 4u);
    EXPECT_EQ(cal.scheduled(), 4u);
    EXPECT_EQ(cal.next(11), 11u);
    EXPECT_EQ(retireAt(cal, 11), std::vector<SeqNum>({7}));
    EXPECT_EQ(cal.next(12), 12u);
    EXPECT_EQ(retireAt(cal, 12), (std::vector<SeqNum>{9, 4, 5}));
    EXPECT_TRUE(cal.empty());
    EXPECT_EQ(cal.next(13), kNoCycle);
}

TEST(CompletionCalendar, CancelKeepsTheOthersInOrder)
{
    CompletionCalendar cal(8, 20);
    for (SeqNum s = 0; s < 5; ++s)
        cal.schedule(s, s, 30, 25);
    cal.cancel(0);   // head of the bucket
    cal.cancel(2);   // middle
    cal.cancel(4);   // tail
    cal.schedule(4, 9, 30, 26);   // the refetched seq reuses its node
    EXPECT_EQ(retireAt(cal, 30), (std::vector<SeqNum>{1, 3, 4}));
    EXPECT_TRUE(cal.empty());
}

TEST(CompletionCalendar, NextEventAcrossTheWrap)
{
    // A 64-bucket wheel: from cycle 60, an event 50 cycles out sits in
    // a lower bucket than now's, and an earlier one must still win.
    CompletionCalendar cal(16, 63);
    EXPECT_EQ(cal.buckets(), 64u);
    cal.schedule(1, 1, 110, 60);
    EXPECT_EQ(cal.next(60), 110u);
    cal.schedule(2, 2, 123, 60);
    EXPECT_EQ(cal.next(60), 110u);
    cal.schedule(3, 3, 61, 60);
    EXPECT_EQ(cal.next(60), 61u);
    EXPECT_EQ(retireAt(cal, 61), std::vector<SeqNum>({3}));
    EXPECT_EQ(cal.next(62), 110u);
    EXPECT_EQ(retireAt(cal, 110), std::vector<SeqNum>({1}));
    EXPECT_EQ(cal.next(111), 123u);
}

TEST(CompletionCalendar, EventPastTheWheelDies)
{
    CompletionCalendar cal(16, 63);
    cal.schedule(1, 1, 10 + 63, 10);   // the last bucket is fine
    EXPECT_DEATH({ cal.schedule(2, 2, 10 + 64, 10); }, "lies past");
}

// ----------------------------------------------------------- Core -----

namespace {

struct CoreFixture
{
    StatSet stats;
    Core core;

    explicit CoreFixture(const std::string &bench = "bzip",
                         CoreParams cp = CoreParams(),
                         LsqParams lp = LsqParams(),
                         std::uint64_t seed = 1)
        : core(cp, lp, MemoryParams(), profileFor(bench), seed, stats)
    {}
};

/** Random-mode coherence agent: ~@p rate probes per kilocycle. */
ProbeAgentParams
randomProbes(double rate)
{
    ProbeAgentParams pp;
    pp.enabled = true;
    pp.probesPerKCycle = rate;
    return pp;
}

} // namespace

TEST(Core, MakesForwardProgress)
{
    CoreFixture f;
    f.core.run(5000);
    EXPECT_GE(f.core.committed(), 5000u);
    EXPECT_GT(f.core.cycle(), 0u);
    EXPECT_GT(f.core.ipc(), 0.1);
    EXPECT_LT(f.core.ipc(), 8.0);
}

TEST(Core, DeterministicAcrossRuns)
{
    CoreFixture a, b;
    a.core.run(3000);
    b.core.run(3000);
    EXPECT_EQ(a.core.cycle(), b.core.cycle());
    EXPECT_EQ(a.core.committed(), b.core.committed());
    EXPECT_EQ(a.stats.value("sq.searches"),
              b.stats.value("sq.searches"));
    EXPECT_EQ(a.stats.value("squash.total"),
              b.stats.value("squash.total"));
}

TEST(Core, DifferentSeedsDiffer)
{
    CoreFixture a("bzip", CoreParams(), LsqParams(), 1);
    CoreFixture b("bzip", CoreParams(), LsqParams(), 2);
    a.core.run(3000);
    b.core.run(3000);
    EXPECT_NE(a.core.cycle(), b.core.cycle());
}

TEST(Core, CommitsEveryClass)
{
    CoreFixture f("gcc");
    f.core.run(20000);
    EXPECT_GT(f.stats.value("core.committed.loads"), 1000u);
    EXPECT_GT(f.stats.value("core.committed.stores"), 500u);
    EXPECT_GT(f.stats.value("core.committed.branches"), 500u);
}

TEST(Core, ConventionalModeSearchCounts)
{
    CoreFixture f;
    f.core.run(10000);
    // Every load searches the SQ in the conventional base, possibly
    // several times through replays, never fewer than issued loads.
    EXPECT_GE(f.stats.value("sq.searches"),
              f.stats.value("core.committed.loads"));
    // Load-load checks by loads plus store checks populate the LQ.
    EXPECT_GE(f.stats.value("lq.searches.byload"),
              f.stats.value("core.committed.loads"));
}

TEST(Core, PairSchemeSearchesLess)
{
    LsqParams pair;
    pair.sqPolicy = SqSearchPolicy::Pair;
    pair.checkViolationsAtCommit = true;
    CoreFixture base("bzip");
    CoreFixture gated("bzip", CoreParams(), pair);
    base.core.run(20000);
    gated.core.run(20000);
    EXPECT_LT(gated.stats.value("sq.searches"),
              base.stats.value("sq.searches") / 2);
}

TEST(Core, PerfectPolicySearchesOnlyMatches)
{
    LsqParams perfect;
    perfect.sqPolicy = SqSearchPolicy::Perfect;
    CoreFixture f("bzip", CoreParams(), perfect);
    f.core.run(20000);
    // Every search the oracle allows finds a match.
    EXPECT_EQ(f.stats.value("sq.searches"),
              f.stats.value("sq.searches.matched"));
}

TEST(Core, LoadBufferEliminatesLoadLqSearches)
{
    LsqParams lb;
    lb.loadCheck = LoadCheckPolicy::LoadBuffer;
    lb.loadBufferEntries = 2;
    CoreFixture f("bzip", CoreParams(), lb);
    f.core.run(20000);
    EXPECT_EQ(f.stats.value("lq.searches.byload"), 0u);
    EXPECT_GT(f.stats.value("lb.searches"), 0u);
}

TEST(Core, MorePortsNeverSlower)
{
    LsqParams one = LsqParams();
    one.searchPorts = 1;
    LsqParams four = LsqParams();
    four.searchPorts = 4;
    CoreFixture p1("equake", CoreParams(), one);
    CoreFixture p4("equake", CoreParams(), four);
    p1.core.run(20000);
    p4.core.run(20000);
    // Identical traces; more search bandwidth can only help (allow a
    // sliver of slack for squash-timing noise).
    EXPECT_LE(p4.core.cycle(),
              p1.core.cycle() + p1.core.cycle() / 50);
}

TEST(Core, BiggerLsqNeverMuchSlower)
{
    LsqParams small;   // 32+32
    LsqParams big;
    big.lqEntries = 128;
    big.sqEntries = 128;
    CoreFixture s("swim", CoreParams(), small);
    CoreFixture b("swim", CoreParams(), big);
    s.core.run(20000);
    b.core.run(20000);
    EXPECT_LE(b.core.cycle(),
              s.core.cycle() + s.core.cycle() / 50);
}

TEST(Core, SquashesAreRecoverable)
{
    // perl has the richest alias behaviour; run long enough to see
    // squashes and verify the pipeline still retires everything.
    CoreFixture f("perl");
    f.core.run(30000);
    EXPECT_GT(f.stats.value("squash.total"), 0u);
    EXPECT_GE(f.core.committed(), 30000u);
}

TEST(Core, BranchPredictorIsUsed)
{
    CoreFixture f("gcc");
    f.core.run(20000);
    EXPECT_GT(f.core.branchPredictor().lookups(), 1000u);
    EXPECT_GT(f.stats.value("fetch.mispredicts"), 0u);
    // Accuracy is sane (> 70%).
    double acc = 1.0 - static_cast<double>(
                           f.core.branchPredictor().mispredicts()) /
                           f.core.branchPredictor().lookups();
    EXPECT_GT(acc, 0.7);
}

TEST(Core, OccupancyNeverExceedsCapacity)
{
    LsqParams p;
    p.lqEntries = 16;
    p.sqEntries = 16;
    CoreFixture f("mgrid", CoreParams(), p);
    for (int i = 0; i < 5000; ++i) {
        f.core.tick();
        ASSERT_LE(f.core.lsq().lqLive(), 16u);
        ASSERT_LE(f.core.lsq().sqLive(), 16u);
    }
}

TEST(Core, ScaledProcessorRunsWider)
{
    CoreParams wide;
    wide.fetchWidth = 12;
    wide.dispatchWidth = 12;
    wide.issueWidth = 12;
    wide.commitWidth = 12;
    wide.iqEntries = 96;
    CoreFixture f("mesa", wide);
    f.core.run(10000);
    EXPECT_GE(f.core.committed(), 10000u);
}

TEST(Core, InOrderLoadsSlower)
{
    LsqParams inorder;
    inorder.loadCheck = LoadCheckPolicy::InOrderAlwaysSearch;
    CoreFixture base("mcf");
    CoreFixture ord("mcf", CoreParams(), inorder);
    base.core.run(8000);
    ord.core.run(8000);
    EXPECT_GE(ord.core.cycle(), base.core.cycle());
}

TEST(Core, SegmentedCapacityHelpsLoadBound)
{
    LsqParams seg;
    seg.numSegments = 4;
    seg.lqEntries = 28;
    seg.sqEntries = 28;
    seg.allocPolicy = SegAllocPolicy::SelfCircular;
    CoreFixture base("art");
    CoreFixture wide("art", CoreParams(), seg);
    base.core.run(8000);
    wide.core.run(8000);
    EXPECT_LT(wide.core.cycle(), base.core.cycle());
}

TEST(Core, DebugDumpMentionsState)
{
    CoreFixture f;
    f.core.run(100);
    std::string d = f.core.debugDump();
    EXPECT_NE(d.find("rob="), std::string::npos);
    EXPECT_NE(d.find("lq="), std::string::npos);
}

// Every benchmark makes progress on the base machine.
class CoreAllBench : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CoreAllBench, RunsCleanly)
{
    CoreFixture f(GetParam());
    f.core.run(4000);
    EXPECT_GE(f.core.committed(), 4000u);
    EXPECT_GT(f.core.ipc(), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, CoreAllBench,
                         ::testing::ValuesIn(allBenchmarks()));

// -------------------------------------- external invalidations -------

TEST(Core, InvalidationTrafficSquashesAndRecovers)
{
    ProbeAgent probes(randomProbes(20.0));   // heavy coherence traffic
    CoreFixture f("equake");
    f.core.attachCoherenceAgent(&probes);
    f.core.run(15000);
    EXPECT_GT(f.stats.value("probe.delivered"), 10u);
    EXPECT_GT(f.stats.value("squash.invalidation"), 0u);
    EXPECT_GE(f.core.committed(), 15000u);
}

TEST(Core, HeavyInvalidationTrafficCostsPerformance)
{
    // At a realistic rate the effect drowns in timing noise; at an
    // extreme rate (one invalidation every ~3 cycles, each taking an
    // LQ port and squashing matching loads) the cost must show.
    ProbeAgent probes(randomProbes(300.0));
    CoreFixture q("equake");
    CoreFixture n("equake");
    n.core.attachCoherenceAgent(&probes);
    q.core.run(12000);
    n.core.run(12000);
    EXPECT_GT(n.core.cycle(), q.core.cycle());
    EXPECT_GT(n.stats.value("squash.invalidation"), 20u);
}

TEST(Core, NoInvalidationsByDefault)
{
    // A default-configured agent has no random rate and no scripted
    // writers, so nothing reaches the LSQ.
    ProbeAgentParams pp;
    pp.enabled = true;
    ProbeAgent probes(pp);
    CoreFixture f("equake");
    f.core.attachCoherenceAgent(&probes);
    f.core.run(8000);
    EXPECT_EQ(f.stats.value("probe.delivered"), 0u);
}

// ------------------------------------ memory-dependence baselines -----

TEST(Core, TotalOrderNeverViolatesStoreLoad)
{
    CoreParams cp;
    cp.memDepPolicy = MemDepPolicy::TotalOrder;
    CoreFixture f("perl", cp);
    f.core.run(15000);
    EXPECT_EQ(f.stats.value("squash.storeload.exec"), 0u);
    EXPECT_GT(f.stats.value("loads.totalorder.wait"), 0u);
}

TEST(Core, BlindSpeculationViolatesMore)
{
    CoreParams blind;
    blind.memDepPolicy = MemDepPolicy::BlindSpeculation;
    CoreFixture b("perl", blind);
    CoreFixture s("perl");   // StoreSet default
    b.core.run(15000);
    s.core.run(15000);
    EXPECT_GT(b.stats.value("squash.storeload.exec"),
              s.stats.value("squash.storeload.exec"));
}

TEST(Core, DependenceDisciplineOrdering)
{
    // On an alias-heavy benchmark the predictor should not lose badly
    // to either baseline extreme.
    CoreParams blind, total;
    blind.memDepPolicy = MemDepPolicy::BlindSpeculation;
    total.memDepPolicy = MemDepPolicy::TotalOrder;
    CoreFixture b("vortex", blind);
    CoreFixture t("vortex", total);
    CoreFixture s("vortex");
    b.core.run(12000);
    t.core.run(12000);
    s.core.run(12000);
    EXPECT_LE(s.core.cycle(),
              std::max(b.core.cycle(), t.core.cycle()));
}

TEST(Core, CombinedQueueRunsEndToEnd)
{
    LsqParams lp;
    lp.combinedQueue = true;
    lp.numSegments = 4;
    lp.lqEntries = 28;   // 112 shared entries
    lp.searchPorts = 1;
    CoreFixture f("equake", CoreParams(), lp);
    f.core.run(10000);
    EXPECT_GE(f.core.committed(), 10000u);
    EXPECT_GT(f.core.ipc(), 0.1);
}

TEST(Core, CombinedQueueContentionOccursInPractice)
{
    // With one shared port and cross-direction searches, the paper's
    // Section 3.2 contention events actually fire on a real workload.
    LsqParams lp;
    lp.combinedQueue = true;
    lp.numSegments = 4;
    lp.lqEntries = 28;
    lp.searchPorts = 1;
    CoreFixture f("vortex", CoreParams(), lp);
    f.core.run(30000);
    EXPECT_GT(f.stats.value("lsq.contention.loads"), 0u);
}

// ------------------------------------------- quiet-cycle skipping -----

namespace {

/**
 * A core of @p cfg, functionally fast-forwarded so that its memory
 * stalls are in steady state when the detailed run starts.
 */
struct SkipTwin
{
    StatSet stats;
    Core core;

    explicit SkipTwin(const SimConfig &cfg)
        : core(cfg.core, cfg.lsq, cfg.memory, profileFor(cfg.benchmark),
               cfg.seed, stats)
    {
        core.fastForward(20000);
    }

    /** The bare reference loop run() must match. */
    void
    tickUntil(std::uint64_t n)
    {
        while (core.committed() < n)
            core.tick();
    }
};

constexpr std::uint64_t kSkipInsts = 4000;

/** The designs whose per-cycle accumulators differ the most. */
std::vector<std::pair<std::string, SimConfig>>
skipDesigns(const std::string &bench)
{
    SimConfig base = configs::base(bench);
    SimConfig totalOrder = base;
    totalOrder.core.memDepPolicy = MemDepPolicy::TotalOrder;
    SimConfig blind = base;
    blind.core.memDepPolicy = MemDepPolicy::BlindSpeculation;
    return {
        {"base-2port", configs::withPorts(base, 2)},
        {"base-1port", configs::withPorts(base, 1)},
        {"seg-4x28-1port",
         configs::withSegmentation(configs::withPorts(base, 1), 4, 28,
                                   SegAllocPolicy::SelfCircular)},
        {"all-techniques", configs::allTechniques(base)},
        {"load-buffer-2", configs::withLoadBuffer(base, 2)},
        {"in-order-search", configs::withInOrderLoads(base, true)},
        {"total-order", totalOrder},
        {"blind", blind},
        {"scaled", configs::scaledProcessor(base)},
    };
}

bool
sameRecords(const std::vector<TraceRecord> &a,
            const std::vector<TraceRecord> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(TraceRecord)) == 0);
}

} // namespace

TEST(CoreTest, RunMatchesTickLoop)
{
    // run() skips quiet cycles; tick() never does. Equal cycles and
    // byte-identical stats on every benchmark and design show that the
    // skip adds each skipped cycle to every accumulator a tick bumps.
    for (const std::string &bench : allBenchmarks()) {
        for (const auto &[name, cfg] : skipDesigns(bench)) {
            SkipTwin ticked(cfg), run(cfg);
            std::uint64_t end = run.core.committed() + kSkipInsts;
            ticked.tickUntil(end);
            run.core.run(end);
            EXPECT_EQ(run.core.cycle(), ticked.core.cycle())
                << bench << " " << name;
            EXPECT_EQ(run.stats.dump(), ticked.stats.dump())
                << bench << " " << name;
        }
    }

    // Observers: each observed run() matches the plain run(), and the
    // observer saw what it sees under the tick loop.
    SimConfig cfg = configs::withLoadBuffer(configs::base("mcf"), 2);
    SkipTwin plain(cfg);
    const std::uint64_t end = plain.core.committed() + kSkipInsts;
    plain.core.run(end);

    {
        // Interval sampler: run() stops at each sample cycle.
        SkipTwin run(cfg), ticked(cfg);
        IntervalSampler runSampler(run.core, 500);
        IntervalSampler tickSampler(ticked.core, 500);
        run.core.attachSampler(&runSampler);
        run.core.run(end);
        run.core.attachSampler(nullptr);
        while (ticked.core.committed() < end) {
            ticked.core.tick();
            if (ticked.core.cycle() >= tickSampler.nextSampleAt())
                tickSampler.poll();
        }
        EXPECT_EQ(run.stats.dump(), plain.stats.dump());
        EXPECT_GT(runSampler.series().size(), 10u);
        EXPECT_EQ(runSampler.series().toJson(),
                  tickSampler.series().toJson());
    }
    {
        // Tracer: only fully idle ticks skip, so the per-cycle wait
        // events all appear.
        TraceConfig tc;
        tc.enabled = true;
        tc.ringCapacity = 1u << 20;
        SkipTwin run(cfg), ticked(cfg);
        Tracer runTracer(tc), tickTracer(tc);
        run.core.attachTracer(&runTracer);
        ticked.core.attachTracer(&tickTracer);
        run.core.run(end);
        ticked.tickUntil(end);
        run.core.attachTracer(nullptr);
        ticked.core.attachTracer(nullptr);
        EXPECT_EQ(run.stats.dump(), plain.stats.dump());
        std::vector<TraceRecord> runRecs = runTracer.collect();
        EXPECT_LT(runRecs.size(), tc.ringCapacity);
        EXPECT_TRUE(sameRecords(runRecs, tickTracer.collect()));
    }
    {
        // Host profiler: it samples executed ticks, and only reads the
        // clock.
        SkipTwin run(cfg);
        HostProfiler::setEnabled(true);
        run.core.enableHostProfile();
        run.core.run(end);
        HostProfiler::setEnabled(false);
        HostProfiler::instance().reset();
        EXPECT_EQ(run.stats.dump(), plain.stats.dump());
        EXPECT_EQ(run.core.cycle(), plain.core.cycle());
    }
    {
        // Probe agent: it draws a probe per cycle, so nothing skips;
        // the observed run still matches its tick loop.
        ProbeAgent runProbes(randomProbes(2.0));
        ProbeAgent tickProbes(randomProbes(2.0));
        SkipTwin run(cfg), ticked(cfg);
        run.core.attachCoherenceAgent(&runProbes);
        ticked.core.attachCoherenceAgent(&tickProbes);
        run.core.run(end);
        ticked.tickUntil(end);
        EXPECT_EQ(run.core.cycle(), ticked.core.cycle());
        EXPECT_EQ(run.stats.dump(), ticked.stats.dump());
        EXPECT_GT(run.stats.value("probe.delivered"), 0u);
    }
}

TEST(CoreTest, RunMatchesTickLoopNearCalendarHorizon)
{
    // The writeback calendar has W = bit_ceil(horizon + 1) buckets.
    // Here the horizon is L1 2 + L2 12 + memory 238 + late wakeup 2 +
    // rollback 1 = 255, so W = 256 and a miss writes back up to 254
    // cycles out, one bucket short of the wheel's wrap.
    for (const std::string bench : {"mcf", "art", "equake", "gzip"}) {
        for (auto [name, cfg] : skipDesigns(bench)) {
            cfg.memory.memLatency = 238;
            SkipTwin ticked(cfg), run(cfg);
            std::uint64_t end = run.core.committed() + kSkipInsts;
            ticked.tickUntil(end);
            run.core.run(end);
            EXPECT_EQ(run.core.cycle(), ticked.core.cycle())
                << bench << " " << name;
            EXPECT_EQ(run.stats.dump(), ticked.stats.dump())
                << bench << " " << name;
        }
    }
}

TEST(CoreTest, RunMatchesTickLoopThroughSquashes)
{
    // A squash cancels the pending writebacks of what it removes, and
    // the refetched instructions reuse those seqs and calendar nodes.
    // Dropping the events early only changes which ticks are quiet.
    SimConfig base = configs::base("mgrid");
    for (const SimConfig &cfg :
         {configs::withLoadBuffer(base, 2), configs::allTechniques(base)}) {
        SkipTwin ticked(cfg), run(cfg);
        std::uint64_t end = run.core.committed() + 5 * kSkipInsts;
        ticked.tickUntil(end);
        run.core.run(end);
        EXPECT_GT(run.stats.value("squash.instructions"), 100u);
        EXPECT_EQ(run.core.cycle(), ticked.core.cycle());
        EXPECT_EQ(run.stats.dump(), ticked.stats.dump());
    }
}
