/**
 * @file
 * Unit tests for src/workload: profiles, address streams, branch
 * model, trace generator, and the replayable instruction stream.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <unordered_map>

#include "workload/address_stream.hh"
#include "workload/benchmark_profile.hh"
#include "workload/branch_model.hh"
#include "workload/inst_stream.hh"
#include "workload/pc_table.hh"
#include "workload/trace_generator.hh"

using namespace lsqscale;

// ---------------------------------------------------- profiles --------

TEST(Profiles, AllEighteenBenchmarksPresent)
{
    EXPECT_EQ(intBenchmarks().size(), 9u);
    EXPECT_EQ(fpBenchmarks().size(), 9u);
    EXPECT_EQ(allBenchmarks().size(), 18u);
    for (const auto &name : allBenchmarks())
        EXPECT_EQ(profileFor(name).name, name);
}

TEST(Profiles, IntFpFlagsConsistent)
{
    for (const auto &name : intBenchmarks())
        EXPECT_FALSE(profileFor(name).isFp) << name;
    for (const auto &name : fpBenchmarks())
        EXPECT_TRUE(profileFor(name).isFp) << name;
}

TEST(Profiles, PaperReportedMixes)
{
    // The paper reports these mixes explicitly.
    EXPECT_DOUBLE_EQ(profileFor("mgrid").loadFrac, 0.51);
    EXPECT_DOUBLE_EQ(profileFor("mgrid").storeFrac, 0.02);
    EXPECT_DOUBLE_EQ(profileFor("vortex").loadFrac, 0.18);
    EXPECT_DOUBLE_EQ(profileFor("vortex").storeFrac, 0.23);
    EXPECT_DOUBLE_EQ(profileFor("equake").loadFrac, 0.42);
}

TEST(Profiles, FractionsAreSane)
{
    for (const auto &name : allBenchmarks()) {
        const BenchmarkProfile &p = profileFor(name);
        EXPECT_GT(p.loadFrac, 0.0) << name;
        EXPECT_LT(p.loadFrac + p.storeFrac + p.branchFrac, 1.0) << name;
        EXPECT_GE(p.fpFrac, 0.0) << name;
        EXPECT_LE(p.fpFrac, 1.0) << name;
        EXPECT_GT(p.depDistMean, 0.0) << name;
        EXPECT_GT(p.strideFootprintKb, 0u) << name;
        EXPECT_GT(p.codeFootprintKb, 0u) << name;
        EXPECT_GT(p.paperBaseIpc, 0.0) << name;
    }
}

TEST(Profiles, UnknownBenchmarkIsFatal)
{
    EXPECT_DEATH({ profileFor("nonexistent"); }, "unknown benchmark");
}

// ------------------------------------------------ address stream ------

TEST(AddressStream, AddressesAreAligned)
{
    AddressStream s(profileFor("bzip"), Rng(1));
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(s.fromRegion(MemRegion::Stack, 0, 0x400000 + 4 * i) %
                      8,
                  0u);
        EXPECT_EQ(s.fromRegion(MemRegion::Stride, i % 4, 0x400000) % 8,
                  0u);
        EXPECT_EQ(s.fromRegion(MemRegion::Chase, 0, 0x400000) % 8, 0u);
    }
}

TEST(AddressStream, RegionsAreDisjoint)
{
    AddressStream s(profileFor("bzip"), Rng(2));
    for (int i = 0; i < 200; ++i) {
        Addr st = s.fromRegion(MemRegion::Stack, 0, 0x400000);
        Addr sr = s.fromRegion(MemRegion::Stride, 0, 0x400000);
        Addr ch = s.fromRegion(MemRegion::Chase, 0, 0x400000);
        EXPECT_GE(st, kStackBase);
        EXPECT_GE(sr, kHeapBase);
        EXPECT_LT(sr, kChaseBase);
        EXPECT_GE(ch, kChaseBase);
        EXPECT_LT(ch, kStackBase);
    }
}

TEST(AddressStream, StrideWalksSequentially)
{
    AddressStream s(profileFor("mgrid"), Rng(3));
    Addr a = s.fromRegion(MemRegion::Stride, 2, 0);
    Addr b = s.fromRegion(MemRegion::Stride, 2, 0);
    EXPECT_EQ(b, a + 8);
}

TEST(AddressStream, StreamsAreSeparate)
{
    // Streams occupy disjoint, page-separated, aligned ranges.
    auto layout = AddressStream::streamLayout(profileFor("mgrid"));
    for (std::size_t i = 0; i < layout.size(); ++i) {
        EXPECT_EQ(layout[i].base % 8, 0u);
        EXPECT_EQ(layout[i].size % 8, 0u);
        if (i > 0) {
            EXPECT_GE(layout[i].base,
                      layout[i - 1].base + layout[i - 1].size);
        }
    }
}

TEST(AddressStream, StackSlotIsPcStable)
{
    AddressStream s(profileFor("perl"), Rng(5));
    // Same PC, consecutive accesses, no drift in between (drift is a
    // 2% event; tolerate it by comparing offsets within the window).
    Addr a1 = s.fromRegion(MemRegion::Stack, 0, 0x400100);
    Addr a2 = s.fromRegion(MemRegion::Stack, 0, 0x400100);
    Addr b = s.fromRegion(MemRegion::Stack, 0, 0x400104);
    EXPECT_EQ(a1 % 4096, a2 % 4096);
    EXPECT_NE(a1 % 4096, b % 4096);
}

TEST(AddressStream, RecentStoreReuse)
{
    AddressStream s(profileFor("bzip"), Rng(6));
    s.noteStore(0x12345678);
    EXPECT_EQ(s.recentStoreAddr(MemRegion::Stack, 0, 0x400000),
              0x12345678u);
}

TEST(AddressStream, RecentLoadReuse)
{
    AddressStream s(profileFor("bzip"), Rng(7));
    s.noteLoad(0x1000);
    EXPECT_EQ(s.recentLoadAddr(MemRegion::Stack, 0, 0x400000),
              0x1000u);
}

TEST(AddressStream, EmptyRingsFallBack)
{
    AddressStream s(profileFor("bzip"), Rng(8));
    // No stores noted yet: must not crash, returns a fresh address.
    Addr a = s.recentStoreAddr(MemRegion::Chase, 0, 0x400000);
    EXPECT_GE(a, kChaseBase);
}

TEST(AddressStream, LayoutIsContiguousAndPageSeparated)
{
    auto layout = AddressStream::streamLayout(profileFor("mgrid"));
    ASSERT_GE(layout.size(), 2u);
    for (std::size_t i = 1; i < layout.size(); ++i) {
        EXPECT_EQ(layout[i].base,
                  layout[i - 1].base + layout[i - 1].size + 4096);
    }
}

TEST(AddressStream, ChaseHotSubsetBounds)
{
    Addr hot = AddressStream::chaseHotBytes(profileFor("mcf"));
    EXPECT_GE(hot, 4096u);
    EXPECT_LE(hot, 512u * 1024);
}

TEST(AddressStream, ChaseStaysInFootprint)
{
    const BenchmarkProfile &p = profileFor("twolf");
    AddressStream s(p, Rng(9));
    Addr bytes = static_cast<Addr>(p.chaseFootprintKb) * 1024;
    for (int i = 0; i < 2000; ++i) {
        Addr a = s.fromRegion(MemRegion::Chase, 0, 0);
        EXPECT_GE(a, kChaseBase);
        EXPECT_LT(a, kChaseBase + bytes);
    }
}

// --------------------------------------------------- branch model -----

TEST(BranchModel, OutcomesDeterministicPerSeed)
{
    BranchModel a(profileFor("gcc"), Rng(11));
    BranchModel b(profileFor("gcc"), Rng(11));
    for (Pc pc = 0x400000; pc < 0x400400; pc += 4) {
        BranchOutcome oa = a.resolve(pc);
        BranchOutcome ob = b.resolve(pc);
        EXPECT_EQ(oa.taken, ob.taken);
        EXPECT_EQ(oa.target, ob.target);
    }
}

TEST(BranchModel, TargetsWithinCodeRegion)
{
    BranchModel m(profileFor("gcc"), Rng(13));
    for (Pc pc = 0x400000; pc < 0x402000; pc += 4) {
        BranchOutcome o = m.resolve(pc);
        EXPECT_GE(o.target, m.codeBase());
        EXPECT_LT(o.target, m.codeBase() + m.codeBytes());
    }
}

TEST(BranchModel, TargetStablePerPc)
{
    BranchModel m(profileFor("bzip"), Rng(17));
    Pc pc = 0x400100;
    Pc t = m.resolve(pc).target;
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(m.resolve(pc).target, t);
}

TEST(BranchModel, LoopBranchesExitPeriodically)
{
    // Some static branch must behave like a loop: mostly taken with
    // periodic not-taken. Sample many PCs and find at least one.
    BranchModel m(profileFor("mgrid"), Rng(19));
    bool foundLoop = false;
    for (Pc pc = 0x400000; pc < 0x400000 + 4096 && !foundLoop;
         pc += 4) {
        unsigned taken = 0, total = 200;
        bool sawExit = false;
        Pc target = m.resolve(pc).target;
        for (unsigned i = 0; i < total; ++i) {
            BranchOutcome o = m.resolve(pc);
            taken += o.taken;
            sawExit |= !o.taken;
        }
        if (target < pc && taken > total * 3 / 4 && sawExit)
            foundLoop = true;
    }
    EXPECT_TRUE(foundLoop);
}

TEST(BranchModel, CheckpointRejectsTargetOutsideCodeRegion)
{
    BranchModel m(profileFor("gcc"), Rng(23));
    m.resolve(0x400100);
    SerialWriter w;
    m.saveState(w);
    std::string bytes = w.buffer();
    {
        BranchModel back(profileFor("gcc"), Rng(23));
        SerialReader r(bytes);
        back.loadState(r);
        EXPECT_EQ(back.resolve(0x400100).target,
                  m.resolve(0x400100).target);
    }
    // rng state, count, pc, kind, bias, period, count, then target.
    const std::size_t targetAt = 8 + 8 + 8 + 1 + 8 + 4 + 4;
    for (Pc forged : {Pc{0}, m.codeBase() + m.codeBytes(),
                      m.codeBase() + 2}) {
        std::string mutant = bytes;
        for (std::size_t i = 0; i < 8; ++i)
            mutant[targetAt + i] = static_cast<char>(forged >> (8 * i));
        BranchModel back(profileFor("gcc"), Rng(23));
        SerialReader r(mutant);
        EXPECT_THROW(back.loadState(r), SerialError) << forged;
    }
}

// ------------------------------------------------------ pc table ------

TEST(PcTable, IndexesTheCodeRegionInPcOrder)
{
    PcTable<int> t(0x400000, 64);
    EXPECT_TRUE(t.inRegion(0x400000));
    EXPECT_TRUE(t.inRegion(0x40003c));
    EXPECT_FALSE(t.inRegion(0x400040));   // one past the end
    EXPECT_FALSE(t.inRegion(0x3ffffc));
    EXPECT_FALSE(t.inRegion(0x400002));   // misaligned
    EXPECT_EQ(t.find(0x400010), nullptr);

    t.insert(0x400020, 2);
    t.insert(0x400000, 0);
    t.insert(0x40003c, 15);
    ASSERT_NE(t.find(0x400020), nullptr);
    EXPECT_EQ(*t.find(0x400020), 2);
    *t.find(0x400020) = 8;
    EXPECT_EQ(*t.find(0x400020), 8);
    EXPECT_EQ(t.size(), 3u);

    std::vector<std::pair<Pc, int>> seen;
    t.forEach([&](Pc pc, int v) { seen.emplace_back(pc, v); });
    const std::vector<std::pair<Pc, int>> sorted = {
        {0x400000, 0}, {0x400020, 8}, {0x40003c, 15}};
    EXPECT_EQ(seen, sorted);

    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(0x400020), nullptr);
    t.insert(0x400020, 3);
    EXPECT_EQ(*t.find(0x400020), 3);
}

TEST(PcTable, DuplicateInsertDies)
{
    PcTable<int> t(0x400000, 64);
    t.insert(0x400008, 1);
    EXPECT_DEATH(t.insert(0x400008, 2), "duplicate static record");
}

// ------------------------------------------------ trace generator -----

TEST(TraceGenerator, DeterministicForSeed)
{
    TraceGenerator a(profileFor("bzip"), 5);
    TraceGenerator b(profileFor("bzip"), 5);
    for (int i = 0; i < 5000; ++i) {
        MicroOp x = a.next();
        MicroOp y = b.next();
        EXPECT_EQ(x.seq, y.seq);
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.op, y.op);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.src1, y.src1);
        EXPECT_EQ(x.src2, y.src2);
        EXPECT_EQ(x.dest, y.dest);
        EXPECT_EQ(x.taken, y.taken);
    }
}

TEST(TraceGenerator, SeqNumbersAreDense)
{
    TraceGenerator g(profileFor("gzip"), 1);
    for (SeqNum i = 0; i < 1000; ++i)
        EXPECT_EQ(g.next().seq, i);
}

TEST(TraceGenerator, MixTracksProfile)
{
    const BenchmarkProfile &p = profileFor("mgrid");
    TraceGenerator g(p, 1);
    unsigned loads = 0, stores = 0, branches = 0;
    const unsigned n = 60000;
    for (unsigned i = 0; i < n; ++i) {
        MicroOp op = g.next();
        loads += op.isLoad();
        stores += op.isStore();
        branches += op.isBranch();
    }
    // Stratified assignment keeps dynamic mixes near targets even in
    // hot loops; allow generous slack for loop-sampling skew.
    EXPECT_NEAR(static_cast<double>(loads) / n, p.loadFrac, 0.10);
    EXPECT_NEAR(static_cast<double>(stores) / n, p.storeFrac, 0.05);
}

TEST(TraceGenerator, StaticProgramIsStable)
{
    // Revisiting a PC must produce the same op class.
    TraceGenerator g(profileFor("gzip"), 3);
    std::map<Pc, OpClass> classes;
    for (int i = 0; i < 50000; ++i) {
        MicroOp op = g.next();
        auto it = classes.find(op.pc);
        if (it == classes.end())
            classes[op.pc] = op.op;
        else
            ASSERT_EQ(it->second, op.op) << "pc " << std::hex << op.pc;
    }
    // Loops mean we actually revisited PCs.
    EXPECT_LT(classes.size(), 50000u);
}

TEST(TraceGenerator, LoadsHaveAddressesAndDests)
{
    TraceGenerator g(profileFor("bzip"), 7);
    for (int i = 0; i < 5000; ++i) {
        MicroOp op = g.next();
        if (op.isLoad()) {
            EXPECT_NE(op.addr, 0u);
            EXPECT_TRUE(op.hasDest());
            EXPECT_NE(op.dest, 0);   // never the zero register
        }
        if (op.isStore()) {
            EXPECT_NE(op.addr, 0u);
            EXPECT_FALSE(op.hasDest());
            EXPECT_NE(op.src2, kNoArchReg);   // data register
        }
        if (op.isBranch()) {
            EXPECT_FALSE(op.hasDest());
        }
    }
}

TEST(TraceGenerator, DestRegistersNeverZeroRegs)
{
    TraceGenerator g(profileFor("equake"), 9);
    for (int i = 0; i < 20000; ++i) {
        MicroOp op = g.next();
        if (op.hasDest()) {
            EXPECT_NE(op.dest, 0);
            EXPECT_NE(op.dest, kNumIntArchRegs);   // f0
            EXPECT_LT(op.dest, kNumArchRegs);
        }
    }
}

TEST(TraceGenerator, StoreLoadPairsExist)
{
    // Reloader loads must actually re-read addresses stores wrote.
    TraceGenerator g(profileFor("vortex"), 11);
    std::set<Addr> storeAddrs;
    unsigned reloads = 0, loads = 0;
    for (int i = 0; i < 50000; ++i) {
        MicroOp op = g.next();
        if (op.isStore())
            storeAddrs.insert(op.addr);
        if (op.isLoad()) {
            ++loads;
            reloads += storeAddrs.count(op.addr);
        }
    }
    EXPECT_GT(loads, 0u);
    // vortex is alias-heavy: a visible fraction of loads re-read
    // stored addresses.
    EXPECT_GT(static_cast<double>(reloads) / loads, 0.05);
}

TEST(TraceGenerator, SameAddressLoadPairsExist)
{
    TraceGenerator g(profileFor("perl"), 13);
    std::map<Addr, unsigned> loadAddrCount;
    unsigned loads = 0, repeats = 0;
    for (int i = 0; i < 50000; ++i) {
        MicroOp op = g.next();
        if (op.isLoad()) {
            ++loads;
            repeats += loadAddrCount[op.addr]++ ? 1 : 0;
        }
    }
    EXPECT_GT(static_cast<double>(repeats) / loads, 0.02);
}

TEST(TraceGenerator, BranchDensityReasonable)
{
    const BenchmarkProfile &p = profileFor("gcc");
    TraceGenerator g(p, 15);
    unsigned branches = 0;
    const unsigned n = 40000;
    for (unsigned i = 0; i < n; ++i)
        branches += g.next().isBranch();
    EXPECT_NEAR(static_cast<double>(branches) / n, p.branchFrac, 0.08);
}

TEST(TraceGenerator, CheckpointRoundTripContinuesIdentically)
{
    // gcc's 160 KB footprint: thousands of statics, loads and stores
    // with reuse partners, all in the per-PC table.
    TraceGenerator a(profileFor("gcc"), 9);
    for (int i = 0; i < 50000; ++i)
        a.next();
    SerialWriter w;
    a.saveState(w);

    TraceGenerator b(profileFor("gcc"), 9);
    SerialReader r(w.buffer());
    b.loadState(r);
    SerialWriter again;
    b.saveState(again);
    EXPECT_EQ(again.buffer(), w.buffer());

    for (int i = 0; i < 20000; ++i) {
        MicroOp x = a.next();
        MicroOp y = b.next();
        ASSERT_EQ(x.pc, y.pc) << i;
        ASSERT_EQ(x.addr, y.addr) << i;
        ASSERT_EQ(x.src1, y.src1) << i;
        ASSERT_EQ(x.src2, y.src2) << i;
        ASSERT_EQ(x.dest, y.dest) << i;
        ASSERT_EQ(x.taken, y.taken) << i;
    }
}

// -------------------------------------------------- inst stream -------

TEST(InstStream, FetchMatchesGenerator)
{
    InstStream s(profileFor("bzip"), 21);
    TraceGenerator g(profileFor("bzip"), 21);
    for (int i = 0; i < 2000; ++i) {
        const MicroOp &a = s.fetch();
        MicroOp b = g.next();
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.addr, b.addr);
    }
}

TEST(InstStream, SquashReplaysIdentically)
{
    InstStream s(profileFor("bzip"), 23);
    std::vector<MicroOp> first;
    for (int i = 0; i < 100; ++i)
        first.push_back(s.fetch());
    s.squashTo(40);
    for (int i = 40; i < 100; ++i) {
        const MicroOp &op = s.fetch();
        EXPECT_EQ(op.seq, first[i].seq);
        EXPECT_EQ(op.addr, first[i].addr);
        EXPECT_EQ(op.op, first[i].op);
        EXPECT_EQ(op.taken, first[i].taken);
    }
    // Continues into fresh instructions seamlessly.
    EXPECT_EQ(s.fetch().seq, 100u);
}

TEST(InstStream, RetireShrinksWindow)
{
    InstStream s(profileFor("bzip"), 25);
    for (int i = 0; i < 100; ++i)
        s.fetch();
    EXPECT_EQ(s.windowSize(), 100u);
    s.retireUpTo(49);
    EXPECT_EQ(s.windowSize(), 50u);
}

TEST(InstStream, SquashBeforeRetirePointDies)
{
    InstStream s(profileFor("bzip"), 27);
    for (int i = 0; i < 10; ++i)
        s.fetch();
    s.retireUpTo(4);
    EXPECT_DEATH({ s.squashTo(2); }, "commit point");
}

TEST(InstStream, SquashBeyondFetchDies)
{
    InstStream s(profileFor("bzip"), 29);
    for (int i = 0; i < 10; ++i)
        s.fetch();
    EXPECT_DEATH({ s.squashTo(50); }, "not yet fetched");
}

TEST(InstStream, NextSeqTracksCursor)
{
    InstStream s(profileFor("bzip"), 31);
    EXPECT_EQ(s.nextSeq(), 0u);
    s.fetch();
    s.fetch();
    EXPECT_EQ(s.nextSeq(), 2u);
    s.squashTo(1);
    EXPECT_EQ(s.nextSeq(), 1u);
}

TEST(InstStream, SquashReplayAcrossRingWrap)
{
    // The window ring starts with 256 slots. Retiring 150 and fetching
    // 200 more puts the live range across the wrap without growing it.
    InstStream s(profileFor("gcc"), 35);
    std::vector<MicroOp> ops;
    for (int i = 0; i < 200; ++i)
        ops.push_back(s.fetch());
    s.retireUpTo(149);
    for (int i = 200; i < 400; ++i)
        ops.push_back(s.fetch());
    ASSERT_EQ(s.windowSize(), 250u);
    s.squashTo(240);   // 240..399 cross storage slot 255 -> 0
    EXPECT_EQ(s.nextSeq(), 240u);
    for (int i = 240; i < 400; ++i) {
        const MicroOp &op = s.fetch();
        EXPECT_EQ(op.seq, ops[i].seq);
        EXPECT_EQ(op.addr, ops[i].addr);
        EXPECT_EQ(op.pc, ops[i].pc);
    }
    EXPECT_EQ(s.fetch().seq, 400u);
}

TEST(InstStream, RepeatedSquashReplay)
{
    InstStream s(profileFor("gcc"), 33);
    std::vector<Addr> addrs;
    for (int i = 0; i < 50; ++i)
        addrs.push_back(s.fetch().addr);
    for (int round = 0; round < 5; ++round) {
        s.squashTo(10);
        for (int i = 10; i < 50; ++i)
            EXPECT_EQ(s.fetch().addr, addrs[i]);
    }
}

// Property sweep: every benchmark generates a well-formed stream.
class AllBenchmarks : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllBenchmarks, StreamIsWellFormed)
{
    const BenchmarkProfile &p = profileFor(GetParam());
    TraceGenerator g(p, 99);
    unsigned mem = 0;
    for (int i = 0; i < 20000; ++i) {
        MicroOp op = g.next();
        EXPECT_EQ(op.seq, static_cast<SeqNum>(i));
        EXPECT_GE(op.pc, kCodeBase);
        if (op.isMem()) {
            ++mem;
            EXPECT_EQ(op.addr % 8, 0u);
            EXPECT_NE(op.addr, 0u);
        }
        if (op.src1 != kNoArchReg) {
            EXPECT_LT(op.src1, kNumArchRegs);
        }
        if (op.src2 != kNoArchReg) {
            EXPECT_LT(op.src2, kNumArchRegs);
        }
    }
    EXPECT_GT(mem, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, AllBenchmarks,
                         ::testing::ValuesIn(allBenchmarks()));

// ------------------------------------------- statistical properties ---

TEST(TraceGenerator, DepDistanceControlsChainTightness)
{
    // Shorter depDistMean => sources come from nearer producers. Proxy
    // measurement: how often src1 of an arithmetic op equals the dest
    // of one of the previous 4 instructions.
    auto nearSourceRate = [](double mean) {
        BenchmarkProfile p = profileFor("bzip");
        p.depDistMean = mean;
        TraceGenerator g(p, 5);
        std::deque<ArchReg> recent;
        unsigned near = 0, arith = 0;
        for (int i = 0; i < 30000; ++i) {
            MicroOp op = g.next();
            if (!op.isMem() && !op.isBranch()) {
                ++arith;
                for (ArchReg r : recent)
                    if (op.src1 == r) {
                        ++near;
                        break;
                    }
            }
            if (op.hasDest()) {
                recent.push_back(op.dest);
                if (recent.size() > 4)
                    recent.pop_front();
            }
        }
        return static_cast<double>(near) / arith;
    };
    EXPECT_GT(nearSourceRate(2.0), nearSourceRate(20.0) + 0.1);
}

TEST(TraceGenerator, AddrChainProbControlsLoadDependence)
{
    // Chained addresses source from the general producer ring (which
    // includes load destinations: pointer chains); unchained ones
    // source from the short ALU ring. Measure how often a load's
    // address register was recently written by another load.
    auto loadChainedRate = [](double prob) {
        BenchmarkProfile p = profileFor("bzip");
        p.addrChainProb = prob;
        TraceGenerator g(p, 5);
        std::deque<ArchReg> recentLoadDests;
        unsigned chained = 0, loads = 0;
        for (int i = 0; i < 40000; ++i) {
            MicroOp op = g.next();
            if (op.isLoad()) {
                ++loads;
                for (ArchReg r : recentLoadDests)
                    if (op.src1 == r && r != 0) {
                        ++chained;
                        break;
                    }
                recentLoadDests.push_back(op.dest);
                if (recentLoadDests.size() > 8)
                    recentLoadDests.pop_front();
            }
        }
        return static_cast<double>(chained) / loads;
    };
    EXPECT_GT(loadChainedRate(0.95), loadChainedRate(0.05) + 0.1);
}

TEST(BranchModel, TakenRateIsAMix)
{
    // Dynamic branch outcomes are a real mix per benchmark (neither
    // all-taken nor all-not-taken): the predictor has something to do.
    for (const char *bench : {"gcc", "mgrid", "perl"}) {
        TraceGenerator g(profileFor(bench), 5);
        unsigned taken = 0, branches = 0;
        for (int i = 0; i < 60000; ++i) {
            MicroOp op = g.next();
            if (op.isBranch()) {
                ++branches;
                taken += op.taken;
            }
        }
        ASSERT_GT(branches, 100u) << bench;
        double rate = static_cast<double>(taken) / branches;
        EXPECT_GT(rate, 0.05) << bench;
        EXPECT_LT(rate, 0.95) << bench;
    }
}
