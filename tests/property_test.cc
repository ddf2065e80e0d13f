/**
 * @file
 * Randomized property tests: drive the LSQ structures with fuzzed
 * operation sequences and check invariants that must hold for any
 * legal sequence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <vector>

#include "check/lsq_checker.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "lsq/lsq.hh"
#include "lsq/segment_allocator.hh"
#include "core/core.hh"
#include "memory/probe_agent.hh"
#include "predictor/store_set.hh"
#include "sample/checkpoint.hh"
#include "sim/sim_config.hh"
#include "workload/benchmark_profile.hh"

using namespace lsqscale;

// ---------------------------------------------- SegmentAllocator ------

class AllocatorFuzz
    : public ::testing::TestWithParam<std::tuple<SegAllocPolicy,
                                                 std::uint64_t>>
{
};

TEST_P(AllocatorFuzz, OccupancyInvariants)
{
    auto [policy, seed] = GetParam();
    const unsigned segments = 4, perSegment = 7;
    SegmentAllocator a(segments, perSegment, policy);
    Rng rng(seed);
    unsigned live = 0;

    for (int step = 0; step < 20000; ++step) {
        double r = rng.uniform();
        if (r < 0.45 && a.canAllocate()) {
            unsigned seg = a.allocate();
            ASSERT_LT(seg, segments);
            ++live;
        } else if (r < 0.75 && live > 0) {
            a.freeOldest();
            --live;
        } else if (live > 0) {
            a.freeYoungest();
            --live;
        }
        ASSERT_EQ(a.live(), live);
        unsigned sum = 0;
        for (unsigned s = 0; s < segments; ++s) {
            ASSERT_LE(a.occupancy(s), perSegment);
            sum += a.occupancy(s);
        }
        ASSERT_EQ(sum, live);
        ASSERT_EQ(a.canAllocate(), live < segments * perSegment);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, AllocatorFuzz,
    ::testing::Combine(::testing::Values(SegAllocPolicy::NoSelfCircular,
                                         SegAllocPolicy::SelfCircular),
                       ::testing::Values(1u, 7u, 99u, 1234u)));

// ---------------------------------------------------- LSQ fuzz --------

namespace {

struct ShadowLoad
{
    SeqNum seq;
    bool executed = false;
};

struct ShadowStore
{
    SeqNum seq;
    bool executed = false;
    Addr addr = 0;
};

/** Span of live seqs the fuzzed LSQs cover, like a small ROB. */
constexpr unsigned kFuzzWindow = 64;

/** Oldest live seq of the shadow queues, or @p next when both are empty. */
SeqNum
oldestLive(const std::deque<ShadowLoad> &loads,
           const std::deque<ShadowStore> &stores, SeqNum next)
{
    SeqNum lo = next;
    if (!loads.empty())
        lo = std::min(lo, loads.front().seq);
    if (!stores.empty())
        lo = std::min(lo, stores.front().seq);
    return lo;
}

/** The fuzzed designs: flat, segmented, combined. */
LsqParams
fuzzDesign(int design)
{
    LsqParams params;
    params.lqEntries = 8;
    params.sqEntries = 8;
    params.searchPorts = 2;
    params.allocPolicy = SegAllocPolicy::SelfCircular;
    if (design >= 1)
        params.numSegments = 2;
    params.combinedQueue = design == 2;
    return params;
}

} // namespace

class LsqFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(LsqFuzz, ShadowModelAgreesOnOccupancyAndOrder)
{
    // Positions are tickets, so the shadow checks every answer that
    // depends on them: occupancy, which stores are older than a load,
    // whether a store is still unaddressed, and the forwarding source.
    auto [seed, design] = GetParam();
    LsqParams params = fuzzDesign(design);
    const unsigned capacity =
        params.totalLqEntries() + (params.combinedQueue
                                       ? 0
                                       : params.totalSqEntries());

    StatSet stats;
    Lsq lsq(params, kFuzzWindow, stats);
    Rng rng(seed);

    std::deque<ShadowLoad> loads;
    std::deque<ShadowStore> stores;
    SeqNum nextSeq = 0;
    Cycle now = 0;
    std::uint64_t longRuns = 0, replays = 0, forwards = 0;
    // Few addresses, so that loads often have an older matching store.
    auto addrOf = [](SeqNum seq) { return 0x8000 + 8 * (seq % 5); };

    for (int step = 0; step < 30000; ++step) {
        ++now;
        // The window is a ROB: nothing dispatches past its end.
        const SeqNum room =
            oldestLive(loads, stores, nextSeq) + kFuzzWindow - nextSeq;
        double r = rng.uniform();
        if (r < 0.04) {
            // A run of non-memory ops longer than the LQ and SQ hold.
            SeqNum run = capacity + 1 + rng.below(capacity);
            if (run < room) {
                nextSeq += run;
                ++longRuns;
            }
        } else if (r < 0.30) {
            // Allocate a memory op.
            bool isLoad = rng.chance(0.7);
            if (room == 0) {
                // Window full: dispatch waits.
            } else if (isLoad && lsq.canAllocateLoad()) {
                lsq.allocateLoad(nextSeq, 0x1000 + 4 * nextSeq);
                loads.push_back({nextSeq, false});
                ++nextSeq;
            } else if (!isLoad && lsq.canAllocateStore()) {
                lsq.allocateStore(nextSeq, 0x1000 + 4 * nextSeq);
                stores.push_back({nextSeq, false, 0});
                ++nextSeq;
            } else {
                ++nextSeq;   // arithmetic op, seq advances
            }
        } else if (r < 0.50) {
            // Execute a random non-executed load.
            std::vector<ShadowLoad *> cands;
            for (auto &l : loads)
                if (!l.executed)
                    cands.push_back(&l);
            if (!cands.empty()) {
                ShadowLoad *l = cands[rng.below(cands.size())];
                Addr addr = addrOf(l->seq);
                SeqNum expect = kNoSeq;
                for (const auto &st : stores)
                    if (st.seq < l->seq && st.executed && st.addr == addr)
                        expect = st.seq;
                ASSERT_EQ(lsq.olderMatchingStore(l->seq, addr),
                          expect != kNoSeq)
                    << "step " << step;
                bool search = rng.chance(0.8);
                LoadIssueOutcome out =
                    lsq.issueLoad(l->seq, addr, now, search);
                if (out.status == LoadIssueStatus::Accepted) {
                    l->executed = true;
                    ASSERT_EQ(out.forwarded, search && expect != kNoSeq)
                        << "step " << step;
                    if (out.forwarded) {
                        ASSERT_EQ(out.forwardedFrom, expect)
                            << "step " << step;
                        ++forwards;
                    }
                }
            }
        } else if (r < 0.65) {
            // AGEN a random non-executed store.
            std::vector<ShadowStore *> cands;
            for (auto &st : stores)
                if (!st.executed)
                    cands.push_back(&st);
            if (!cands.empty()) {
                ShadowStore *st = cands[rng.below(cands.size())];
                Addr addr = addrOf(st->seq);
                if (lsq.storeAddrReady(st->seq, addr, now).accepted) {
                    st->executed = true;
                    st->addr = addr;
                }
            }
        } else if (r < 0.85) {
            // Commit the oldest memory op if it has executed.
            SeqNum oldestLoad =
                loads.empty() ? kNoSeq : loads.front().seq;
            SeqNum oldestStore =
                stores.empty() ? kNoSeq : stores.front().seq;
            if (oldestLoad != kNoSeq &&
                (oldestStore == kNoSeq || oldestLoad < oldestStore)) {
                if (loads.front().executed) {
                    lsq.commitLoad(oldestLoad);
                    loads.pop_front();
                }
            } else if (oldestStore != kNoSeq) {
                if (stores.front().executed &&
                    lsq.commitStore(oldestStore, now).accepted)
                    stores.pop_front();
            }
        } else if (r < 0.90 && (loads.size() + stores.size()) > 0) {
            // Squash from a random live seq; the stream replays from
            // the target, so the same seqs allocate again.
            SeqNum lo = oldestLive(loads, stores, nextSeq);
            SeqNum target = lo + rng.below(nextSeq - lo + 1);
            lsq.squashFrom(target);
            while (!loads.empty() && loads.back().seq >= target)
                loads.pop_back();
            while (!stores.empty() && stores.back().seq >= target)
                stores.pop_back();
            replays += target < nextSeq;
            nextSeq = target;
        }

        ASSERT_EQ(lsq.lqLive(), loads.size());
        ASSERT_EQ(lsq.sqLive(), stores.size());
        // Lookups by seq, live and not: every store, and the seqs
        // around the live range.
        bool unaddressed = false;
        for (const auto &st : stores)
            ASSERT_EQ(lsq.storePendingAddress(st.seq), !st.executed);
        ASSERT_FALSE(lsq.storePendingAddress(nextSeq));
        for (const auto &l : loads) {
            ASSERT_FALSE(lsq.storePendingAddress(l.seq));
            bool expect = false;
            for (const auto &st : stores)
                expect |= st.seq < l.seq && !st.executed;
            ASSERT_EQ(lsq.anyOlderStoreUnaddressed(l.seq), expect)
                << "step " << step;
        }
        for (const auto &st : stores)
            unaddressed |= !st.executed;
        ASSERT_EQ(lsq.anyOlderStoreUnaddressed(nextSeq), unaddressed);
        lsq.checkPositions();
    }
    EXPECT_GT(longRuns, 100u);
    EXPECT_GT(replays, 100u);
    EXPECT_GT(forwards, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LsqFuzz,
    ::testing::Combine(::testing::Values(3u, 11u, 42u, 500u, 9001u),
                       ::testing::Values(0, 1, 2)));

TEST(LsqFuzzDeathTest, LiveSpanBeyondWindowPanics)
{
    // Slots are seq & (window - 1): two live seqs a window apart would
    // share one, so the allocation that would open that span panics.
    for (int design = 0; design < 3; ++design) {
        StatSet stats;
        Lsq lsq(fuzzDesign(design), kFuzzWindow, stats);
        lsq.allocateLoad(5, 0x1000);
        lsq.allocateStore(5 + kFuzzWindow - 1, 0x1004);   // span fits
        EXPECT_DEATH({ lsq.allocateLoad(5 + kFuzzWindow, 0x1008); },
                     "span more than the window");
        EXPECT_DEATH({ lsq.allocateStore(5 + kFuzzWindow, 0x1008); },
                     "span more than the window");
    }
}

// ------------------------------------------------ checked LSQ fuzz ----

/**
 * Randomized traces validated by the ordering oracle. Unlike LsqFuzz
 * above (which only checks occupancy and deliberately ignores the
 * LSQ's violation reports), this harness plays the core's role
 * faithfully — every load searches the SQ, every reported violation
 * triggers a squash-and-replay, commits retire the oldest op — so the
 * oracle's zero-mismatch guarantee applies: any forwarding or ordering
 * bug the random trace tickles fails the test with full provenance.
 *
 * The third parameter turns on a randomized coherence-probe schedule:
 * a ProbeAgent (scripted writers over the fuzz address range plus
 * random traffic over its commit-fed watch set) injects invalidations
 * through the same due/delivered/rejected protocol the core uses, and
 * every reported victim is squashed. The oracle validates the probe
 * path too — victim agreement, the squash obligation, and the
 * end-to-end remote-write staleness rule at every commit.
 */
class CheckedLsqFuzz
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, int, bool>>
{
};

namespace {

/** Deterministic address per op: replays after a squash re-read it. */
Addr
fuzzAddr(SeqNum seq)
{
    return 0x8000 + 8 * (seq % 16);
}

} // namespace

TEST_P(CheckedLsqFuzz, OracleFindsNoMismatches)
{
    auto [seed, design, probed] = GetParam();
    LsqParams params;
    params.lqEntries = 8;
    params.sqEntries = 8;
    params.numSegments = 2;
    params.searchPorts = 2;
    params.allocPolicy = SegAllocPolicy::SelfCircular;
    switch (design) {
      case 0:   // conventional
        break;
      case 1:   // pair-predictor scheme: detection at store commit
        params.checkViolationsAtCommit = true;
        break;
      case 2:   // load buffer replaces LQ load-load searches
        params.loadCheck = LoadCheckPolicy::LoadBuffer;
        params.loadBufferEntries = 2;
        break;
      case 3:   // combined load/store queue
        params.combinedQueue = true;
        break;
    }

    StatSet stats;
    Lsq lsq(params, kFuzzWindow, stats);
    LsqChecker checker(params);
    lsq.attachChecker(&checker);
    Rng rng(seed);

    std::unique_ptr<ProbeAgent> probes;
    if (probed) {
        ProbeAgentParams pp;
        pp.enabled = true;
        pp.seed = seed ^ 0x70726f6265ULL;
        pp.probesPerKCycle = 25.0;
        pp.watchCapacity = 4;
        pp.writers.push_back(ProbeWriter{fuzzAddr(0), 40, 97, 0});
        pp.writers.push_back(ProbeWriter{fuzzAddr(5), 60, 131, 0});
        probes = std::make_unique<ProbeAgent>(pp);
    }

    std::deque<ShadowLoad> loads;
    std::deque<ShadowStore> stores;
    SeqNum nextSeq = 0;
    Cycle now = 0;

    auto doSquash = [&](SeqNum target) {
        lsq.squashFrom(target);
        while (!loads.empty() && loads.back().seq >= target)
            loads.pop_back();
        while (!stores.empty() && stores.back().seq >= target)
            stores.pop_back();
        nextSeq = target;   // the stream replays from the squash point
    };

    for (int step = 0; step < 20000; ++step) {
        ++now;
        if (probes) {
            // The coherence stage the core would run: deliver one due
            // probe, squash any reported victim, retry on rejection.
            Addr pa = 0;
            if (probes->due(now, pa)) {
                StoreSearchOutcome out = lsq.invalidate(pa, now);
                if (!out.accepted) {
                    probes->rejected();
                } else {
                    probes->delivered(pa, now, out.violationLoad);
                    if (out.violationLoad != kNoSeq)
                        doSquash(out.violationLoad);
                }
            }
        }
        double r = rng.uniform();
        if (r < 0.30) {
            bool isLoad = rng.chance(0.6);
            if (nextSeq - oldestLive(loads, stores, nextSeq) >=
                kFuzzWindow) {
                // Window full: dispatch waits.
            } else if (isLoad && lsq.canAllocateLoad()) {
                lsq.allocateLoad(nextSeq, 0x1000 + 4 * nextSeq);
                loads.push_back({nextSeq, false});
                ++nextSeq;
            } else if (!isLoad && lsq.canAllocateStore()) {
                lsq.allocateStore(nextSeq, 0x1000 + 4 * nextSeq);
                stores.push_back({nextSeq, false});
                ++nextSeq;
            } else {
                ++nextSeq;   // arithmetic op, seq advances
            }
        } else if (r < 0.52) {
            // Issue a random non-executed load; honor any load-load
            // violation report with the squash the core would perform.
            std::vector<ShadowLoad *> cands;
            for (auto &l : loads)
                if (!l.executed)
                    cands.push_back(&l);
            if (!cands.empty()) {
                ShadowLoad *l = cands[rng.below(cands.size())];
                LoadIssueOutcome out =
                    lsq.issueLoad(l->seq, fuzzAddr(l->seq), now, true);
                if (out.status == LoadIssueStatus::Accepted) {
                    l->executed = true;
                    if (!out.llViolations.empty()) {
                        SeqNum oldest = out.llViolations.front();
                        for (SeqNum v : out.llViolations)
                            oldest = std::min(oldest, v);
                        doSquash(oldest);
                    }
                }
            }
        } else if (r < 0.68) {
            // AGEN a random non-executed store; a reported premature
            // load squashes (conventional execute-time detection).
            std::vector<ShadowStore *> cands;
            for (auto &s : stores)
                if (!s.executed)
                    cands.push_back(&s);
            if (!cands.empty()) {
                ShadowStore *s = cands[rng.below(cands.size())];
                StoreSearchOutcome out =
                    lsq.storeAddrReady(s->seq, fuzzAddr(s->seq), now);
                if (out.accepted) {
                    s->executed = true;
                    if (out.violationLoad != kNoSeq)
                        doSquash(out.violationLoad);
                }
            }
        } else if (r < 0.90) {
            // Commit the oldest memory op if it has executed; honor
            // commit-time violation reports (pair scheme).
            SeqNum oldestLoad =
                loads.empty() ? kNoSeq : loads.front().seq;
            SeqNum oldestStore =
                stores.empty() ? kNoSeq : stores.front().seq;
            if (oldestLoad != kNoSeq &&
                (oldestStore == kNoSeq || oldestLoad < oldestStore)) {
                if (loads.front().executed) {
                    lsq.commitLoad(oldestLoad);
                    loads.pop_front();
                    if (probes)
                        probes->observeLoadCommit(
                            oldestLoad, 0x1000 + 4 * oldestLoad,
                            fuzzAddr(oldestLoad), now, kNoSeq, now);
                }
            } else if (oldestStore != kNoSeq &&
                       stores.front().executed) {
                StoreSearchOutcome out =
                    lsq.commitStore(oldestStore, now);
                if (out.accepted) {
                    stores.pop_front();
                    if (probes)
                        probes->observeStoreCommit(
                            oldestStore, 0x1000 + 4 * oldestStore,
                            fuzzAddr(oldestStore), now);
                    if (out.violationLoad != kNoSeq)
                        doSquash(out.violationLoad);
                }
            }
        } else if (loads.size() + stores.size() > 0) {
            // Branch misprediction: squash from a random live seq.
            SeqNum lo = kNoSeq;
            if (!loads.empty())
                lo = loads.front().seq;
            if (!stores.empty())
                lo = lo == kNoSeq ? stores.front().seq
                                  : std::min(lo, stores.front().seq);
            doSquash(lo + rng.below(nextSeq - lo + 1));
        }

        ASSERT_EQ(checker.mismatches(), 0u)
            << "step " << step << "\n" << checker.report();
    }

    // Drain: retire everything outstanding so the end-to-end commit
    // checks cover the tail of the trace too.
    for (int guard = 0; guard < 200000 &&
                        (loads.size() + stores.size()) > 0; ++guard) {
        ++now;
        SeqNum oldestLoad = loads.empty() ? kNoSeq : loads.front().seq;
        SeqNum oldestStore =
            stores.empty() ? kNoSeq : stores.front().seq;
        if (oldestLoad != kNoSeq &&
            (oldestStore == kNoSeq || oldestLoad < oldestStore)) {
            ShadowLoad &l = loads.front();
            if (!l.executed) {
                LoadIssueOutcome out =
                    lsq.issueLoad(l.seq, fuzzAddr(l.seq), now, true);
                if (out.status != LoadIssueStatus::Accepted)
                    continue;
                l.executed = true;
                if (!out.llViolations.empty()) {
                    SeqNum oldest = out.llViolations.front();
                    for (SeqNum v : out.llViolations)
                        oldest = std::min(oldest, v);
                    doSquash(oldest);
                    continue;
                }
            }
            lsq.commitLoad(l.seq);
            loads.pop_front();
        } else if (oldestStore != kNoSeq) {
            ShadowStore &s = stores.front();
            if (!s.executed) {
                StoreSearchOutcome out =
                    lsq.storeAddrReady(s.seq, fuzzAddr(s.seq), now);
                if (!out.accepted)
                    continue;
                s.executed = true;
                if (out.violationLoad != kNoSeq) {
                    doSquash(out.violationLoad);
                    continue;
                }
            }
            StoreSearchOutcome out = lsq.commitStore(s.seq, now);
            if (out.accepted) {
                stores.pop_front();
                if (out.violationLoad != kNoSeq)
                    doSquash(out.violationLoad);
            }
        }
    }
    EXPECT_EQ(loads.size() + stores.size(), 0u)
        << "drain loop failed to retire the tail";
    EXPECT_EQ(checker.mismatches(), 0u) << checker.report();
    lsq.attachChecker(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, CheckedLsqFuzz,
    ::testing::Combine(::testing::Values(5u, 123u, 4242u),
                       ::testing::Values(0, 1, 2, 3),
                       ::testing::Bool()));

// ------------------------------------------- probe bit-identity -------

TEST(ProbeProperty, IdleAgentIsNonPerturbing)
{
    // The probe model must follow the tracer's discipline: attaching
    // an agent that never fires cannot perturb the run — the golden
    // suite stays valid for every probes-off configuration. Compare
    // the full sorted stats dump byte for byte.
    SimConfig cfg = configs::base("bzip");
    auto runDump = [&cfg](bool attach) {
        StatSet stats;
        Core core(cfg.core, cfg.lsq, cfg.memory,
                  profileFor(cfg.benchmark), cfg.seed, stats);
        ProbeAgentParams pp;
        pp.enabled = true;   // attached, but nothing ever scheduled
        ProbeAgent agent(pp);
        if (attach)
            core.attachCoherenceAgent(&agent);
        core.run(8000);
        if (attach) {
            core.attachCoherenceAgent(nullptr);
            EXPECT_EQ(agent.deliveredCount(), 0u);
        }
        return stats.dump();
    };
    EXPECT_EQ(runDump(false), runDump(true));
}

// ------------------------------------------- StoreSet counter fuzz ----

class StoreSetFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(StoreSetFuzz, CounterNeverDesyncsFromInFlightSet)
{
    // Fetch/issue/commit/squash stores of one set randomly; the
    // counter must be zero exactly when nothing is in flight (up to
    // saturation, which only occurs above 7 simultaneous stores —
    // avoided here).
    StoreSetParams params;
    params.clearInterval = 0;
    StoreSetPredictor ssp(params);
    ssp.trainPair(0x100, 0x200);

    Rng rng(GetParam());
    std::vector<std::pair<SeqNum, StorePrediction>> inflight;
    SeqNum next = 0;

    for (int step = 0; step < 20000; ++step) {
        double r = rng.uniform();
        if (r < 0.4 && inflight.size() < 7) {
            StorePrediction tag = ssp.storeFetch(0x100, next);
            inflight.emplace_back(next, tag);
            ++next;
        } else if (r < 0.7 && !inflight.empty()) {
            // Commit the oldest.
            auto [seq, tag] = inflight.front();
            inflight.erase(inflight.begin());
            ssp.storeIssued(tag, seq);
            ssp.storeCommitted(tag);
        } else if (!inflight.empty()) {
            // Squash the youngest.
            auto [seq, tag] = inflight.back();
            inflight.pop_back();
            ssp.storeSquashed(tag, seq);
        }
        ASSERT_EQ(ssp.counterNonZero(inflight.empty()
                                         ? ssp.loadFetch(0x200).ssid
                                         : inflight.front().second.ssid),
                  !inflight.empty())
            << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreSetFuzz,
                         ::testing::Values(2u, 29u, 777u));

// -------------------------------------------- forwarding property -----

TEST(LsqProperty, ForwardingAlwaysReturnsYoungestOlderMatch)
{
    // Randomized store sets; every load's forwarding source must be
    // the maximum store seq among matching older stores.
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        LsqParams params;
        params.lqEntries = 16;
        params.sqEntries = 16;
        params.searchPorts = 4;
        params.loadCheck = LoadCheckPolicy::None;
        StatSet stats;
        Lsq lsq(params, kFuzzWindow, stats);
        LsqChecker checker(params);
        lsq.attachChecker(&checker);

        std::vector<std::pair<SeqNum, Addr>> storeAddrs;
        SeqNum seq = 0;
        unsigned nStores = 1 + rng.below(12);
        Cycle now = 0;
        for (unsigned i = 0; i < nStores; ++i) {
            Addr a = 0x9000 + 8 * rng.below(4);
            lsq.allocateStore(seq, 0x1000 + 4 * seq);
            while (!lsq.storeAddrReady(seq, a, now).accepted)
                ++now;
            storeAddrs.emplace_back(seq, a);
            ++seq;
            ++now;
        }
        Addr target = 0x9000 + 8 * rng.below(4);
        lsq.allocateLoad(seq, 0x1000 + 4 * seq);
        LoadIssueOutcome out;
        do {
            out = lsq.issueLoad(seq, target, now++, true);
        } while (out.status != LoadIssueStatus::Accepted);

        SeqNum expect = kNoSeq;
        for (auto &[s, a] : storeAddrs)
            if (a == target && s < seq &&
                (expect == kNoSeq || s > expect))
                expect = s;
        if (expect == kNoSeq) {
            EXPECT_FALSE(out.forwarded);
        } else {
            ASSERT_TRUE(out.forwarded);
            EXPECT_EQ(out.forwardedFrom, expect);
        }
        // The ordering oracle shadows the same trial and must agree.
        EXPECT_EQ(checker.mismatches(), 0u) << checker.report();
        lsq.attachChecker(nullptr);
    }
}

// --------------------------------- checkpointed oracle validation -----

/**
 * Checkpointed-oracle fuzz: fast-forward a core to a randomized
 * point, save a checkpoint there, restore it into a fresh core, and
 * validate the *remainder* of the run under the ordering oracle.
 * Catches restore bugs no counter diff can: state that restores
 * plausibly but violates an LSQ invariant only several thousand
 * operations later.
 */
class CheckpointedOracleFuzz
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
  protected:
    void
    SetUp() override
    {
        unsetenv("LSQSCALE_INSTS");
    }
};

TEST_P(CheckpointedOracleFuzz, RemainderRunsCleanAfterRestore)
{
    auto [benchmark, design] = GetParam();
    SimConfig cfg = configs::base(benchmark);
    cfg.seed = 1234 + static_cast<std::uint64_t>(design);
    switch (design) {
      case 0:
        break;
      case 1:
        cfg = configs::withSegmentation(cfg, 4, 8,
                                        SegAllocPolicy::SelfCircular);
        break;
      case 2:
        cfg = configs::withLoadBuffer(cfg, 2);
        break;
    }
    // Randomize the snapshot point per parameter combo so the
    // restored runs start from many different warmed states.
    Rng rng(cfg.seed * 1000003 + static_cast<std::uint64_t>(design));
    const std::uint64_t kFf = 8000 + rng.below(8000);
    const std::uint64_t kRemainder = 12000;
    std::string ckpt = ::testing::TempDir() + "/oracle_" + benchmark +
                       "_" + std::to_string(design) + ".ckpt";

    {
        StatSet stats;
        Core core(cfg.core, cfg.lsq, cfg.memory,
                  profileFor(cfg.benchmark), cfg.seed, stats);
        core.fastForward(kFf);
        saveCheckpoint(core, cfg, ckpt);
    }

    StatSet stats;
    Core core(cfg.core, cfg.lsq, cfg.memory,
              profileFor(cfg.benchmark), cfg.seed, stats);
    LsqChecker checker(cfg.lsq);
    core.lsq().attachChecker(&checker);
    loadCheckpoint(core, cfg, ckpt);
    EXPECT_EQ(core.committed(), kFf);
    core.run(core.committed() + kRemainder);
    EXPECT_GT(checker.opsChecked(), 0u);
    EXPECT_EQ(checker.mismatches(), 0u) << checker.report();
    core.lsq().attachChecker(nullptr);
    std::remove(ckpt.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Designs, CheckpointedOracleFuzz,
    ::testing::Combine(::testing::Values(std::string("bzip"),
                                         std::string("gcc"),
                                         std::string("art")),
                       ::testing::Values(0, 1, 2)));
