/**
 * @file
 * Microbenchmarks (google-benchmark) of the simulator's hot
 * structures: LSQ allocate/issue/commit round trips at several sizes
 * and port counts, port-blocked load retries, segmented search
 * planning, issue-queue wakeup and select, the load buffer, the
 * predictors, and the checkpoint CRC and restore. These guard the
 * simulator's own performance — the experiment benches run millions
 * of these operations.
 *
 *   micro_lsq_structures --benchmark_format=json
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "core/issue_queue.hh"
#include "lsq/lsq.hh"
#include "predictor/branch_predictor.hh"
#include "predictor/store_set.hh"
#include "sample/checkpoint.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"

using namespace lsqscale;

namespace {

/** Span of live seqs an LSQ covers: Table 1's ROB. */
constexpr unsigned kWindow = 256;

LsqParams
paramsFor(unsigned entries, unsigned segments, unsigned ports)
{
    LsqParams p;
    p.lqEntries = entries;
    p.sqEntries = entries;
    p.numSegments = segments;
    p.searchPorts = ports;
    return p;
}

void
lsqRoundTrip(benchmark::State &state, LsqParams params)
{
    StatSet stats;
    Lsq lsq(params, kWindow, stats);
    Rng rng(7);
    SeqNum seq = 0;
    Cycle now = 0;
    std::vector<SeqNum> loads;
    std::vector<SeqNum> stores;

    for (auto _ : state) {
        (void)_;
        // Fill half the queue with interleaved loads/stores, issue
        // them, then drain by committing in order.
        loads.clear();
        stores.clear();
        unsigned fill = params.totalLqEntries() / 2;
        for (unsigned i = 0; i < fill; ++i) {
            if (i % 4 == 3) {
                lsq.allocateStore(seq, 0x1000 + seq * 4);
                stores.push_back(seq);
            } else {
                lsq.allocateLoad(seq, 0x1000 + seq * 4);
                loads.push_back(seq);
            }
            ++seq;
        }
        for (SeqNum s : stores)
            lsq.storeAddrReady(s, 0x8000 + rng.below(64) * 8, now++);
        for (SeqNum l : loads) {
            LoadIssueOutcome out = lsq.issueLoad(
                l, 0x8000 + rng.below(64) * 8, now++, true);
            benchmark::DoNotOptimize(out.status);
        }
        // Commit in allocation order.
        std::size_t li = 0, si = 0;
        for (unsigned i = 0; i < fill; ++i) {
            if (i % 4 == 3)
                lsq.commitStore(stores[si++], now++);
            else
                lsq.commitLoad(loads[li++]);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            params.totalLqEntries() / 2);
}

void
BM_LsqFlat32_2p(benchmark::State &state)
{
    lsqRoundTrip(state, paramsFor(32, 1, 2));
}

void
BM_LsqFlat128_2p(benchmark::State &state)
{
    lsqRoundTrip(state, paramsFor(128, 1, 2));
}

void
BM_LsqSegmented4x28(benchmark::State &state)
{
    lsqRoundTrip(state, paramsFor(28, 4, 2));
}

/**
 * A port-blocked retry: the queues are full of unissued loads, the
 * first loads to issue in a cycle take every search port of the
 * segment the others' walks start at, and every other load then
 * retries in that same cycle and is rejected. On the paper's 1-port
 * design points most load issue attempts look like this. Only the
 * retries are timed; "ns_per_reject" is the mean cost of one.
 */
void
lsqPortBlockedRetry(benchmark::State &state, LsqParams params)
{
    StatSet stats;
    Lsq lsq(params, kWindow, stats);
    Rng rng(11);
    SeqNum seq = 0;
    Cycle now = 0;
    std::vector<SeqNum> loads;
    double retryNs = 0;
    std::uint64_t rejects = 0;

    for (auto _ : state) {
        (void)_;
        // Fill both queues with interleaved loads and stores (one in
        // four a store), exposing every store address.
        loads.clear();
        SeqNum first = seq;
        unsigned fill = params.totalLqEntries();
        for (unsigned i = 0; i < fill; ++i, ++seq) {
            if (i % 4 == 3) {
                lsq.allocateStore(seq, 0x1000 + seq * 4);
                lsq.storeAddrReady(seq, 0x8000 + rng.below(64) * 8,
                                   now++);
            } else {
                lsq.allocateLoad(seq, 0x1000 + seq * 4);
                loads.push_back(seq);
            }
        }
        // The youngest loads issue first and hold the ports.
        now += 16;
        std::size_t holders = params.searchPorts;
        for (std::size_t h = 0; h < holders; ++h)
            lsq.issueLoad(loads[loads.size() - 1 - h],
                          0x9000 + rng.below(64) * 8, now, true);

        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i + holders < loads.size(); ++i) {
            LoadIssueOutcome out =
                lsq.issueLoad(loads[i], 0x9000, now, true);
            benchmark::DoNotOptimize(out.status);
        }
        auto t1 = std::chrono::steady_clock::now();
        double ns = std::chrono::duration<double, std::nano>(t1 - t0)
                        .count();
        state.SetIterationTime(ns * 1e-9);
        retryNs += ns;
        rejects += loads.size() - holders;

        lsq.squashFrom(first);
        now += 16;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(rejects));
    state.counters["ns_per_reject"] =
        rejects ? retryNs / static_cast<double>(rejects) : 0.0;
}

void
BM_LsqPortBlockedRetry(benchmark::State &state)
{
    if (state.range(0) == 0)
        lsqPortBlockedRetry(state, paramsFor(128, 1, 2));
    else
        lsqPortBlockedRetry(state, paramsFor(28, 4, 1));
}

/**
 * One scheduler cycle on a full 64-entry issue queue: k producers
 * write back (wake), select issues up to 8 of the woken entries
 * oldest first, and dispatch refills the queue. Seq s reads int
 * register s % 256, renamed (not ready) when s dispatches, and the k
 * oldest pending registers complete each cycle, so exactly k entries
 * become ready per cycle.
 */
void
BM_IssueQueueWakeupSelect(benchmark::State &state)
{
    constexpr unsigned kIq = 64, kRob = 256, kRegs = 356;
    constexpr PhysReg kAlwaysReady = 300;
    const unsigned k = static_cast<unsigned>(state.range(0));
    IssueQueue iq(kIq, kRob, kRegs, kRegs);
    std::vector<std::uint8_t> ready(kRegs, 1);
    auto isReady = [&](PhysReg p, bool) { return ready[p] != 0; };
    SeqNum tail = 0, woken = 0;
    Cycle now = 0;
    auto refill = [&] {
        while (!iq.full()) {
            IqEntry e;
            e.seq = tail++;
            e.src1 = static_cast<PhysReg>(e.seq % kRob);
            e.src2 = kAlwaysReady;
            e.notBefore = now + 1;
            ready[e.src1] = 0;
            iq.push(e, isReady);
        }
    };
    refill();
    std::uint64_t issued = 0;
    for (auto _ : state) {
        (void)_;
        ++now;
        for (unsigned i = 0; i < k && woken < tail; ++i, ++woken) {
            PhysReg p = static_cast<PhysReg>(woken % kRob);
            ready[p] = 1;
            iq.wake(p, false);
        }
        issued += iq.select(now, 8, [&](IqEntry &e) {
            iq.remove(e.seq);
            return true;
        });
        benchmark::DoNotOptimize(issued);
        refill();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(issued));
}

void
BM_LoadBufferSearch(benchmark::State &state)
{
    LoadBuffer lb(4);
    lb.insert(10, 0x100, 5);
    lb.insert(12, 0x200, 6);
    lb.insert(14, 0x100, 7);
    lb.insert(16, 0x300, 8);
    SeqNum seq = 0;
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(lb.findViolation(seq++ % 20, 0x100, 9));
    }
}

void
BM_StoreSetPredictor(benchmark::State &state)
{
    StoreSetPredictor ssp;
    ssp.trainPair(0x400, 0x800);
    Pc pc = 0x400;
    SeqNum seq = 0;
    for (auto _ : state) {
        (void)_;
        StorePrediction sp = ssp.storeFetch(pc, seq);
        LoadPrediction lp = ssp.loadFetch(pc + 0x400);
        benchmark::DoNotOptimize(lp.mustSearchStoreQueue);
        ssp.storeIssued(sp, seq);
        ssp.storeCommitted(sp);
        ++seq;
        pc += 4;
        if (pc > 0x500)
            pc = 0x400;
    }
}

void
BM_HybridBranchPredictor(benchmark::State &state)
{
    HybridBranchPredictor bp;
    Rng rng(3);
    Pc pc = 0x1000;
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(
            bp.predictAndUpdate(pc, rng.chance(0.7)));
        pc = 0x1000 + (pc + 4) % 4096;
    }
}

void
BM_Crc32(benchmark::State &state)
{
    Rng rng(5);
    std::vector<unsigned char> buf(1 << 20);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.below(256));
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}

/**
 * loadCheckpoint of an mcf checkpoint taken after a 100k-instruction
 * fast-forward, into a freshly constructed core (construction is not
 * timed): reading the file, the CRC, and decoding every section.
 */
void
BM_CheckpointRestore(benchmark::State &state)
{
    SimConfig cfg = configs::base("mcf");
    cfg.ffInsts = 100000;
    cfg.saveCkptPath = (std::filesystem::temp_directory_path() /
                        "micro_restore_mcf.ckpt").string();
    Simulator(cfg).run();
    const BenchmarkProfile &profile = profileFor(cfg.benchmark);
    for (auto _ : state) {
        (void)_;
        state.PauseTiming();
        StatSet stats;
        Core core(cfg.core, cfg.lsq, cfg.memory, profile, cfg.seed,
                  stats);
        state.ResumeTiming();
        benchmark::DoNotOptimize(
            loadCheckpoint(core, cfg, cfg.saveCkptPath).instCount);
    }
    std::remove(cfg.saveCkptPath.c_str());
}

} // namespace

BENCHMARK(BM_LsqFlat32_2p);
BENCHMARK(BM_LsqFlat128_2p);
BENCHMARK(BM_LsqSegmented4x28);
// 0: flat-128-2port, 1: seg-4x28-1port.
BENCHMARK(BM_LsqPortBlockedRetry)->Arg(0)->Arg(1)->UseManualTime();
// k producers completing per cycle.
BENCHMARK(BM_IssueQueueWakeupSelect)->Arg(1)->Arg(4)->Arg(8);
BENCHMARK(BM_LoadBufferSearch);
BENCHMARK(BM_StoreSetPredictor);
BENCHMARK(BM_HybridBranchPredictor);
BENCHMARK(BM_Crc32);
BENCHMARK(BM_CheckpointRestore)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
