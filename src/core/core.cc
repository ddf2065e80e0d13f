#include "core/core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/interval.hh"
#include "inject/inject.hh"
#include "memory/probe_agent.hh"
#include "metrics/hostprof.hh"
#include "obs/trace.hh"
#include "workload/trace_generator.hh"

namespace lsqscale {

namespace {

/**
 * The longest latency the configuration can schedule a writeback at:
 * a load that misses to memory, the longest LSQ search plus the
 * forwarding cycle, or the longest execute latency, plus the
 * late-wakeup and rollback penalties.
 */
Cycle
completionHorizon(const CoreParams &cp, const LsqParams &lp,
                  const MemoryParams &mp, const Lsq &lsq)
{
    Cycle longest = mp.l1d.hitLatency + mp.l2.hitLatency + mp.memLatency;
    longest = std::max<Cycle>(longest, lsq.longestSearch() + 1);
    for (unsigned c = 0; c < kNumOpClasses; ++c)
        longest = std::max<Cycle>(longest,
                                  execLatency(static_cast<OpClass>(c)));
    return longest + lp.lateWakeupPenalty + cp.pairRollbackPenalty;
}

} // namespace

Core::Core(const CoreParams &coreParams, const LsqParams &lsqParams,
           const MemoryParams &memParams,
           const BenchmarkProfile &profile, std::uint64_t seed,
           StatSet &stats)
    : Core(coreParams, lsqParams, memParams,
           std::make_unique<TraceGenerator>(profile, seed), stats)
{
}

Core::Core(const CoreParams &coreParams, const LsqParams &lsqParams,
           const MemoryParams &memParams,
           std::unique_ptr<InstSource> source, StatSet &stats)
    : cp_(coreParams), lsqp_(lsqParams), stats_(stats),
      loadCommitDelay_(stats.histogram("load.commitdelay", 512)),
      loadIssueDelay_(stats.histogram("load.issuedelay", 256)),
      loadDataLat_(stats.histogram("load.datalat", 256)),
      stream_(std::move(source)), mem_(memParams),
      lsq_(lsqParams, coreParams.robEntries, stats),
      bp_(coreParams.branchPredictor),
      ssp_(coreParams.storeSet), rob_(coreParams.robEntries),
      iq_(coreParams.iqEntries, coreParams.robEntries,
          coreParams.intPhysRegs, coreParams.fpPhysRegs),
      intRegs_(kNumIntArchRegs, coreParams.intPhysRegs),
      fpRegs_(kNumFpArchRegs, coreParams.fpPhysRegs),
      fetchQ_(2 * coreParams.fetchWidth),
      completions_(coreParams.robEntries,
                   completionHorizon(coreParams, lsqParams, memParams,
                                     lsq_))
{
}

PhysRegFile &
Core::fileFor(ArchReg flat)
{
    return isFpReg(flat) ? fpRegs_ : intRegs_;
}

unsigned
Core::classIndex(ArchReg flat)
{
    return isFpReg(flat) ? flat - kNumIntArchRegs : flat;
}

// -------------------------------------------------------- driving -----

void
Core::attachTracer(Tracer *tracer)
{
    tracer_ = tracer;
    lsq_.attachTracer(tracer);
}

void
Core::attachSampler(IntervalSampler *sampler)
{
    sampler_ = sampler;
    nextSampleAt_ =
        sampler != nullptr ? sampler->nextSampleAt() : ~Cycle(0);
}

void
Core::enableHostProfile()
{
    profMask_ = (std::uint64_t(1) << HostProfiler::kSampleShift) - 1;
}

// lsqlint: hot
void
Core::tick()
{
    // Host-profile sample tick (src/metrics/hostprof.hh). Disarmed,
    // the mask is all-ones, so only the first tick reaches enabled().
    if ((profTicks_++ & profMask_) == 0 && HostProfiler::enabled())
        [[unlikely]]
        tickStages<true>(); // lsqlint: phase(run)
    else
        tickStages<false>();
}

// lsqlint: hot
template <bool kProfiled>
void
Core::tickStages()
{
    // Lap-style: one clock read per stage boundary. The LSQ
    // search+forward share is lapped inside the issue helpers
    // (profLap_) and subtracted from the issue/wakeup window.
    [[maybe_unused]] std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    if constexpr (kProfiled)
        t0 = hostNowNs();                          // lsqlint: phase(run)
    invalidationStage();
    commitStage();
    if constexpr (kProfiled) {
        t1 = hostNowNs();                          // lsqlint: phase(run)
        profLap_ = true;
        profLsqNs_ = 0;
    }
    writebackStage();
    issueStage();
    if constexpr (kProfiled) {
        profLap_ = false;
        t2 = hostNowNs();                          // lsqlint: phase(run)
    }
    dispatchStage();
    fetchStage();
    if constexpr (kProfiled)
        t3 = hostNowNs();                          // lsqlint: phase(run)
    lsq_.sampleOccupancy();
    ++now_;
    if constexpr (kProfiled) {
        std::uint64_t t4 = hostNowNs();            // lsqlint: phase(run)
        HostProfiler &hp = HostProfiler::instance(); // lsqlint: phase(run)
        hp.add(HostPhase::Commit, t1 - t0);        // lsqlint: phase(run)
        std::uint64_t issueNs = t2 - t1;
        std::uint64_t lsqNs =
            profLsqNs_ < issueNs ? profLsqNs_ : issueNs;
        hp.add(HostPhase::IssueWakeup, issueNs - lsqNs); // lsqlint: phase(run)
        hp.add(HostPhase::LsqSearch, lsqNs);       // lsqlint: phase(run)
        hp.add(HostPhase::FetchRename, t3 - t2);   // lsqlint: phase(run)
        hp.add(HostPhase::RunOther, t4 - t3);      // lsqlint: phase(run)
        hp.noteSampledCycle();                     // lsqlint: phase(run)
    }
}

Core::Progress
Core::progress() const
{
    return Progress{committed_,
                    nextRobId_,
                    completions_.scheduled(),
                    completions_.size(),
                    fetchQ_.size(),
                    loadPortStalls_.value() + storePortStalls_.value() +
                        loadDcachePortStalls_.value() +
                        loadContentionReplays_.value()};
}

std::array<LazyCounter *, Core::kNumWaits>
Core::waitCounters()
{
    return {&loadStoreSetWaits_, &storeStoreSetWaits_,
            &loadTotalOrderWaits_, &lsq_.lbStallCounter()};
}

Core::TickMark
Core::markTick()
{
    TickMark m{progress(), {}};
    std::array<LazyCounter *, kNumWaits> waits = waitCounters();
    for (std::size_t i = 0; i < kNumWaits; ++i)
        m.waits[i] = waits[i]->value();
    return m;
}

// lsqlint: hot
void
Core::step(Cycle limit)
{
    const TickMark mark = markTick();
    tick();
    if (progress() == mark.progress)
        skipQuietCycles(mark, limit);
}

void
Core::skipQuietCycles(const TickMark &mark, Cycle limit)
{
    // A probe or a pending fault acts at a cycle of its own that no
    // event below announces, so neither run skips.
    if (coherence_ != nullptr || (inject::active() && inject::faultPending()))
        return;
    // A completed head left behind waits on a D-cache or search port.
    if (!rob_.empty() && rob_.head().state == RobState::Completed)
        return;
    std::array<LazyCounter *, kNumWaits> waits = waitCounters();
    std::uint64_t perCycle[kNumWaits];
    bool waited = false;
    for (std::size_t i = 0; i < kNumWaits; ++i) {
        perCycle[i] = waits[i]->value() - mark.waits[i];
        waited |= perCycle[i] != 0;
    }
    // PredWaitCycle and LbFullStall are traced once per waiting cycle.
    if (waited && tracer_ != nullptr)
        return;

    // The tick at cycle now_ - 1 repeats itself until one of these
    // cycles: a writeback, a fetch redirect or I-cache fill, the
    // fetch-queue head reaching rename, an IQ entry's notBefore, the
    // next interval sample.
    Cycle next = std::min(limit, nextSampleAt_);
    auto consider = [&](Cycle c) {
        if (c >= now_ && c < next)
            next = c;
    };
    consider(completions_.next(now_));
    consider(fetchResumeCycle_);
    if (!fetchQ_.empty())
        consider(fetchQ_.front().fetchCycle + cp_.decodeDepth);
    consider(iq_.nextNotBefore(now_));
    if (next <= now_)
        return;

    // Add the skipped cycles to every per-cycle accumulator at once.
    const Cycle k = next - now_;
    if (!rob_.empty())
        commitBlockCounter(rob_.head()).inc(k);
    if (!fetchQ_.empty() &&
        fetchQ_.front().fetchCycle + cp_.decodeDepth < now_ &&
        !rob_.full() && !iq_.full()) {
        if (LazyCounter *stall = dispatchStall(fetchQ_.front().op))
            stall->inc(k);
    }
    for (std::size_t i = 0; i < kNumWaits; ++i) {
        if (perCycle[i] != 0)
            waits[i]->inc(perCycle[i] * k);
    }
    lsq_.sampleOccupancy(k);
    now_ = next;
}

// lsqlint: hot
void
Core::run(std::uint64_t numInsts)
{
    constexpr Cycle kWatchdog = 100000;
    std::uint64_t lastCommitted = 0;
    Cycle lastProgress = 0;
    while (committed_ < numInsts) {
        // A skip stops where the watchdog would fire, so it fires at
        // the same cycle as under tick().
        step(lastProgress + kWatchdog + 1);
        // Interval stats piggyback on the per-step progress check;
        // step() never skips past the next-due cycle. It is cached
        // (UINT64_MAX when detached) so both the detached and the
        // not-yet-due case cost one predictable compare.
        if (now_ >= nextSampleAt_) [[unlikely]] {
            sampler_->poll();
            nextSampleAt_ = sampler_->nextSampleAt();
        }
        // Fault-injection trigger + process-isolation heartbeat share
        // one hook (src/inject): a relaxed load per cycle when idle.
        if (inject::active()) [[unlikely]]
            applyInjection();
        if (committed_ != lastCommitted) {
            lastCommitted = committed_;
            lastProgress = now_;
        } else if (now_ - lastProgress > kWatchdog) {
            LSQ_PANIC("no forward progress for 100k cycles at cycle "
                      "%llu (committed %llu)\n%s",
                      static_cast<unsigned long long>(now_),
                      static_cast<unsigned long long>(committed_),
                      debugDump().c_str());
        }
    }
}

void
Core::applyInjection()
{
    switch (inject::poll(now_)) {
      case inject::Action::None:
        break;
      case inject::Action::CorruptLsq:
        // Retried every cycle until a victim exists (e.g. the SQ was
        // empty at the trigger cycle), so the fault always lands.
        if (lsq_.injectStateCorruption(inject::faultSeed()))
            inject::markApplied();
        break;
      case inject::Action::CorruptPredictor:
        ssp_.injectStateCorruption(inject::faultSeed());
        inject::markApplied();
        break;
    }
}

std::string
Core::debugDump() const
{
    std::string out;
    out += strfmt("rob=%zu iq=%zu fetchQ=%zu lq=%u sq=%u "
                  "fetchResume=%llu pendingBr=%lld\n",
                  rob_.size(), iq_.size(), fetchQ_.size(),
                  lsq_.lqLive(), lsq_.sqLive(),
                  static_cast<unsigned long long>(fetchResumeCycle_),
                  pendingBranch_ == kNoSeq
                      ? -1LL
                      : static_cast<long long>(pendingBranch_));
    if (!rob_.empty()) {
        const RobEntry &h = rob_.head();
        out += strfmt("head: seq=%llu op=%s state=%d\n",
                      static_cast<unsigned long long>(h.op.seq),
                      opName(h.op.op), static_cast<int>(h.state));
        unsigned shown = 0;
        for (const auto &e : rob_) {
            if (e.state == RobState::Dispatched && shown < 5) {
                out += strfmt(
                    "  dispatched: seq=%llu op=%s pred.wait=%lld "
                    "pred.ssid=%d\n",
                    static_cast<unsigned long long>(e.op.seq),
                    opName(e.op.op),
                    e.loadPred.waitForStore == kNoSeq
                        ? -1LL
                        : static_cast<long long>(
                              e.loadPred.waitForStore),
                    e.loadPred.ssid == kNoSsid
                        ? -1
                        : static_cast<int>(e.loadPred.ssid));
                ++shown;
            }
        }
    }
    out += strfmt("completions pending=%zu\n", completions_.size());
    return out;
}

// -------------------------------------------- invalidations (ext) -----

void
Core::invalidationStage()
{
    // External invalidations come only from an attached coherence
    // agent: its probes are deterministic and logged, so the litmus
    // engine and the checker can reason about them.
    if (coherence_ != nullptr) [[unlikely]]
        coherenceStage();
}

void
Core::coherenceStage()
{
    Addr addr = 0;
    if (!coherence_->due(now_, addr))
        return;
    StoreSearchOutcome out = lsq_.invalidate(addr, now_);
    if (!out.accepted) {
        coherence_->rejected();   // no LQ port: retry next cycle
        return;
    }
    bool squashed = out.violationLoad != kNoSeq;
    coherence_->delivered(addr, now_, out.violationLoad);
    probeDelivered_.inc();
    LSQ_TRACE_HOOK(tracer_, TraceEvent::ProbeDeliver, now_,
                   out.violationLoad, addr,
                   static_cast<std::uint8_t>(squashed));
    if (squashed) {
        squashInvalidation_.inc();
        performSquash(out.violationLoad, SquashReason::Invalidation);
    }
}

// -------------------------------------------------------- commit ------

void
Core::finishCommit(RobEntry &head)
{
    if (head.op.hasDest() && head.prevPhys != kNoReg)
        fileFor(head.op.dest).releaseAtCommit(head.prevPhys);
    ++committed_;
    committedCount_.inc();
    if (head.op.isLoad())
        committedLoads_.inc();
    else if (head.op.isStore())
        committedStores_.inc();
    else if (head.op.isBranch())
        committedBranches_.inc();
    if (head.op.isLoad())
        loadCommitDelay_.sample(now_ - head.completeCycle);
    LSQ_TRACE_HOOK(tracer_, TraceEvent::Retire, now_, head.op.seq,
                   head.op.pc,
                   static_cast<std::uint8_t>(head.op.isStore()));
    SeqNum seq = head.op.seq;
    rob_.popHead();
    stream_.retireUpTo(seq);
}

Counter &
Core::commitBlockCounter(const RobEntry &head)
{
    // Cached per-(class, state) counters: a stalled head bumps one
    // every cycle, so avoid rebuilding the stat name.
    static_assert(kNumOpClasses <= 8, "widen the cache");
    unsigned idx = static_cast<unsigned>(head.op.op) * 2 +
                   (head.state == RobState::Dispatched ? 0 : 1);
    if (!commitBlockCounters_[idx]) {
        commitBlockCounters_[idx] = &stats_.counter(
            // First-touch only: each cached counter name is built at
            // most once per run.
            std::string("commit.block.") + opName(head.op.op) +
            (head.state == RobState::Dispatched ? ".disp" : ".exec"));
    }
    return *commitBlockCounters_[idx];
}

void
Core::commitStage()
{
    unsigned n = 0;
    while (n < cp_.commitWidth && !rob_.empty()) {
        RobEntry &head = rob_.head();
        if (head.state != RobState::Completed) {
            commitBlockCounter(head).inc();
            break;
        }

        if (head.op.isStore()) {
            // The cache write needs a D-cache port this cycle.
            if (mem_.l1d().freePorts(now_) == 0)
                break;
            StoreSearchOutcome out = lsq_.commitStore(head.op.seq, now_);
            if (!out.accepted)
                break;  // commit delayed (port contention)
            bool ok = mem_.l1d().tryPort(now_);
            LSQ_ASSERT(ok, "D-cache port vanished");
            mem_.accessData(now_, head.op.addr, true);
            ssp_.storeCommitted(head.storePred);
            if (coherence_ != nullptr) [[unlikely]] {
                coherence_->observeStoreCommit(head.op.seq, head.op.pc,
                                               head.op.addr, now_);
            }

            if (out.violationLoad != kNoSeq) {
                // Pair-scheme violation detected at commit: the store
                // itself retires, then the premature load refetches.
                squashStoreLoadCommit_.inc();
                ssp_.trainPair(head.op.pc, out.violationLoadPc);
                SeqNum victim = out.violationLoad;
                LSQ_DCHECK(victim > head.op.seq,
                           "commit-time violator %llu is not younger "
                           "than the committing store %llu",
                           static_cast<unsigned long long>(victim),
                           static_cast<unsigned long long>(head.op.seq));
                finishCommit(head);
                ++n;
                performSquash(victim, SquashReason::StoreLoadCommit);
                break;
            }
        } else if (head.op.isLoad()) {
            if (coherence_ != nullptr) [[unlikely]] {
                // Capture the entry before commit releases it.
                Lsq::CommittedLoadInfo info = lsq_.headLoadInfo();
                coherence_->observeLoadCommit(head.op.seq, head.op.pc,
                                              info.addr,
                                              info.executeCycle,
                                              info.forwardedFrom, now_);
            }
            lsq_.commitLoad(head.op.seq);
        }

        finishCommit(head);
        ++n;
    }
}

// -------------------------------------------------------- writeback ---

void
Core::writebackStage()
{
    // A squash cancels its instructions' events, so every event
    // belongs to the live, issued dispatch that scheduled it.
    completions_.retire(now_, [this](SeqNum seq, std::uint64_t robId) {
        RobEntry *re = rob_.find(seq);
        LSQ_DCHECK(re != nullptr && re->id == robId &&
                       re->state == RobState::Issued,
                   "stale writeback event for seq %llu",
                   static_cast<unsigned long long>(seq));
        re->state = RobState::Completed;
        re->completeCycle = now_;
        if (re->destPhys != kNoReg) {
            fileFor(re->op.dest).setReady(re->destPhys);
            iq_.wake(re->destPhys, isFpReg(re->op.dest));
        }
        LSQ_TRACE_HOOK(tracer_, TraceEvent::Complete, now_, re->op.seq,
                       re->op.pc);
    });
}

void
Core::scheduleCompletion(const RobEntry &re, Cycle when)
{
    completions_.schedule(re.op.seq, re.id, std::max(when, now_ + 1),
                          now_);
}

// -------------------------------------------------------- issue -------

bool
Core::wantSqSearch(const RobEntry &re, Addr addr) const
{
    switch (lsqp_.sqPolicy) {
      case SqSearchPolicy::Always:
        return true;
      case SqSearchPolicy::Perfect:
        return lsq_.olderMatchingStore(re.op.seq, addr);
      case SqSearchPolicy::Pair:
        return re.loadPred.hasSet() &&
               ssp_.counterNonZero(re.loadPred.ssid);
    }
    return true;
}

bool
Core::tryIssueLoad(RobEntry &re, IqEntry &qe)
{
    const MicroOp &op = re.op;

    // Memory-dependence discipline.
    switch (cp_.memDepPolicy) {
      case MemDepPolicy::StoreSet:
        // A predicted-dependent load holds until the specific store it
        // was paired with at fetch has issued and exposed its address
        // (store-store serialization makes waiting on the set's last
        // fetched store cover the whole set).
        if (re.loadPred.hasSet() &&
            re.loadPred.waitForStore != kNoSeq &&
            rob_.find(re.loadPred.waitForStore) != nullptr &&
            lsq_.storePendingAddress(re.loadPred.waitForStore)) {
            loadStoreSetWaits_.inc();
            // One event per cycle spent waiting = cycles stalled.
            LSQ_TRACE_HOOK(tracer_, TraceEvent::PredWaitCycle, now_,
                           op.seq, re.loadPred.waitForStore);
            return false;
        }
        break;
      case MemDepPolicy::TotalOrder:
        if (lsq_.anyOlderStoreUnaddressed(op.seq)) {
            loadTotalOrderWaits_.inc();
            return false;
        }
        break;
      case MemDepPolicy::BlindSpeculation:
        break;
    }

    bool want = wantSqSearch(re, op.addr);

    // The cache access proceeds in parallel with the SQ search, so a
    // D-cache port must be free up front.
    if (mem_.l1d().freePorts(now_) == 0) {
        loadDcachePortStalls_.inc();
        return false;
    }

    std::uint64_t lapT0 = 0;
    if (profLap_) [[unlikely]]
        lapT0 = hostNowNs();                   // lsqlint: phase(lsq_search)
    LoadIssueOutcome out = lsq_.issueLoad(op.seq, op.addr, now_, want);
    if (profLap_) [[unlikely]]
        profLsqNs_ += hostNowNs() - lapT0;     // lsqlint: phase(lsq_search)
    switch (out.status) {
      case LoadIssueStatus::Accepted:
        break;
      case LoadIssueStatus::Contention:
        // Paper: squash to the memory stage and replay.
        qe.notBefore = now_ + lsqp_.contentionReplayDelay;
        loadContentionReplays_.inc();
        return false;
      case LoadIssueStatus::NoSqPort:
      case LoadIssueStatus::NoLqPort:
        loadPortStalls_.inc();
        return false;
      case LoadIssueStatus::LoadBufferFull:
        return false;
      case LoadIssueStatus::InOrderStall:
        return false;
    }

    re.searchedSq = out.searchedSq;
    re.forwarded = out.forwarded;

    if (lsqp_.sqPolicy == SqSearchPolicy::Pair && want) {
        pairPredDependent_.inc();
        if (!out.forwarded) {
            pairPredNoMatch_.inc();
            LSQ_TRACE_HOOK(tracer_, TraceEvent::PredFalseDep, now_,
                           op.seq, op.addr);
        }
    } else if (lsqp_.sqPolicy == SqSearchPolicy::Pair) {
        // Predicted independent: the SQ forwarding search was skipped.
        LSQ_TRACE_HOOK(tracer_, TraceEvent::SqSearchSkip, now_, op.seq,
                       op.addr);
    }

    Cycle ready;
    if (out.forwarded) {
        ready = now_ + out.sqSegmentsVisited + 1;
        loadsForwarded_.inc();
        // The pair predictor tracks *all* matching pairs (Figure 2),
        // so matches train it even without a violation.
        if (lsqp_.sqPolicy == SqSearchPolicy::Pair)
            ssp_.trainPair(out.forwardedFromPc, op.pc);
    } else {
        bool ok = mem_.l1d().tryPort(now_);
        LSQ_ASSERT(ok, "D-cache port vanished under load");
        MemAccessResult res = mem_.accessData(now_, op.addr, false);
        ready = std::max(res.readyCycle, out.searchDoneCycle);
        // Loads that avoid CAM searches skip disambiguation stages:
        // Section 2.1's predicted-independent loads go straight to the
        // cache, and Section 2.2's load-buffer loads compare against a
        // tiny buffer instead of the whole load queue.
        Cycle saved = 0;
        if (!out.searchedSq)
            saved += 1;
        if (lsqp_.loadCheck == LoadCheckPolicy::LoadBuffer ||
            lsqp_.loadCheck == LoadCheckPolicy::InOrder)
            saved += 1;
        ready = std::max(now_ + 1, ready - saved);
    }
    if (!out.constantLatency)
        ready += lsqp_.lateWakeupPenalty;

    re.state = RobState::Issued;
    scheduleCompletion(re, ready);
    iq_.remove(op.seq);
    LSQ_TRACE_HOOK(tracer_, TraceEvent::Issue, now_, op.seq, op.pc);
    loadsIssued_.inc();
    loadIssueDelay_.sample(now_ - re.dispatchCycle);
    loadDataLat_.sample(ready - now_);

    if (!out.llViolations.empty()) {
        SeqNum victim =
            *std::min_element(out.llViolations.begin(),
                              out.llViolations.end());
        squashLoadLoad_.inc();
        performSquash(victim, SquashReason::LoadLoad);
    }
    return true;
}

bool
Core::tryIssueStore(RobEntry &re, IqEntry &qe)
{
    (void)qe;
    const MicroOp &op = re.op;

    // Store-set store serialization: stores of one set issue in order,
    // so a load waiting on the set's last fetched store is safe.
    if (cp_.memDepPolicy == MemDepPolicy::StoreSet &&
        re.storePred.hasSet() &&
        re.storePred.waitForStore != kNoSeq &&
        rob_.find(re.storePred.waitForStore) != nullptr &&
        lsq_.storePendingAddress(re.storePred.waitForStore)) {
        storeStoreSetWaits_.inc();
        return false;
    }

    std::uint64_t lapT0 = 0;
    if (profLap_) [[unlikely]]
        lapT0 = hostNowNs();                   // lsqlint: phase(lsq_search)
    StoreSearchOutcome out = lsq_.storeAddrReady(op.seq, op.addr, now_);
    if (profLap_) [[unlikely]]
        profLsqNs_ += hostNowNs() - lapT0;     // lsqlint: phase(lsq_search)
    if (!out.accepted) {
        storePortStalls_.inc();
        return false;
    }

    ssp_.storeIssued(re.storePred, op.seq);
    re.state = RobState::Issued;
    scheduleCompletion(re, now_ + execLatency(OpClass::Store));
    iq_.remove(op.seq);
    LSQ_TRACE_HOOK(tracer_, TraceEvent::Issue, now_, op.seq, op.pc);
    storesIssued_.inc();

    if (out.violationLoad != kNoSeq) {
        // Conventional execute-time detection.
        squashStoreLoadExec_.inc();
        ssp_.trainPair(op.pc, out.violationLoadPc);
        performSquash(out.violationLoad, SquashReason::StoreLoadExec);
    }
    return true;
}

bool
Core::tryIssueAlu(RobEntry &re, IqEntry &qe, unsigned &intUsed,
                  unsigned &fpUsed)
{
    (void)qe;
    const MicroOp &op = re.op;
    bool fp = isFpOp(op.op);
    if (fp) {
        if (fpUsed >= cp_.fpUnits)
            return false;
        ++fpUsed;
    } else {
        if (intUsed >= cp_.intUnits)
            return false;
        ++intUsed;
    }

    re.state = RobState::Issued;
    Cycle done = now_ + execLatency(op.op);
    scheduleCompletion(re, done);
    iq_.remove(op.seq);
    LSQ_TRACE_HOOK(tracer_, TraceEvent::Issue, now_, op.seq, op.pc);

    if (op.isBranch() && re.mispredicted) {
        // Resolution: redirect fetch after the pipeline-refill delay.
        fetchResumeCycle_ =
            std::max(fetchResumeCycle_, done + cp_.mispredictRedirect);
        if (pendingBranch_ == op.seq)
            pendingBranch_ = kNoSeq;
    }
    return true;
}

bool
Core::regReady(PhysReg p, bool fp) const
{
    return (fp ? fpRegs_ : intRegs_).isReady(p);
}

void
Core::issueStage()
{
    if constexpr (kDchecksEnabled) {
        iq_.checkWakeups(
            [this](PhysReg p, bool fp) { return regReady(p, fp); });
    }

    // Entries the issue helpers remove (issued or squashed) drop out
    // of the walk; readiness cannot change within the stage.
    unsigned intUsed = 0, fpUsed = 0;
    unsigned issued = iq_.select(now_, cp_.issueWidth, [&](IqEntry &qe) {
        RobEntry *re = rob_.find(qe.seq);
        LSQ_ASSERT(re != nullptr, "IQ entry without ROB entry");
        LSQ_DCHECK(re->state == RobState::Dispatched,
                   "IQ entry %llu already issued",
                   static_cast<unsigned long long>(qe.seq));
        if (re->op.isLoad())
            return tryIssueLoad(*re, qe);
        if (re->op.isStore())
            return tryIssueStore(*re, qe);
        return tryIssueAlu(*re, qe, intUsed, fpUsed);
    });
    issuedCount_.inc(issued);
}

// -------------------------------------------------------- dispatch ----

LazyCounter *
Core::dispatchStall(const MicroOp &op)
{
    if (op.isLoad() && !lsq_.canAllocateLoad())
        return &dispatchLqFull_;
    if (op.isStore() && !lsq_.canAllocateStore())
        return &dispatchSqFull_;
    if (op.hasDest() && !fileFor(op.dest).hasFreeReg())
        return &dispatchNoRegs_;
    return nullptr;
}

void
Core::dispatchStage()
{
    unsigned n = 0;
    while (n < cp_.dispatchWidth && !fetchQ_.empty()) {
        FetchedInst &f = fetchQ_.front();
        if (f.fetchCycle + cp_.decodeDepth > now_)
            break;
        const MicroOp &op = f.op;
        if (rob_.full() || iq_.full())
            break;
        if (LazyCounter *stall = dispatchStall(op)) {
            stall->inc();
            break;
        }

        RobEntry &re = rob_.push(op, now_);
        re.id = nextRobId_++;
        re.mispredicted = f.mispredicted;
        LSQ_TRACE_HOOK(tracer_, TraceEvent::Dispatch, now_, op.seq,
                       op.pc);

        IqEntry qe;
        qe.seq = op.seq;
        qe.op = op.op;
        qe.notBefore = now_ + 1;
        if (op.src1 != kNoArchReg) {
            qe.src1 = fileFor(op.src1).lookup(classIndex(op.src1));
            qe.src1Fp = isFpReg(op.src1);
        }
        if (op.src2 != kNoArchReg && !op.isStore()) {
            // Stores issue (AGEN + queue-address exposure) as soon as
            // the address register is ready; the data register (src2)
            // is produced by an older instruction, so it is always
            // available by commit time.
            qe.src2 = fileFor(op.src2).lookup(classIndex(op.src2));
            qe.src2Fp = isFpReg(op.src2);
        }
        if (op.hasDest()) {
            PhysRegFile &file = fileFor(op.dest);
            re.prevPhys = file.rename(classIndex(op.dest));
            re.destPhys = file.lookup(classIndex(op.dest));
        }

        if (op.isLoad()) {
            re.loadPred = ssp_.loadFetch(op.pc);
            lsq_.allocateLoad(op.seq, op.pc);
        } else if (op.isStore()) {
            re.storePred = ssp_.storeFetch(op.pc, op.seq);
            lsq_.allocateStore(op.seq, op.pc);
        }

        iq_.push(qe, [this](PhysReg p, bool fp) { return regReady(p, fp); });
        fetchQ_.pop_front();
        ++n;
    }
}

// -------------------------------------------------------- fetch -------

void
Core::fetchStage()
{
    if (now_ < fetchResumeCycle_ || pendingBranch_ != kNoSeq)
        return;
    if (fetchQ_.size() >= 2 * cp_.fetchWidth)
        return;

    unsigned fetched = 0;
    while (fetched < cp_.fetchWidth &&
           fetchQ_.size() < 2 * cp_.fetchWidth) {
        // Peek-free design: fetch commits us to the instruction, so
        // the I-cache access is modeled on block transitions after the
        // fact; a miss delays this instruction's entry into decode.
        const MicroOp &op = stream_.fetch();
        Cycle available = now_;

        Addr block = mem_.l1i().blockOf(op.pc);
        if (block != lastFetchBlock_) {
            lastFetchBlock_ = block;
            if (!mem_.l1i().tryPort(now_)) {
                // No I-cache port left: deliver next cycle.
                available = now_ + 1;
            }
            MemAccessResult res = mem_.accessInst(now_, op.pc);
            if (!res.l1Hit) {
                available = res.readyCycle;
                fetchResumeCycle_ = res.readyCycle;
            }
        }

        FetchedInst f;
        f.op = op;
        f.fetchCycle = available;
        LSQ_TRACE_HOOK(tracer_, TraceEvent::Fetch, now_, op.seq, op.pc,
                       static_cast<std::uint8_t>(op.op));

        if (op.isBranch()) {
            bool replayed = bpEverTrained_ && op.seq <= bpTrainedUpTo_;
            bool correct;
            if (replayed) {
                // Refetched after a memory-order squash: the predictor
                // has already been trained on this branch instance;
                // model the re-prediction as correct and do not train
                // twice.
                correct = true;
            } else {
                bool pred = bp_.predictAndUpdate(op.pc, op.taken);
                correct = pred == op.taken;
                bpTrainedUpTo_ = op.seq;
                bpEverTrained_ = true;
            }
            if (!correct) {
                f.mispredicted = true;
                pendingBranch_ = op.seq;
                fetchQ_.push_back(f);
                ++fetched;
                fetchMispredicts_.inc();
                break;   // fetch stalls until resolution
            }
        }

        fetchQ_.push_back(f);
        ++fetched;
        if (available > now_)
            break;   // I-cache miss or port-out: stop this cycle
    }
    fetchedCount_.inc(fetched);
}

// -------------------------------------------------------- squash ------

void
Core::performSquash(SeqNum from, SquashReason reason)
{
    squashTotal_.inc();
    LSQ_TRACE_HOOK(tracer_, TraceEvent::ViolationSquash, now_, from, 0,
                   static_cast<std::uint8_t>(reason));

    // Walk the ROB from the tail, undoing renames newest-first and
    // rolling back the predictor's in-flight-store counters.
    std::uint64_t squashed = 0;
    while (!rob_.empty() && rob_.back().op.seq >= from) {
        RobEntry &e = rob_.back();
        if (e.op.hasDest())
            fileFor(e.op.dest).restoreMapping(classIndex(e.op.dest),
                                              e.destPhys, e.prevPhys);
        if (e.op.isStore())
            ssp_.storeSquashed(e.storePred, e.op.seq);
        if (e.state == RobState::Issued)
            completions_.cancel(e.op.seq);
        rob_.popBack();
        ++squashed;
    }
    squashInsts_.inc(squashed + fetchQ_.size());

    iq_.squashFrom(from);
    lsq_.squashFrom(from);
    fetchQ_.clear();
    stream_.squashTo(from);
    // Every live LSQ entry belongs to a live ROB entry, so the rewound
    // queues can never outnumber the rewound ROB.
    LSQ_DCHECK(lsq_.lqLive() + lsq_.sqLive() <= rob_.size(),
               "LSQ holds more ops than the ROB after a squash");

    if (pendingBranch_ != kNoSeq && pendingBranch_ >= from)
        pendingBranch_ = kNoSeq;

    Cycle delay = cp_.squashRedirect;
    // Section 2.1.2: recovery also rolls the LFST counters back; the
    // paper charges one extra cycle for this in the pair scheme.
    if (lsqp_.sqPolicy == SqSearchPolicy::Pair ||
        lsqp_.checkViolationsAtCommit)
        delay += cp_.pairRollbackPenalty;
    fetchResumeCycle_ = std::max(fetchResumeCycle_, now_ + delay);
    lastFetchBlock_ = ~0ULL;

    (void)reason;
}

// ---------------------------------------------- checkpointing ---------

bool
Core::quiescent() const
{
    return rob_.empty() && iq_.size() == 0 && fetchQ_.empty() &&
           completions_.empty() && lsq_.lqLive() == 0 &&
           lsq_.sqLive() == 0 && pendingBranch_ == kNoSeq &&
           stream_.windowSize() == 0;
}

void
Core::fastForward(std::uint64_t numInsts)
{
    LSQ_ASSERT(quiescent(),
               "fast-forward requires a quiesced pipeline\n%s",
               debugDump().c_str());
    for (std::uint64_t i = 0; i < numInsts; ++i) {
        const MicroOp op = stream_.fetchAndRetire();

        // Warm the I-cache on fetch-block transitions, mirroring the
        // detailed fetch stage's access pattern.
        Addr block = mem_.l1i().blockOf(op.pc);
        if (block != lastFetchBlock_) {
            lastFetchBlock_ = block;
            mem_.accessInst(now_, op.pc);
        }

        // Every op is new (quiescent() holds no replay window), so
        // every branch trains; detailed fetch reads bpTrainedUpTo_.
        if (op.isBranch()) {
            bp_.predictAndUpdate(op.pc, op.taken);
            bpTrainedUpTo_ = op.seq;
            bpEverTrained_ = true;
        } else if (op.isLoad()) {
            mem_.accessData(now_, op.addr, false);
        } else if (op.isStore()) {
            mem_.accessData(now_, op.addr, true);
        }

        ++committed_;
        // Nominal IPC-4 clock advance, so the measured window starts
        // at a plausible cycle count.
        if ((i & 3u) == 3u)
            ++now_;
    }
}

void
Core::saveState(SerialWriter &w) const
{
    LSQ_ASSERT(quiescent(), "checkpointing a non-quiesced core\n%s",
               debugDump().c_str());
    w.u64(now_);
    w.u64(committed_);
    w.u64(nextRobId_);
    w.u64(fetchResumeCycle_);
    w.u64(bpTrainedUpTo_);
    w.b(bpEverTrained_);
    w.u64(lastFetchBlock_);
}

void
Core::loadState(SerialReader &r)
{
    LSQ_ASSERT(quiescent(), "restoring into a non-quiesced core");
    now_ = r.u64();
    committed_ = r.u64();
    nextRobId_ = r.u64();
    fetchResumeCycle_ = r.u64();
    bpTrainedUpTo_ = r.u64();
    bpEverTrained_ = r.b();
    lastFetchBlock_ = r.u64();
}

} // namespace lsqscale
