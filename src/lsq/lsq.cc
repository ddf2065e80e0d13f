#include "lsq/lsq.hh"

#include <algorithm>
#include <iterator>

#include "check/lsq_checker.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/trace.hh"

/**
 * Notify the attached ordering oracle (if any) of an accepted state
 * transition. Rejected operations never reach a hook: they leave the
 * queue untouched, so there is nothing to shadow.
 */
#define LSQ_CHECK_HOOK(call)                                              \
    do {                                                                  \
        if (checker_ != nullptr)                                          \
            checker_->call;                                               \
    } while (0)

namespace lsqscale {

namespace {

/** First entry of a program-ordered queue with seq >= @p seq. */
template <typename Queue>
auto
lowerBound(Queue &q, SeqNum seq)
{
    return std::lower_bound(
        q.begin(), q.end(), seq,
        [](const auto &e, SeqNum s) { return e.seq < s; });
}

} // namespace

Lsq::Lsq(const LsqParams &params, StatSet &stats)
    : params_(params), stats_(stats),
      lqOccupancy_(
          stats.histogram("lq.occupancy", params.totalLqEntries() + 2)),
      sqOccupancy_(
          stats.histogram("sq.occupancy", params.totalSqEntries() + 2)),
      oooInflight_(stats.histogram("ooo.inflight", 64)),
      sqSearchSegments_(stats.histogram("sq.search.segments",
                                        params.numSegments + 1)),
      lq_(params.totalLqEntries()),
      sq_(params.combinedQueue ? params.totalLqEntries()
                               : params.totalSqEntries()),
      lqAlloc_(params.numSegments, params.lqEntries, params.allocPolicy),
      sqAlloc_(params.numSegments, params.sqEntries, params.allocPolicy),
      lqPorts_(params.numSegments, params.searchPorts),
      sqPorts_(params.numSegments, params.searchPorts),
      lb_(params.loadBufferEntries,
          params.loadCheck != LoadCheckPolicy::LoadBuffer),
      segStamp_(params.numSegments, 0)
{
    sqVisit_.reserve(params.numSegments);
    lqVisit_.reserve(params.numSegments);
    llViolations_.reserve(params.loadBufferEntries + 1);
}

// ---------------------------------------------------- allocation ------

// lsqlint: hot
void
Lsq::allocateLoad(SeqNum seq, Pc pc)
{
    LSQ_ASSERT(canAllocateLoad(), "LQ full");
    LSQ_ASSERT(lq_.empty() || lq_.back().seq < seq,
               "loads must allocate in program order");
    LoadEntry e;
    e.seq = seq;
    e.pc = pc;
    e.segment = loadAlloc().allocate();
    LSQ_DCHECK(e.segment < params_.numSegments,
               "segment index out of range");
    lq_.push_back(e);
    LSQ_CHECK_HOOK(onAllocateLoad(seq, pc));
}

// lsqlint: hot
void
Lsq::allocateStore(SeqNum seq, Pc pc)
{
    LSQ_ASSERT(canAllocateStore(), "SQ full");
    LSQ_ASSERT(sq_.empty() || sq_.back().seq < seq,
               "stores must allocate in program order");
    StoreEntry e;
    e.seq = seq;
    e.pc = pc;
    e.segment = storeAlloc().allocate();
    LSQ_DCHECK(e.segment < params_.numSegments,
               "segment index out of range");
    sq_.push_back(e);
    LSQ_CHECK_HOOK(onAllocateStore(seq, pc));
}

// ---------------------------------------------------- lookups ---------

Lsq::LoadEntry *
Lsq::findLoad(SeqNum seq)
{
    auto it = lowerBound(lq_, seq);
    return it != lq_.end() && it->seq == seq ? &*it : nullptr;
}

Lsq::StoreEntry *
Lsq::findStore(SeqNum seq)
{
    auto it = lowerBound(sq_, seq);
    return it != sq_.end() && it->seq == seq ? &*it : nullptr;
}

unsigned
Lsq::sqWalkStart(SeqNum loadSeq) const
{
    auto older = lowerBound(sq_, loadSeq);
    return older == sq_.begin() ? storeAlloc().tailSegment()
                                : std::prev(older)->segment;
}

unsigned
Lsq::lqWalkStart(SeqNum seq, unsigned fallback) const
{
    auto younger = lowerBound(lq_, seq + 1);
    return younger == lq_.end() ? fallback : younger->segment;
}

bool
Lsq::olderMatchingStore(SeqNum loadSeq, Addr addr) const
{
    for (const auto &s : sq_)
        if (s.seq < loadSeq && s.addrValid && s.addr == addr)
            return true;
    return false;
}

bool
Lsq::storePendingAddress(SeqNum seq) const
{
    auto it = lowerBound(sq_, seq);
    return it != sq_.end() && it->seq == seq && !it->addrValid;
}

bool
Lsq::anyOlderStoreUnaddressed(SeqNum loadSeq) const
{
    for (const auto &s : sq_) {
        if (s.seq >= loadSeq)
            break;
        if (!s.addrValid)
            return true;
    }
    return false;
}

// ---------------------------------------------------- search plans ----

void
Lsq::startPlan(std::vector<unsigned> &visit)
{
    visit.clear();
    ++planStamp_;
}

void
Lsq::noteVisit(std::vector<unsigned> &visit, unsigned seg)
{
    if (segStamp_[seg] != planStamp_) {
        segStamp_[seg] = planStamp_;
        visit.push_back(seg);
    }
}

Lsq::SqSearchPlan
Lsq::planSqSearch(SeqNum loadSeq, Addr addr)
{
    SqSearchPlan plan;
    auto older = lowerBound(sq_, loadSeq);
    // If every older store sits in one segment the load's latency is
    // knowable at issue (head-segment rule).
    plan.endsAtHead =
        std::all_of(sq_.begin(), older, [this](const StoreEntry &s) {
            return s.segment == sq_.front().segment;
        });

    // Walk stores from youngest-older toward the head; the search
    // pipeline advances one segment per cycle, so record the order of
    // distinct segments encountered.
    startPlan(sqVisit_);
    while (older != sq_.begin()) {
        --older;
        noteVisit(sqVisit_, older->segment);
        if (older->addrValid && older->addr == addr) {
            plan.match = &*older;
            break;
        }
    }
    if (sqVisit_.empty())
        sqVisit_.push_back(storeAlloc().tailSegment());
    plan.visit = sqVisit_;
    return plan;
}

template <typename IsViolator>
Lsq::LqSearchPlan
Lsq::planLqWalk(Ring<LoadEntry>::const_iterator from,
                unsigned fallback, IsViolator &&isViolator)
{
    LqSearchPlan plan;
    startPlan(lqVisit_);
    for (auto it = from; it != lq_.cend(); ++it) {
        noteVisit(lqVisit_, it->segment);
        if (isViolator(*it)) {
            plan.violator = &*it;
            break;
        }
    }
    if (lqVisit_.empty())
        lqVisit_.push_back(fallback);
    plan.visit = lqVisit_;
    return plan;
}

Lsq::LqSearchPlan
Lsq::planStoreLqSearch(SeqNum storeSeq, Addr addr)
{
    return planLqWalk(
        lowerBound(lq_, storeSeq + 1), loadAlloc().tailSegment(),
        [storeSeq, addr](const LoadEntry &e) {
            bool stale = e.forwardedFrom == kNoSeq ||
                         e.forwardedFrom < storeSeq;
            return e.executed && e.addr == addr && stale;
        });
}

Lsq::LqSearchPlan
Lsq::planLoadLqSearch(SeqNum loadSeq, Addr addr, Cycle executeCycle,
                      unsigned ownSegment)
{
    return planLqWalk(lowerBound(lq_, loadSeq + 1), ownSegment,
                      [addr, executeCycle](const LoadEntry &e) {
                          return e.executed && e.addr == addr &&
                                 e.executeCycle < executeCycle;
                      });
}

// ---------------------------------------------------- load issue ------

void
Lsq::advanceNilp(Cycle now)
{
    bool useLb = params_.loadCheck == LoadCheckPolicy::LoadBuffer;
    for (; nilp_ < lq_.size() && lq_[nilp_].executed; ++nilp_) {
        const LoadEntry &e = lq_[nilp_];
        if (!e.wasOoo)
            continue;
        LSQ_ASSERT(oooLive_ > 0, "oooLive underflow");
        LSQ_DCHECK(e.executeCycle != kNoCycle,
                   "NILP passed a load with no execute cycle");
        --oooLive_;
        if (useLb) {
            // Release the entry, then run the deferred ordering search
            // (Section 2.2.1: "at this time, the load relevant to the
            // LIV entry has to search the load buffer").
            lb_.release(e.seq);
            LSQ_TRACE_HOOK(tracer_, TraceEvent::LbRelease, now, e.seq,
                           e.addr);
            lbSearches_.inc();
            SeqNum v = lb_.findViolation(e.seq, e.addr, e.executeCycle);
            if (v != kNoSeq)
                llViolations_.push_back(v);
        }
    }
}

// lsqlint: hot
LoadIssueOutcome
Lsq::issueLoad(SeqNum seq, Addr addr, Cycle now, bool wantSqSearch)
{
    LoadIssueOutcome out;
    LoadEntry *e = findLoad(seq);
    LSQ_ASSERT(e != nullptr, "issueLoad: unknown load %llu",
               static_cast<unsigned long long>(seq));
    LSQ_ASSERT(!e->executed, "issueLoad: load issued twice");

    bool isOldest = nilp_ < lq_.size() && lq_[nilp_].seq == seq;

    if (params_.inOrderLoads() && !isOldest) {
        out.status = LoadIssueStatus::InOrderStall;
        return out;
    }

    bool useLb = params_.loadCheck == LoadCheckPolicy::LoadBuffer;
    bool needLbEntry = useLb && !isOldest;
    if (needLbEntry && lb_.full()) {
        lbStallFull_.inc();
        LSQ_TRACE_HOOK(tracer_, TraceEvent::LbFullStall, now, seq,
                       addr);
        out.status = LoadIssueStatus::LoadBufferFull;
        return out;
    }

    // Accept or reject on the first segment of each walk before
    // planning either: on a port-starved design most attempts are
    // retries that end here.
    bool doSq = wantSqSearch;
    bool doLq =
        params_.loadCheck == LoadCheckPolicy::SearchLoadQueue ||
        params_.loadCheck == LoadCheckPolicy::InOrderAlwaysSearch;
    unsigned sqStart = doSq ? sqWalkStart(seq) : 0;
    if (doSq && sqPorts().freePorts(sqStart, now) == 0) {
        out.status = LoadIssueStatus::NoSqPort;
        return out;
    }
    unsigned lqStart = doLq ? lqWalkStart(seq, e->segment) : 0;
    if (doLq && lqPorts().freePorts(lqStart, now) == 0) {
        out.status = LoadIssueStatus::NoLqPort;
        return out;
    }

    // Plan both searches before touching any port so the reservation
    // is atomic.
    SqSearchPlan sqPlan;
    if (doSq) {
        sqPlan = planSqSearch(seq, addr);
        LSQ_DCHECK(sqPlan.visit[0] == sqStart,
                   "SQ walk does not start at its checked segment");
    }
    LqSearchPlan lqPlan;
    if (doLq) {
        lqPlan = planLoadLqSearch(seq, addr, now, e->segment);
        LSQ_DCHECK(lqPlan.visit[0] == lqStart,
                   "LQ walk does not start at its checked segment");
    }
    bool sqOk = !doSq || sqPorts().canReserveWalk(sqPlan.visit, now);
    bool lqOk = !doLq || lqPorts().canReserveWalk(lqPlan.visit, now);

    // Combined queue: both walks book the *same* schedule, so their
    // per-(segment, cycle) demands add up. The port arbiter staggers
    // the ordering walk by up to a few cycles to fit both (a single
    // port cannot serve two walks in one slot).
    Cycle lqOffset = 0;
    if (params_.combinedQueue && doSq && doLq && sqOk && lqOk) {
        PortSchedule &ps = lqPorts();
        bool found = false;
        while (lqOffset <= 4 && !found) {
            bool ok = true;
            for (std::size_t i = 0; ok && i < sqPlan.visit.size();
                 ++i) {
                unsigned demand = 1;
                for (std::size_t j = 0; j < lqPlan.visit.size(); ++j)
                    if (lqPlan.visit[j] == sqPlan.visit[i] &&
                        lqOffset + j == i)
                        ++demand;
                if (ps.freePorts(sqPlan.visit[i], now + i) < demand)
                    ok = false;
            }
            for (std::size_t j = 0; ok && j < lqPlan.visit.size(); ++j)
                if (ps.freePorts(lqPlan.visit[j],
                                 now + lqOffset + j) == 0)
                    ok = false;
            if (ok)
                found = true;
            else
                ++lqOffset;
        }
        if (!found)
            lqOk = false;
    }
    if (!sqOk || !lqOk) {
        // First segment had a port but a downstream slot is booked by
        // an earlier-initiated search: the paper's contention case.
        loadContention_.inc();
        LSQ_TRACE_HOOK(
            tracer_, TraceEvent::SqSearchContention, now, seq, addr,
            static_cast<std::uint8_t>(!sqOk),
            static_cast<std::uint16_t>(
                params_.contentionPolicy ==
                        ContentionPolicy::SquashReplay
                    ? params_.contentionReplayDelay
                    : 1));
        out.status =
            params_.contentionPolicy == ContentionPolicy::SquashReplay
                ? LoadIssueStatus::Contention
                : (!sqOk ? LoadIssueStatus::NoSqPort
                         : LoadIssueStatus::NoLqPort);
        return out;
    }

    llViolations_.clear();
    if (doSq) {
        sqPorts().reserveWalk(sqPlan.visit, now);
        sqSearches_.inc();
        sqSearchSegments_.sample(sqPlan.visit.size());
        out.searchedSq = true;
        out.sqSegmentsVisited =
            static_cast<unsigned>(sqPlan.visit.size());
        if (sqPlan.match) {
            sqSearchesMatched_.inc();
            out.forwarded = true;
            out.forwardedFrom = sqPlan.match->seq;
            out.forwardedFromPc = sqPlan.match->pc;
        }
        LSQ_TRACE_HOOK(tracer_, TraceEvent::SqSearch, now, seq, addr,
                       static_cast<std::uint8_t>(out.forwarded),
                       static_cast<std::uint16_t>(sqPlan.visit.size()));
        if (out.forwarded) {
            LSQ_TRACE_HOOK(tracer_, TraceEvent::ForwardHit, now, seq,
                           out.forwardedFrom);
        }
    }
    if (doLq) {
        lqPorts().reserveWalk(lqPlan.visit, now + lqOffset);
        lqSearchesByLoad_.inc();
        LSQ_TRACE_HOOK(tracer_, TraceEvent::LqSearch, now, seq, addr, 0,
                       static_cast<std::uint16_t>(lqPlan.visit.size()));
        if (lqPlan.violator)
            llViolations_.push_back(lqPlan.violator->seq);
    }

    std::size_t spanSq = doSq ? sqPlan.visit.size() : 0;
    std::size_t spanLq =
        doLq ? static_cast<std::size_t>(lqOffset) + lqPlan.visit.size()
             : 0;
    out.searchDoneCycle = now + std::max<std::size_t>(
                                    1, std::max(spanSq, spanLq));
    out.constantLatency =
        !params_.segmented() || !doSq ||
        (sqPlan.visit.size() == 1 && sqPlan.endsAtHead);

    // Commit the issue.
    e->addr = addr;
    e->executed = true;
    e->executeCycle = now;
    e->forwardedFrom = out.forwarded ? out.forwardedFrom : kNoSeq;

    if (!isOldest) {
        e->wasOoo = true;
        ++oooLive_;
        if (useLb) {
            lb_.insert(seq, addr, now);
            lbInserts_.inc();
            LSQ_TRACE_HOOK(tracer_, TraceEvent::LbInsert, now, seq,
                           addr);
        }
    } else if (useLb) {
        // In-order load: immediate load-buffer ordering search.
        lbSearches_.inc();
        SeqNum v = lb_.findViolation(seq, addr, now);
        if (v != kNoSeq)
            llViolations_.push_back(v);
    }

    advanceNilp(now);
    out.llViolations = llViolations_;
    out.status = LoadIssueStatus::Accepted;

    // NILP/LIV consistency: the load buffer only ever holds live
    // loads that issued out of order and were not yet passed.
    LSQ_DCHECK(!useLb || lb_.size() <= oooLive_,
               "load buffer holds more entries than OOO loads live");
    LSQ_CHECK_HOOK(onLoadIssue(seq, addr, now, out));
    return out;
}

// ---------------------------------------------------- store side ------

// lsqlint: hot
StoreSearchOutcome
Lsq::storeAddrReady(SeqNum seq, Addr addr, Cycle now)
{
    StoreSearchOutcome out;
    StoreEntry *s = findStore(seq);
    LSQ_ASSERT(s != nullptr, "storeAddrReady: unknown store %llu",
               static_cast<unsigned long long>(seq));

    if (params_.checkViolationsAtCommit) {
        // Pair-predictor scheme: no execute-time search; the address
        // simply becomes visible for forwarding.
        s->addr = addr;
        s->addrValid = true;
        out.accepted = true;
        out.searchDoneCycle = now;
        LSQ_CHECK_HOOK(onStoreAddrReady(seq, addr, now, out));
        return out;
    }

    unsigned start = lqWalkStart(seq, loadAlloc().tailSegment());
    if (lqPorts().freePorts(start, now) == 0) {
        out.accepted = false;   // retry next cycle
        return out;
    }
    LqSearchPlan plan = planStoreLqSearch(seq, addr);
    LSQ_DCHECK(plan.visit[0] == start,
               "LQ walk does not start at its checked segment");
    if (!lqPorts().canReserveWalk(plan.visit, now)) {
        // Delaying a store's execute-time search is harmless.
        out.accepted = false;
        out.contention = true;
        return out;
    }
    lqPorts().reserveWalk(plan.visit, now);
    lqSearchesByStore_.inc();
    LSQ_TRACE_HOOK(tracer_, TraceEvent::StoreSearch, now, seq, addr, 0,
                   static_cast<std::uint16_t>(plan.visit.size()));

    s->addr = addr;
    s->addrValid = true;
    out.accepted = true;
    out.segmentsVisited = static_cast<unsigned>(plan.visit.size());
    out.searchDoneCycle = now + plan.visit.size();
    if (plan.violator) {
        LSQ_DCHECK(plan.violator->seq > seq,
                   "store-load violator must be younger than the store");
        out.violationLoad = plan.violator->seq;
        out.violationLoadPc = plan.violator->pc;
    }
    LSQ_CHECK_HOOK(onStoreAddrReady(seq, addr, now, out));
    return out;
}

// lsqlint: hot
StoreSearchOutcome
Lsq::invalidate(Addr addr, Cycle now)
{
    StoreSearchOutcome out;
    if (params_.loadCheck == LoadCheckPolicy::LoadBuffer ||
        params_.loadCheck == LoadCheckPolicy::InOrder) {
        // Load-buffer scheme 2 (Section 2.2): only a load that issued
        // past an older still-non-issued load can have read a value a
        // remote write makes stale relative to what the older load
        // will read — and those loads are exactly the load buffer's
        // residents. The snoop is a lookup of the tiny CAM, free of
        // LQ search ports (that is the point of the scheme; in-order
        // issue keeps the buffer empty, so nothing is ever vulnerable).
        SeqNum victim = lb_.findMatch(addr);
        lbProbes_.inc();
        LSQ_TRACE_HOOK(tracer_, TraceEvent::LbProbe, now,
                       victim, addr,
                       static_cast<std::uint8_t>(victim != kNoSeq));
        out.accepted = true;
        out.searchDoneCycle = now;
        if (victim != kNoSeq) {
            out.violationLoad = victim;
            const LoadEntry *e = findLoad(victim);
            LSQ_DCHECK(e != nullptr,
                       "load-buffer resident missing from the LQ");
            if (e != nullptr)
                out.violationLoadPc = e->pc;
        }
        LSQ_CHECK_HOOK(onInvalidate(addr, now, out));
        return out;
    }

    // Plan: all segments holding executed loads to @p addr; the
    // oldest match is the squash target (it and everything younger
    // refetch, like the R10000's outstanding-load check).
    LqSearchPlan plan = planLqWalk(
        lq_.cbegin(), loadAlloc().tailSegment(),
        [addr](const LoadEntry &e) {
            return e.executed && e.addr == addr;
        });

    if (lqPorts().freePorts(plan.visit[0], now) == 0 ||
        !lqPorts().canReserveWalk(plan.visit, now)) {
        out.accepted = false;   // coherence controller retries
        return out;
    }
    lqPorts().reserveWalk(plan.visit, now);
    lqSearchesByInval_.inc();
    LSQ_TRACE_HOOK(tracer_, TraceEvent::InvalSearch, now,
                   plan.violator ? plan.violator->seq : kNoSeq, addr, 0,
                   static_cast<std::uint16_t>(plan.visit.size()));
    out.accepted = true;
    out.segmentsVisited = static_cast<unsigned>(plan.visit.size());
    out.searchDoneCycle = now + plan.visit.size();
    if (plan.violator) {
        out.violationLoad = plan.violator->seq;
        out.violationLoadPc = plan.violator->pc;
    }
    LSQ_CHECK_HOOK(onInvalidate(addr, now, out));
    return out;
}

// lsqlint: hot
StoreSearchOutcome
Lsq::commitStore(SeqNum seq, Cycle now)
{
    StoreSearchOutcome out;
    LSQ_ASSERT(!sq_.empty() && sq_.front().seq == seq,
               "commitStore: %llu is not the SQ head",
               static_cast<unsigned long long>(seq));

    if (params_.checkViolationsAtCommit) {
        // A busy first segment skips planning: the commit is delayed
        // either way.
        unsigned start = lqWalkStart(seq, loadAlloc().tailSegment());
        LqSearchPlan plan;
        bool ok = lqPorts().freePorts(start, now) != 0;
        if (ok) {
            plan = planStoreLqSearch(seq, sq_.front().addr);
            LSQ_DCHECK(plan.visit[0] == start,
                       "LQ walk does not start at its checked segment");
            ok = lqPorts().canReserveWalk(plan.visit, now);
        }
        if (!ok) {
            // Section 3.2: "easily solved by delaying the commit of
            // the store".
            commitDelays_.inc();
            LSQ_TRACE_HOOK(tracer_, TraceEvent::StoreCommitDelay, now,
                           seq, sq_.front().addr);
            out.accepted = false;
            return out;
        }
        lqPorts().reserveWalk(plan.visit, now);
        lqSearchesByStore_.inc();
        LSQ_TRACE_HOOK(tracer_, TraceEvent::StoreCommitSearch, now, seq,
                       sq_.front().addr, 0,
                       static_cast<std::uint16_t>(plan.visit.size()));
        out.segmentsVisited = static_cast<unsigned>(plan.visit.size());
        out.searchDoneCycle = now + plan.visit.size();
        if (plan.violator) {
            out.violationLoad = plan.violator->seq;
            out.violationLoadPc = plan.violator->pc;
        }
    } else {
        out.searchDoneCycle = now;
    }

    LSQ_DCHECK(sq_.front().addrValid,
               "committing a store that never exposed its address");
    sq_.pop_front();
    storeAlloc().freeOldest();
    out.accepted = true;
    LSQ_CHECK_HOOK(onStoreCommit(seq, now, out));
    return out;
}

// lsqlint: hot
void
Lsq::commitLoad(SeqNum seq)
{
    LSQ_ASSERT(!lq_.empty() && lq_.front().seq == seq,
               "commitLoad: %llu is not the LQ head",
               static_cast<unsigned long long>(seq));
    LSQ_ASSERT(lq_.front().executed, "committing an unexecuted load");
    // An executed head load has been passed by the NILP.
    LSQ_DCHECK(nilp_ > 0, "NILP behind an executed LQ head");
    lq_.pop_front();
    --nilp_;
    loadAlloc().freeOldest();
    LSQ_CHECK_HOOK(onLoadCommit(seq));
}

// ---------------------------------------------------- recovery --------

void
Lsq::squashYoungestLoad()
{
    // A load at or past the NILP has not been passed, so an
    // out-of-order one still counts as in flight.
    if (lq_.back().wasOoo && nilp_ < lq_.size()) {
        LSQ_ASSERT(oooLive_ > 0, "oooLive underflow at squash");
        --oooLive_;
    }
    lq_.pop_back();
    nilp_ = std::min(nilp_, lq_.size());
}

// lsqlint: hot
void
Lsq::squashFrom(SeqNum seq)
{
    if (params_.combinedQueue) {
        // The shared allocator frees youngest-first across *both*
        // instruction types, so interleave by global age.
        while (true) {
            SeqNum lt = lq_.empty() ? kNoSeq : lq_.back().seq;
            SeqNum st = sq_.empty() ? kNoSeq : sq_.back().seq;
            bool loadEligible = lt != kNoSeq && lt >= seq;
            bool storeEligible = st != kNoSeq && st >= seq;
            if (!loadEligible && !storeEligible)
                break;
            if (loadEligible && (!storeEligible || lt > st))
                squashYoungestLoad();
            else
                sq_.pop_back();
            lqAlloc_.freeYoungest();
        }
        lb_.squashFrom(seq);
        LSQ_CHECK_HOOK(onSquash(seq));
        return;
    }

    while (!lq_.empty() && lq_.back().seq >= seq) {
        squashYoungestLoad();
        lqAlloc_.freeYoungest();
    }
    while (!sq_.empty() && sq_.back().seq >= seq) {
        sq_.pop_back();
        sqAlloc_.freeYoungest();
    }
    lb_.squashFrom(seq);
    LSQ_DCHECK(lq_.empty() || lq_.back().seq < seq,
               "squash left a too-young load behind");
    LSQ_DCHECK(sq_.empty() || sq_.back().seq < seq,
               "squash left a too-young store behind");
    LSQ_CHECK_HOOK(onSquash(seq));
}

// ---------------------------------------------------- stats -----------

// lsqlint: hot
void
Lsq::sampleOccupancy(std::uint64_t cycles)
{
    lqOccupancy_.sample(lqLive(), cycles);
    sqOccupancy_.sample(sqLive(), cycles);
    oooInflight_.sample(oooLive_, cycles);
}

// ------------------------------------------------ fault injection -----

bool
Lsq::injectStateCorruption(std::uint64_t seed)
{
    // One flipped address bit per resident addressed store. Bits 3..10
    // stay within a block/page so the corrupt address is plausible —
    // exactly the kind of silent datapath fault the ordering oracle
    // exists to catch. Deterministic in (seed, queue contents).
    Addr mask = Addr{1} << (3 + (Rng::mix(seed) & 7));
    bool corrupted = false;
    for (auto &e : sq_) {
        if (!e.addrValid)
            continue;
        e.addr ^= mask;
        corrupted = true;
    }
    if (corrupted)
        LSQ_WARN("inject: flipped address bit 0x%llx in resident "
                 "store-queue entries",
                 static_cast<unsigned long long>(mask));
    return corrupted;
}

// ---------------------------------------------- checkpointing ---------

void
Lsq::saveState(SerialWriter &w) const
{
    LSQ_ASSERT(lq_.empty() && sq_.empty() && lb_.size() == 0 &&
                   oooLive_ == 0 && nilp_ == 0,
               "checkpointing a non-drained LSQ (lq=%zu sq=%zu)",
               lq_.size(), sq_.size());
    lqAlloc_.saveState(w);
    sqAlloc_.saveState(w);
}

void
Lsq::loadState(SerialReader &r)
{
    LSQ_ASSERT(lq_.empty() && sq_.empty() && lb_.size() == 0 &&
                   oooLive_ == 0 && nilp_ == 0,
               "restoring into a non-drained LSQ");
    lqAlloc_.loadState(r);
    sqAlloc_.loadState(r);
}

} // namespace lsqscale
