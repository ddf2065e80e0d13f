#include "lsq/lsq.hh"

#include <algorithm>
#include <bit>

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

Lsq::Lsq(const LsqParams &params, unsigned window, StatSet &stats)
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
      window_(window), tickets_(std::bit_ceil(window), 0),
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
    e.sqNext = sqNextTicket();
    LSQ_DCHECK(e.segment < params_.numSegments,
               "segment index out of range");
    notePosition(seq, lqNextTicket());
    lq_.push_back(e);
    if constexpr (kDchecksEnabled)
        checkPositions();
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
    e.lqNext = lqNextTicket();
    LSQ_DCHECK(e.segment < params_.numSegments,
               "segment index out of range");
    notePosition(seq, sqNextTicket());
    sq_.push_back(e);
    if constexpr (kDchecksEnabled)
        checkPositions();
    LSQ_CHECK_HOOK(onAllocateStore(seq, pc));
}

// ---------------------------------------------------- lookups ---------

void
Lsq::notePosition(SeqNum seq, std::uint64_t ticket)
{
    // Two live seqs never share a slot while the live span stays
    // within the window.
    SeqNum oldest = seq;
    if (!lq_.empty())
        oldest = std::min(oldest, lq_.front().seq);
    if (!sq_.empty())
        oldest = std::min(oldest, sq_.front().seq);
    LSQ_ASSERT(seq - oldest < window_,
               "live LSQ seqs %llu..%llu span more than the window of %u",
               static_cast<unsigned long long>(oldest),
               static_cast<unsigned long long>(seq), window_);
    tickets_[seq & (tickets_.size() - 1)] = ticket;
}

std::size_t
Lsq::loadPos(SeqNum seq) const
{
    // A stale or foreign ticket lands outside the ring (the
    // subtraction wraps) or on another seq.
    std::size_t i = tickets_[seq & (tickets_.size() - 1)] - lqHead_;
    return i < lq_.size() && lq_[i].seq == seq ? i : lq_.size();
}

std::size_t
Lsq::storePos(SeqNum seq) const
{
    std::size_t i = tickets_[seq & (tickets_.size() - 1)] - sqHead_;
    return i < sq_.size() && sq_[i].seq == seq ? i : sq_.size();
}

unsigned
Lsq::sqWalkStart(const LoadEntry &e) const
{
    std::size_t older = e.sqNext - sqHead_;
    LSQ_DCHECK(older <= sq_.size(), "load's sqNext outside the SQ");
    return older == 0 ? storeAlloc().tailSegment()
                      : sq_[older - 1].segment;
}

unsigned
Lsq::lqWalkStart(std::size_t from, unsigned fallback) const
{
    LSQ_DCHECK(from <= lq_.size(), "LQ walk starts outside the LQ");
    return from == lq_.size() ? fallback : lq_[from].segment;
}

bool
Lsq::olderMatchingStore(SeqNum loadSeq, Addr addr) const
{
    for (const auto &s : sq_) {
        if (s.seq >= loadSeq)
            break;
        if (s.addrValid && s.addr == addr)
            return true;
    }
    return false;
}

bool
Lsq::storePendingAddress(SeqNum seq) const
{
    std::size_t i = storePos(seq);
    return i < sq_.size() && !sq_[i].addrValid;
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

void
Lsq::checkPositions() const
{
    // One merge walk in program order: before each load, count the
    // stores older than it, and before each store the older loads.
    std::size_t s = 0;
    for (std::size_t l = 0; l < lq_.size(); ++l) {
        const LoadEntry &e = lq_[l];
        for (; s < sq_.size() && sq_[s].seq < e.seq; ++s) {
            LSQ_ASSERT(sq_[s].lqNext == lqHead_ + l,
                       "store %llu: lqNext %llu, program order says %llu",
                       static_cast<unsigned long long>(sq_[s].seq),
                       static_cast<unsigned long long>(sq_[s].lqNext),
                       static_cast<unsigned long long>(lqHead_ + l));
        }
        LSQ_ASSERT(e.sqNext == sqHead_ + s,
                   "load %llu: sqNext %llu, program order says %llu",
                   static_cast<unsigned long long>(e.seq),
                   static_cast<unsigned long long>(e.sqNext),
                   static_cast<unsigned long long>(sqHead_ + s));
        LSQ_ASSERT(loadPos(e.seq) == l, "load %llu: ticket off its slot",
                   static_cast<unsigned long long>(e.seq));
    }
    for (; s < sq_.size(); ++s) {
        LSQ_ASSERT(sq_[s].lqNext == lqNextTicket(),
                   "store %llu: lqNext %llu, program order says %llu",
                   static_cast<unsigned long long>(sq_[s].seq),
                   static_cast<unsigned long long>(sq_[s].lqNext),
                   static_cast<unsigned long long>(lqNextTicket()));
    }
    for (std::size_t i = 0; i < sq_.size(); ++i) {
        LSQ_ASSERT(storePos(sq_[i].seq) == i,
                   "store %llu: ticket off its slot",
                   static_cast<unsigned long long>(sq_[i].seq));
    }
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
Lsq::planSqSearch(const LoadEntry &load, Addr addr)
{
    SqSearchPlan plan;
    const auto olderEnd = sq_.begin() + (load.sqNext - sqHead_);
    auto older = olderEnd;

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
    // If every older store sits in one segment the load's latency is
    // knowable at issue (head-segment rule).
    plan.oneSegment =
        params_.segmented() && sqVisit_.size() == 1 &&
        std::all_of(sq_.begin(), olderEnd, [this](const StoreEntry &s) {
            return s.segment == sqVisit_[0];
        });
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
Lsq::planStoreLqSearch(const StoreEntry &store, Addr addr)
{
    SeqNum storeSeq = store.seq;
    return planLqWalk(
        lq_.cbegin() + (store.lqNext - lqHead_), loadAlloc().tailSegment(),
        [storeSeq, addr](const LoadEntry &e) {
            bool stale = e.forwardedFrom == kNoSeq ||
                         e.forwardedFrom < storeSeq;
            return e.executed && e.addr == addr && stale;
        });
}

Lsq::LqSearchPlan
Lsq::planLoadLqSearch(std::size_t pos, Addr addr, Cycle executeCycle)
{
    return planLqWalk(lq_.cbegin() + pos + 1, lq_[pos].segment,
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
    const std::size_t pos = loadPos(seq);
    LSQ_ASSERT(pos < lq_.size(), "issueLoad: unknown load %llu",
               static_cast<unsigned long long>(seq));
    LoadEntry *e = &lq_[pos];
    LSQ_ASSERT(!e->executed, "issueLoad: load issued twice");

    bool isOldest = nilp_ == pos;

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
    unsigned sqStart = doSq ? sqWalkStart(*e) : 0;
    if (doSq && sqPorts().freePorts(sqStart, now) == 0) {
        out.status = LoadIssueStatus::NoSqPort;
        return out;
    }
    unsigned lqStart = doLq ? lqWalkStart(pos + 1, e->segment) : 0;
    if (doLq && lqPorts().freePorts(lqStart, now) == 0) {
        out.status = LoadIssueStatus::NoLqPort;
        return out;
    }

    // Plan both searches before touching any port so the reservation
    // is atomic.
    SqSearchPlan sqPlan;
    if (doSq) {
        sqPlan = planSqSearch(*e, addr);
        LSQ_DCHECK(sqPlan.visit[0] == sqStart,
                   "SQ walk does not start at its checked segment");
    }
    LqSearchPlan lqPlan;
    if (doLq) {
        lqPlan = planLoadLqSearch(pos, addr, now);
        LSQ_DCHECK(lqPlan.visit[0] == lqStart,
                   "LQ walk does not start at its checked segment");
    }
    bool sqOk = !doSq || sqPorts().canReserveWalk(sqPlan.visit, now);
    bool lqOk = !doLq || lqPorts().canReserveWalk(lqPlan.visit, now);

    // Combined queue: both walks book the *same* schedule, so their
    // per-(segment, cycle) demands add up. The port arbiter staggers
    // the ordering walk by up to kMaxStagger cycles to fit both (a
    // single port cannot serve two walks in one slot).
    Cycle lqOffset = 0;
    if (params_.combinedQueue && doSq && doLq && sqOk && lqOk) {
        PortSchedule &ps = lqPorts();
        bool found = false;
        while (lqOffset <= kMaxStagger && !found) {
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
        !params_.segmented() || !doSq || sqPlan.oneSegment;

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
    if constexpr (kDchecksEnabled)
        checkPositions();
    LSQ_CHECK_HOOK(onLoadIssue(seq, addr, now, out));
    return out;
}

// ---------------------------------------------------- store side ------

// lsqlint: hot
StoreSearchOutcome
Lsq::storeAddrReady(SeqNum seq, Addr addr, Cycle now)
{
    StoreSearchOutcome out;
    const std::size_t pos = storePos(seq);
    LSQ_ASSERT(pos < sq_.size(), "storeAddrReady: unknown store %llu",
               static_cast<unsigned long long>(seq));
    StoreEntry *s = &sq_[pos];

    if (params_.checkViolationsAtCommit) {
        // Pair-predictor scheme: no execute-time search; the address
        // simply becomes visible for forwarding.
        s->addr = addr;
        s->addrValid = true;
        out.accepted = true;
        out.searchDoneCycle = now;
        if constexpr (kDchecksEnabled)
            checkPositions();
        LSQ_CHECK_HOOK(onStoreAddrReady(seq, addr, now, out));
        return out;
    }

    unsigned start =
        lqWalkStart(s->lqNext - lqHead_, loadAlloc().tailSegment());
    if (lqPorts().freePorts(start, now) == 0) {
        out.accepted = false;   // retry next cycle
        return out;
    }
    LqSearchPlan plan = planStoreLqSearch(*s, addr);
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
    if constexpr (kDchecksEnabled)
        checkPositions();
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
            std::size_t i = loadPos(victim);
            LSQ_DCHECK(i < lq_.size(),
                       "load-buffer resident missing from the LQ");
            if (i < lq_.size())
                out.violationLoadPc = lq_[i].pc;
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
        const StoreEntry &head = sq_.front();
        unsigned start =
            lqWalkStart(head.lqNext - lqHead_, loadAlloc().tailSegment());
        LqSearchPlan plan;
        bool ok = lqPorts().freePorts(start, now) != 0;
        if (ok) {
            plan = planStoreLqSearch(head, head.addr);
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
    ++sqHead_;
    storeAlloc().freeOldest();
    out.accepted = true;
    if constexpr (kDchecksEnabled)
        checkPositions();
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
    ++lqHead_;
    --nilp_;
    loadAlloc().freeOldest();
    if constexpr (kDchecksEnabled)
        checkPositions();
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
        if constexpr (kDchecksEnabled)
            checkPositions();
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
    if constexpr (kDchecksEnabled)
        checkPositions();
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

} // namespace lsqscale
