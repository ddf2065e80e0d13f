/**
 * @file
 * Issue queue (scheduler) with register wakeup and oldest-first select.
 */

#ifndef LSQSCALE_CORE_ISSUE_QUEUE_HH
#define LSQSCALE_CORE_ISSUE_QUEUE_HH

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "workload/op_class.hh"

namespace lsqscale {

/** One waiting instruction. */
struct IqEntry
{
    SeqNum seq = kNoSeq;
    OpClass op = OpClass::IntAlu;

    PhysReg src1 = kNoReg;
    bool src1Fp = false;
    PhysReg src2 = kNoReg;
    bool src2Fp = false;

    /** Earliest cycle this entry may issue (dispatch+1, replays). */
    Cycle notBefore = 0;
};

/**
 * The scheduler's waiting station.
 *
 * Readiness is evaluated at select time against the physical register
 * ready bits (the core provides a callback), which models wakeup
 * without explicit broadcast bookkeeping. Entries are kept in dispatch
 * (program) order, so a lookup by sequence number is a binary search.
 */
class IssueQueue
{
  public:
    explicit IssueQueue(unsigned capacity) : capacity_(capacity) {}

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    void
    push(const IqEntry &e)
    {
        LSQ_ASSERT(!full(), "issue queue overflow");
        LSQ_ASSERT(entries_.empty() || entries_.back().seq < e.seq,
                   "issue queue entries must arrive in program order");
        entries_.push_back(e);
    }

    /** Remove the entry with @p seq (after successful issue). */
    void
    remove(SeqNum seq)
    {
        IqEntry *e = find(seq);
        if (e == nullptr)
            LSQ_PANIC("IssueQueue::remove: seq %llu not present",
                      static_cast<unsigned long long>(seq));
        entries_.erase(entries_.begin() + (e - entries_.data()));
    }

    /** Remove every entry with seq >= @p seq (squash). */
    void
    squashFrom(SeqNum seq)
    {
        std::erase_if(entries_, [seq](const IqEntry &e) {
            return e.seq >= seq;
        });
    }

    /**
     * Replace @p out with the seqs of the entries eligible this cycle,
     * oldest first. @p ready is a predicate over (PhysReg, isFp).
     */
    template <typename ReadyFn>
    void
    selectReady(Cycle now, ReadyFn &&ready, std::vector<SeqNum> &out) const
    {
        out.clear();
        for (const auto &e : entries_) {
            if (e.notBefore > now)
                continue;
            if (e.src1 != kNoReg && !ready(e.src1, e.src1Fp))
                continue;
            if (e.src2 != kNoReg && !ready(e.src2, e.src2Fp))
                continue;
            out.push_back(e.seq);
        }
    }

    IqEntry *
    find(SeqNum seq)
    {
        auto it = std::lower_bound(
            entries_.begin(), entries_.end(), seq,
            [](const IqEntry &e, SeqNum s) { return e.seq < s; });
        return it != entries_.end() && it->seq == seq ? &*it : nullptr;
    }

  private:
    unsigned capacity_;
    std::vector<IqEntry> entries_;
};

} // namespace lsqscale

#endif // LSQSCALE_CORE_ISSUE_QUEUE_HH
