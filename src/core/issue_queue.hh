/**
 * @file
 * Issue queue (scheduler): per-register wakeup lists and an
 * age-ordered select over a ready bitmap.
 */

#ifndef LSQSCALE_CORE_ISSUE_QUEUE_HH
#define LSQSCALE_CORE_ISSUE_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
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
 * Wakeup is driven by the producer, as a tag broadcast is in
 * hardware. At dispatch each source that is not yet ready links its
 * entry onto that physical register's waiter list; the producer's
 * writeback calls wake(), which walks only that list. An entry whose
 * sources are all ready has its bit set in a ready bitmap, and select
 * walks the bitmap oldest first. Exactness rests on one invariant: a
 * live entry's source never goes from ready back to not ready, since
 * a register is renamed again only after every reader of its old
 * value has issued or been squashed.
 *
 * Entries live in a slot array indexed by seq & (slots - 1), with
 * slots = bit_ceil(window) and window the span that live seqs can
 * cover (the ROB size). Live seqs lie in the ROB's dense range, so
 * two never share a slot, find is O(1), and age order is slot order
 * starting at the slot after the youngest dispatched seq.
 *
 * The waiter lists are intrusive and doubly linked, one link pair per
 * source in each slot. A squash unlinks its entries' waiters, so a
 * refetched instruction that reuses the seq and slot never inherits a
 * stale one.
 */
class IssueQueue
{
  public:
    /**
     * @param capacity entries the queue holds (iqEntries)
     * @param window span of live seqs (robEntries)
     * @param intRegs, fpRegs physical registers per class
     */
    IssueQueue(unsigned capacity, unsigned window, unsigned intRegs,
               unsigned fpRegs)
        : capacity_(capacity),
          slots_(std::bit_ceil(window)),
          mask_(slots_.size() - 1),
          ready_((slots_.size() + 63) / 64, 0),
          intHeads_(intRegs, kNil), fpHeads_(fpRegs, kNil)
    {}

    bool full() const { return size_ >= capacity_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /**
     * Insert @p e (program order). @p ready is a predicate over
     * (PhysReg, isFp) giving each source's readiness now; an unready
     * source waits for wake() on its register.
     */
    template <typename ReadyFn>
    void
    push(const IqEntry &e, ReadyFn &&ready)
    {
        LSQ_ASSERT(!full(), "issue queue overflow");
        LSQ_ASSERT(size_ == 0 || e.seq >= tail_,
                   "issue queue entries must arrive in program order");
        std::size_t idx = slotOf(e.seq);
        Slot &s = slots_[idx];
        LSQ_ASSERT(s.e.seq == kNoSeq,
                   "issue queue slot %zu holds seq %llu, wanted by %llu",
                   idx, static_cast<unsigned long long>(s.e.seq),
                   static_cast<unsigned long long>(e.seq));
        s.e = e;
        s.waiting = 0;
        if (e.src1 != kNoReg && !ready(e.src1, e.src1Fp))
            link(idx, 0);
        if (e.src2 != kNoReg && !ready(e.src2, e.src2Fp))
            link(idx, 1);
        if (s.waiting == 0)
            setBit(idx);
        tail_ = e.seq + 1;
        ++size_;
    }

    /**
     * The register @p p of class @p fp was written back: mark every
     * waiting source on it ready. Waking a register with no waiters,
     * or waking it again, does nothing.
     */
    void
    wake(PhysReg p, bool fp)
    {
        std::vector<std::int32_t> &heads = fp ? fpHeads_ : intHeads_;
        LSQ_DCHECK(p < heads.size(), "wake of phys reg %u out of range",
                   p);
        std::int32_t n = heads[p];
        heads[p] = kNil;
        while (n != kNil) {
            std::size_t idx = static_cast<std::size_t>(n) >> 1;
            unsigned k = static_cast<unsigned>(n) & 1;
            Slot &s = slots_[idx];
            n = s.next[k];
            s.waiting = static_cast<std::uint8_t>(s.waiting & ~(1u << k));
            if (s.waiting == 0)
                setBit(idx);
        }
    }

    /** Remove the entry with @p seq (after successful issue). */
    void
    remove(SeqNum seq)
    {
        std::size_t idx = slotOf(seq);
        if (slots_[idx].e.seq != seq)
            LSQ_PANIC("IssueQueue::remove: seq %llu not present",
                      static_cast<unsigned long long>(seq));
        release(idx);
    }

    /** Remove every entry with seq >= @p seq (squash). */
    void
    squashFrom(SeqNum seq)
    {
        if (seq >= tail_)
            return;
        SeqNum span = slots_.size();
        SeqNum lo = tail_ > span ? std::max(seq, tail_ - span) : seq;
        for (SeqNum s = lo; s < tail_; ++s) {
            std::size_t idx = slotOf(s);
            if (slots_[idx].e.seq == s)
                release(idx);
        }
        tail_ = seq;
    }

    /**
     * Offer each entry eligible at @p now (every source ready and
     * notBefore <= now) to @p tryIssue, oldest first, until @p width
     * of them have issued. tryIssue(IqEntry &) returns whether the
     * entry issued. It may remove entries, the offered one and younger
     * ones (a squash), and move the offered entry's notBefore; it must
     * not push or wake. Entries it removes are not offered.
     * @return the number issued.
     */
    template <typename TryIssue>
    unsigned
    select(Cycle now, unsigned width, TryIssue &&tryIssue)
    {
        unsigned issued = 0;
        if (width == 0 || size_ == 0)
            return 0;
        const std::size_t nWords = ready_.size();
        const std::size_t start = slotOf(tail_);
        const std::size_t w0 = start >> 6;
        // Words w0..end, wrap, then the low bits of w0 last.
        for (std::size_t i = 0; i <= nWords; ++i) {
            std::size_t w = (w0 + i) & (nWords - 1);
            std::uint64_t visit = ~std::uint64_t(0);
            if (i == 0)
                visit &= ~std::uint64_t(0) << (start & 63);
            if (i == nWords)
                visit &= (std::uint64_t(1) << (start & 63)) - 1;
            // Re-read the word each step: tryIssue clears bits.
            while (std::uint64_t bits = ready_[w] & visit) {
                unsigned b = static_cast<unsigned>(std::countr_zero(bits));
                visit &= ~((std::uint64_t(2) << b) - 1);
                IqEntry &e = slots_[w * 64 + b].e;
                LSQ_DCHECK(tail_ - e.seq <= slots_.size(),
                           "seq %llu outside the issue window",
                           static_cast<unsigned long long>(e.seq));
                if (e.notBefore > now)
                    continue;
                if (tryIssue(e) && ++issued == width)
                    return issued;
            }
        }
        return issued;
    }

    /**
     * The earliest notBefore at or after @p from among entries whose
     * sources are all ready, or kNoCycle when there is none: the first
     * such cycle at which select() offers an entry it did not offer
     * before @p from.
     */
    Cycle
    nextNotBefore(Cycle from) const
    {
        Cycle next = kNoCycle;
        for (std::size_t w = 0; w < ready_.size(); ++w) {
            for (std::uint64_t bits = ready_[w]; bits != 0;
                 bits &= bits - 1) {
                unsigned b = static_cast<unsigned>(std::countr_zero(bits));
                Cycle nb = slots_[w * 64 + b].e.notBefore;
                if (nb >= from && nb < next)
                    next = nb;
            }
        }
        return next;
    }

    IqEntry *
    find(SeqNum seq)
    {
        Slot &s = slots_[slotOf(seq)];
        return s.e.seq == seq ? &s.e : nullptr;
    }

    /**
     * Check that the wakeup lists agree with polling: an entry is in
     * the ready set exactly when @p ready holds for each of its
     * sources. Debug builds run it every cycle.
     */
    template <typename ReadyFn>
    void
    checkWakeups(ReadyFn &&ready) const
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const IqEntry &e = slots_[i].e;
            if (e.seq == kNoSeq)
                continue;
            bool polled = (e.src1 == kNoReg || ready(e.src1, e.src1Fp)) &&
                          (e.src2 == kNoReg || ready(e.src2, e.src2Fp));
            LSQ_ASSERT(polled == testBit(i),
                       "issue queue seq %llu: woken=%d, polled ready=%d",
                       static_cast<unsigned long long>(e.seq),
                       static_cast<int>(testBit(i)),
                       static_cast<int>(polled));
        }
    }

  private:
    static constexpr std::int32_t kNil = -1;

    /**
     * One slot. Waiter-list node k (0 = src1, 1 = src2) of slot i is
     * numbered 2i + k.
     */
    struct Slot
    {
        IqEntry e;
        /** Bit k set: source k waits on its register's list. */
        std::uint8_t waiting = 0;
        std::int32_t prev[2] = {kNil, kNil};
        std::int32_t next[2] = {kNil, kNil};
    };

    std::size_t slotOf(SeqNum seq) const { return seq & mask_; }

    void
    setBit(std::size_t i)
    {
        ready_[i >> 6] |= std::uint64_t(1) << (i & 63);
    }
    void
    clearBit(std::size_t i)
    {
        ready_[i >> 6] &= ~(std::uint64_t(1) << (i & 63));
    }
    bool
    testBit(std::size_t i) const
    {
        return (ready_[i >> 6] >> (i & 63)) & 1;
    }

    /** Head of the waiter list of slot @p idx's source @p k. */
    std::int32_t &
    headFor(std::size_t idx, unsigned k)
    {
        const IqEntry &e = slots_[idx].e;
        PhysReg p = k == 0 ? e.src1 : e.src2;
        bool fp = k == 0 ? e.src1Fp : e.src2Fp;
        std::vector<std::int32_t> &heads = fp ? fpHeads_ : intHeads_;
        LSQ_DCHECK(p < heads.size(), "phys reg %u out of range", p);
        return heads[p];
    }

    /** Push source @p k of slot @p idx onto its register's list. */
    void
    link(std::size_t idx, unsigned k)
    {
        Slot &s = slots_[idx];
        std::int32_t node = static_cast<std::int32_t>(idx * 2 + k);
        std::int32_t &head = headFor(idx, k);
        s.prev[k] = kNil;
        s.next[k] = head;
        if (head != kNil)
            slots_[head >> 1].prev[head & 1] = node;
        head = node;
        s.waiting = static_cast<std::uint8_t>(s.waiting | (1u << k));
    }

    /** Take source @p k of slot @p idx off its register's list. */
    void
    unlink(std::size_t idx, unsigned k)
    {
        Slot &s = slots_[idx];
        std::int32_t prev = s.prev[k];
        std::int32_t next = s.next[k];
        if (prev != kNil)
            slots_[prev >> 1].next[prev & 1] = next;
        else
            headFor(idx, k) = next;
        if (next != kNil)
            slots_[next >> 1].prev[next & 1] = prev;
    }

    /** Empty slot @p idx, unlinking any source still waiting. */
    void
    release(std::size_t idx)
    {
        Slot &s = slots_[idx];
        if (s.waiting & 1u)
            unlink(idx, 0);
        if (s.waiting & 2u)
            unlink(idx, 1);
        s.waiting = 0;
        s.e.seq = kNoSeq;
        clearBit(idx);
        --size_;
    }

    unsigned capacity_;
    std::vector<Slot> slots_;
    std::size_t mask_;
    /** Bit i set: slot i is live with every source ready. */
    std::vector<std::uint64_t> ready_;
    /** Per physical register, first waiter-list node or kNil. */
    std::vector<std::int32_t> intHeads_;
    std::vector<std::int32_t> fpHeads_;
    /** One past the youngest live seq; the oldest slot follows it. */
    SeqNum tail_ = 0;
    std::size_t size_ = 0;
};

} // namespace lsqscale

#endif // LSQSCALE_CORE_ISSUE_QUEUE_HH
