/**
 * @file
 * The core's scheduled writebacks, on a timing wheel indexed by cycle.
 */

#ifndef LSQSCALE_CORE_COMPLETION_CALENDAR_HH
#define LSQSCALE_CORE_COMPLETION_CALENDAR_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lsqscale {

/**
 * Pending writebacks, at most one per in-flight instruction.
 *
 * An event for cycle `when` goes to bucket when & (W - 1), and each
 * bucket is a FIFO, so the events of one cycle retire in the order
 * they were scheduled. W is a power of two above the horizon, the
 * longest latency the configuration can schedule, so a bucket only
 * ever holds the events of one cycle. A bitmap of non-empty buckets
 * finds the next event.
 *
 * Events are intrusive nodes, one per ROB slot, indexed like the
 * issue queue's slots by seq & (slots - 1) with slots =
 * bit_ceil(window): live seqs lie in the ROB's dense range, so two
 * never share a node. A squash cancels the events of the instructions
 * it removes, so every pending event belongs to a live, issued
 * instruction, and nothing allocates after construction.
 */
class CompletionCalendar
{
  public:
    /**
     * @param window span of live seqs (robEntries)
     * @param horizon the largest when - now that schedule() accepts
     */
    CompletionCalendar(unsigned window, Cycle horizon)
        : nodes_(std::bit_ceil(window)), nodeMask_(nodes_.size() - 1),
          head_(std::bit_ceil(std::max<Cycle>(horizon + 1, 64)), kNil),
          tail_(head_.size(), kNil), nonEmpty_(head_.size() / 64, 0),
          bucketMask_(head_.size() - 1)
    {}

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** Events scheduled so far. */
    std::uint64_t scheduled() const { return scheduled_; }
    /** Number of buckets (W). */
    std::size_t buckets() const { return head_.size(); }

    /**
     * Schedule the writeback of @p seq (dispatch @p robId) for cycle
     * @p when, after the end of cycle @p now and within the horizon.
     */
    void
    schedule(SeqNum seq, std::uint64_t robId, Cycle when, Cycle now)
    {
        LSQ_ASSERT(when > now && when - now < head_.size(),
                   "writeback at cycle %llu scheduled at %llu lies past "
                   "the calendar's %zu cycles",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(now), head_.size());
        std::int32_t i = nodeOf(seq);
        Node &n = nodes_[i];
        LSQ_DCHECK(n.seq == kNoSeq,
                   "seq %llu scheduled while seq %llu is pending",
                   static_cast<unsigned long long>(seq),
                   static_cast<unsigned long long>(n.seq));
        n.seq = seq;
        n.robId = robId;
        n.when = when;
        std::size_t b = when & bucketMask_;
        n.prev = tail_[b];
        n.next = kNil;
        if (tail_[b] != kNil)
            nodes_[tail_[b]].next = i;
        else
            head_[b] = i;
        tail_[b] = i;
        nonEmpty_[b >> 6] |= std::uint64_t(1) << (b & 63);
        ++size_;
        ++scheduled_;
    }

    /** Drop the pending writeback of @p seq (a squash). */
    void
    cancel(SeqNum seq)
    {
        std::int32_t i = nodeOf(seq);
        LSQ_DCHECK(nodes_[i].seq == seq, "cancel of seq %llu: not pending",
                   static_cast<unsigned long long>(seq));
        unlink(i);
    }

    /**
     * Retire every event due at @p now in schedule order, calling
     * @p fn(seq, robId) for each. @p fn must not schedule or cancel.
     */
    template <typename Fn>
    void
    retire(Cycle now, Fn &&fn)
    {
        std::size_t b = now & bucketMask_;
        while (head_[b] != kNil) {
            std::int32_t i = head_[b];
            const SeqNum seq = nodes_[i].seq;
            const std::uint64_t robId = nodes_[i].robId;
            LSQ_DCHECK(nodes_[i].when == now,
                       "calendar bucket of cycle %llu holds cycle %llu",
                       static_cast<unsigned long long>(now),
                       static_cast<unsigned long long>(nodes_[i].when));
            unlink(i);
            fn(seq, robId);
        }
    }

    /**
     * The earliest cycle at or after @p now with an event, or kNoCycle
     * when none is pending. Every pending event lies within one turn
     * of the wheel from @p now.
     */
    Cycle
    next(Cycle now) const
    {
        if (size_ == 0)
            return kNoCycle;
        const std::size_t nWords = nonEmpty_.size();
        const std::size_t start = now & bucketMask_;
        const std::size_t w0 = start >> 6;
        // Words w0..end, wrap, then the low bits of w0 last.
        for (std::size_t k = 0; k <= nWords; ++k) {
            std::size_t w = (w0 + k) & (nWords - 1);
            std::uint64_t bits = nonEmpty_[w];
            if (k == 0)
                bits &= ~std::uint64_t(0) << (start & 63);
            if (k == nWords)
                bits &= (std::uint64_t(1) << (start & 63)) - 1;
            if (bits != 0) {
                std::size_t b = w * 64 + static_cast<std::size_t>(
                                             std::countr_zero(bits));
                return now + ((b - start) & bucketMask_);
            }
        }
        LSQ_PANIC("calendar holds %zu events but no bucket is marked",
                  size_);
    }

  private:
    static constexpr std::int32_t kNil = -1;

    struct Node
    {
        /** kNoSeq when no event is pending on this node. */
        SeqNum seq = kNoSeq;
        std::uint64_t robId = 0;
        Cycle when = 0;
        std::int32_t prev = kNil;
        std::int32_t next = kNil;
    };

    std::int32_t
    nodeOf(SeqNum seq) const
    {
        std::size_t idx = seq & nodeMask_;
        return static_cast<std::int32_t>(idx);
    }

    /** Take node @p i out of its bucket. */
    void
    unlink(std::int32_t i)
    {
        Node &n = nodes_[i];
        std::size_t b = n.when & bucketMask_;
        if (n.prev != kNil)
            nodes_[n.prev].next = n.next;
        else
            head_[b] = n.next;
        if (n.next != kNil)
            nodes_[n.next].prev = n.prev;
        else
            tail_[b] = n.prev;
        if (head_[b] == kNil)
            nonEmpty_[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
        n.seq = kNoSeq;
        --size_;
    }

    std::vector<Node> nodes_;
    std::size_t nodeMask_;
    /** Per bucket, the first and last node of its FIFO, or kNil. */
    std::vector<std::int32_t> head_;
    std::vector<std::int32_t> tail_;
    /** Bit b set: bucket b holds an event. */
    std::vector<std::uint64_t> nonEmpty_;
    std::size_t bucketMask_;
    std::size_t size_ = 0;
    std::uint64_t scheduled_ = 0;
};

} // namespace lsqscale

#endif // LSQSCALE_CORE_COMPLETION_CALENDAR_HH
