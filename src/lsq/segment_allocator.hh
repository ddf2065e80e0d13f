/**
 * @file
 * Segment-assignment policies for the segmented queue (Section 3.1).
 *
 * Entries of a queue (loads or stores) are allocated in program order
 * and freed either from the old end (commit) or the young end (squash),
 * so each policy only needs to track a tail position:
 *
 *  - NoSelfCircular: the whole structure is one circular buffer; the
 *    tail walks slot-by-slot across segment boundaries even when older
 *    segments have free slots. A small in-flight window therefore
 *    drifts across segments over time (the effect behind the paper's
 *    integer-benchmark slowdowns in Figure 11).
 *  - SelfCircular: allocation is circular *within* the current segment,
 *    moving to the next segment only when the current one is full. A
 *    small window stays compacted in one segment.
 */

#ifndef LSQSCALE_LSQ_SEGMENT_ALLOCATOR_HH
#define LSQSCALE_LSQ_SEGMENT_ALLOCATOR_HH

#include <vector>

#include "common/logging.hh"
#include "common/ring.hh"
#include "lsq/lsq_params.hh"

namespace lsqscale {

/** Assigns a segment to each allocated entry and tracks occupancy. */
class SegmentAllocator
{
  public:
    SegmentAllocator(unsigned segments, unsigned entriesPerSegment,
                     SegAllocPolicy policy)
        : segments_(segments), perSegment_(entriesPerSegment),
          policy_(policy), occupancy_(segments, 0),
          allocSegs_(segments * entriesPerSegment)
    {
        LSQ_ASSERT(segments >= 1 && entriesPerSegment >= 1,
                   "degenerate segmented queue");
    }

    /** True if another entry can be allocated. */
    bool
    canAllocate() const
    {
        return live_ < segments_ * perSegment_;
    }

    /**
     * Allocate the next entry (program order).
     * @return the segment index the entry lands in.
     */
    unsigned
    allocate()
    {
        LSQ_ASSERT(canAllocate(), "allocate on a full queue");
        unsigned seg;
        if (policy_ == SegAllocPolicy::NoSelfCircular) {
            // Entries allocate and free in FIFO order (squash rewinds
            // the tail), so with live < total the tail slot is free.
            seg = tailSlot_ / perSegment_;
            LSQ_DCHECK(occupancy_[seg] < perSegment_,
                       "no-self-circular tail segment full");
            allocSegs_.push_back(seg);
            tailSlot_ = (tailSlot_ + 1) % (segments_ * perSegment_);
        } else {
            seg = current_;
            unsigned tries = 0;
            while (occupancy_[seg] >= perSegment_ &&
                   tries < segments_) {
                seg = (seg + 1) % segments_;
                ++tries;
            }
            LSQ_DCHECK(occupancy_[seg] < perSegment_,
                       "no free segment despite canAllocate");
            current_ = seg;
            allocSegs_.push_back(seg);
        }
        ++occupancy_[seg];
        ++live_;
        return seg;
    }

    /** Free the oldest live entry (commit). */
    void
    freeOldest()
    {
        LSQ_ASSERT(!allocSegs_.empty(), "freeOldest on empty queue");
        unsigned seg = allocSegs_.front();
        allocSegs_.pop_front();
        LSQ_DCHECK(occupancy_[seg] > 0, "occupancy underflow");
        --occupancy_[seg];
        --live_;
    }

    /** Free the youngest live entry (squash). */
    void
    freeYoungest()
    {
        LSQ_ASSERT(!allocSegs_.empty(), "freeYoungest on empty queue");
        unsigned seg = allocSegs_.back();
        allocSegs_.pop_back();
        LSQ_DCHECK(occupancy_[seg] > 0, "occupancy underflow");
        --occupancy_[seg];
        --live_;
        if (policy_ == SegAllocPolicy::NoSelfCircular) {
            tailSlot_ = tailSlot_ == 0
                            ? segments_ * perSegment_ - 1
                            : tailSlot_ - 1;
        } else {
            current_ = seg;
        }
    }

    unsigned live() const { return live_; }
    unsigned occupancy(unsigned seg) const { return occupancy_.at(seg); }
    unsigned numSegments() const { return segments_; }

    /** Segment currently receiving new allocations. */
    unsigned
    tailSegment() const
    {
        if (policy_ == SegAllocPolicy::NoSelfCircular)
            return tailSlot_ / perSegment_;
        return current_;
    }

  private:
    unsigned segments_;
    unsigned perSegment_;
    SegAllocPolicy policy_;

    std::vector<unsigned> occupancy_;
    /** Segment of each live entry, oldest first. */
    Ring<unsigned> allocSegs_;
    unsigned live_ = 0;

    unsigned tailSlot_ = 0;   ///< NoSelfCircular global position
    unsigned current_ = 0;    ///< SelfCircular current segment
};

} // namespace lsqscale

#endif // LSQSCALE_LSQ_SEGMENT_ALLOCATOR_HH
