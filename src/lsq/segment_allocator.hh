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
#include "lsq/lsq_params.hh"
#include "sample/serialize.hh"

namespace lsqscale {

/** Assigns a segment to each allocated entry and tracks occupancy. */
class SegmentAllocator
{
  public:
    SegmentAllocator(unsigned segments, unsigned entriesPerSegment,
                     SegAllocPolicy policy)
        : segments_(segments), perSegment_(entriesPerSegment),
          policy_(policy), occupancy_(segments, 0)
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
        allocSegs_.erase(allocSegs_.begin());
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

    // ----------------------------------------------- checkpointing ----
    /**
     * Serialize the rotation state (checkpointing, docs/SAMPLING.md).
     * Even with no live entries the tail position persists — it
     * encodes where the next allocation lands, which the segmented
     * design points' timing depends on.
     */
    void
    saveState(SerialWriter &w) const
    {
        w.u64(occupancy_.size());
        for (unsigned occ : occupancy_)
            w.u32(occ);
        w.u64(allocSegs_.size());
        for (unsigned seg : allocSegs_)
            w.u32(seg);
        w.u32(live_);
        w.u32(tailSlot_);
        w.u32(current_);
    }

    /**
     * Restore state written by saveState. Checkpoints are only ever
     * taken at quiesced boundaries, so a checkpoint whose allocator
     * geometry differs from ours (segment count or size) is legal as
     * long as it is empty: one warmed image serves every design point
     * of a sweep (see functionalFingerprint). A same-geometry restore
     * is exact; a cross-geometry restore of a non-empty allocator is
     * rejected.
     */
    void
    loadState(SerialReader &r)
    {
        // Bound each count by the bytes left before allocating: a
        // forged count must be a SerialError, not a huge reserve.
        std::uint64_t segs = r.u64();
        if (segs > r.remaining() / 4)
            throw SerialError("allocator segment count exceeds its "
                              "payload");
        std::vector<unsigned> occ(segs);
        bool anyOccupied = false;
        for (unsigned &o : occ) {
            o = r.u32();
            anyOccupied = anyOccupied || o != 0;
        }
        std::uint64_t liveEntries = r.u64();
        if (liveEntries > r.remaining() / 4)
            throw SerialError("allocator live-entry count exceeds its "
                              "payload");
        std::vector<unsigned> allocSegs;
        allocSegs.reserve(liveEntries);
        for (std::uint64_t i = 0; i < liveEntries; ++i)
            allocSegs.push_back(r.u32());
        unsigned live = r.u32();
        if (live != allocSegs.size())
            throw SerialError("allocator live-count mismatch");
        unsigned tailSlot = r.u32();
        unsigned current = r.u32();

        if (segs != occupancy_.size()) {
            if (anyOccupied || live != 0)
                throw SerialError(
                    "cannot restore an occupied LSQ into a "
                    "different segment geometry");
            // Drained cross-design restore: keep our initial (empty)
            // allocator; rotation positions are microarchitectural.
            return;
        }
        for (unsigned seg : allocSegs)
            if (seg >= segments_)
                throw SerialError("allocated segment out of range");
        if (tailSlot >= segments_ * perSegment_ ||
            current >= segments_) {
            // Same segment count, different per-segment size: only an
            // empty image may cross.
            if (anyOccupied || live != 0)
                throw SerialError(
                    "cannot restore an occupied LSQ into a "
                    "different segment geometry");
            return;
        }
        occupancy_ = occ;
        allocSegs_ = std::move(allocSegs);
        live_ = live;
        tailSlot_ = tailSlot;
        current_ = current;
    }

  private:
    // lsqlint: no-serialize(construction geometry; the image encodes vector sizes and loadState validates compatibility)
    unsigned segments_;
    // lsqlint: no-serialize(construction geometry; the image encodes vector sizes and loadState validates compatibility)
    unsigned perSegment_;
    // lsqlint: no-serialize(construction config, fixed for the run)
    SegAllocPolicy policy_;

    std::vector<unsigned> occupancy_;
    /** Segment of each live entry, oldest first. */
    std::vector<unsigned> allocSegs_;
    unsigned live_ = 0;

    unsigned tailSlot_ = 0;   ///< NoSelfCircular global position
    unsigned current_ = 0;    ///< SelfCircular current segment
};

} // namespace lsqscale

#endif // LSQSCALE_LSQ_SEGMENT_ALLOCATOR_HH
