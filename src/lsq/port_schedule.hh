/**
 * @file
 * Per-segment, per-cycle search-port reservation.
 *
 * A segmented queue search occupies one segment in each consecutive
 * cycle (Section 3: searches pipeline through the segment chain). The
 * PortSchedule books those (segment, cycle) slots ahead of time so
 * conflicting searches are detected at initiation, implementing the
 * paper's contention rule: already-booked (earlier-initiated) searches
 * win; the newcomer is delayed or squashed by the caller.
 */

#ifndef LSQSCALE_LSQ_PORT_SCHEDULE_HH
#define LSQSCALE_LSQ_PORT_SCHEDULE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lsqscale {

/** Rolling reservation table for one queue's segment ports. */
class PortSchedule
{
  public:
    PortSchedule(unsigned segments, unsigned portsPerSegment)
        : segments_(segments), ports_(portsPerSegment),
          window_(windowFor(segments)), slots_(segments * window_)
    {
        LSQ_ASSERT(segments >= 1, "PortSchedule needs >= 1 segment");
        LSQ_ASSERT(portsPerSegment >= 1, "PortSchedule needs >= 1 port");
    }

    /** Free ports at (segment, cycle). */
    unsigned
    freePorts(unsigned segment, Cycle cycle) const
    {
        const Slot &s = slot(segment, cycle);
        unsigned used = (s.cycle == cycle) ? s.used : 0;
        return used >= ports_ ? 0 : ports_ - used;
    }

    /**
     * Check that the walk visiting @p visitOrder[i] at cycle
     * @p start + i can be fully booked.
     */
    bool
    canReserveWalk(std::span<const unsigned> visitOrder,
                   Cycle start) const
    {
        for (std::size_t i = 0; i < visitOrder.size(); ++i)
            if (freePorts(visitOrder[i], start + i) == 0)
                return false;
        return true;
    }

    /** Book the walk. Caller must have checked canReserveWalk. */
    void
    reserveWalk(std::span<const unsigned> visitOrder, Cycle start)
    {
        for (std::size_t i = 0; i < visitOrder.size(); ++i)
            reserve(visitOrder[i], start + i);
    }

    /** Book a single (segment, cycle) slot. */
    void
    reserve(unsigned segment, Cycle cycle)
    {
        Slot &s = slot(segment, cycle);
        if (s.cycle != cycle) {
            s.cycle = cycle;
            s.used = 0;
        }
        LSQ_ASSERT(s.used < ports_, "overbooked segment %u cycle %llu",
                   segment, static_cast<unsigned long long>(cycle));
        ++s.used;
    }

    unsigned numSegments() const { return segments_; }
    unsigned portsPerSegment() const { return ports_; }

  private:
    struct Slot
    {
        Cycle cycle = kNoCycle;
        unsigned used = 0;
    };

    Slot &
    slot(unsigned segment, Cycle cycle)
    {
        return slots_[segment * window_ + (cycle & (window_ - 1))];
    }

    const Slot &
    slot(unsigned segment, Cycle cycle) const
    {
        return slots_[segment * window_ + (cycle & (window_ - 1))];
    }

    /**
     * Rolling window length. A booking lies at most numSegments - 1
     * cycles past its walk's start, and a combined queue's ordering
     * walk starts up to 4 cycles late (Lsq::issueLoad's stagger), so
     * every live booking falls in the next numSegments + 4 cycles.
     * The window covers that horizon, rounded up to a power of two and
     * never below 16, so no live booking shares a slot with another.
     */
    static unsigned
    windowFor(unsigned segments)
    {
        return std::max(16u, std::bit_ceil(segments + 4));
    }

    unsigned segments_;
    unsigned ports_;
    unsigned window_;
    std::vector<Slot> slots_;
};

} // namespace lsqscale

#endif // LSQSCALE_LSQ_PORT_SCHEDULE_HH
