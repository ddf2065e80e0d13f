/**
 * @file
 * Reorder buffer.
 */

#ifndef LSQSCALE_CORE_ROB_HH
#define LSQSCALE_CORE_ROB_HH

#include <deque>

#include "common/logging.hh"
#include "common/types.hh"
#include "predictor/store_set.hh"
#include "workload/micro_op.hh"

namespace lsqscale {

/** Lifecycle of a ROB entry. */
enum class RobState : std::uint8_t {
    Dispatched, ///< waiting in the issue queue
    Issued,     ///< executing, completion scheduled
    Completed,  ///< result written back, ready to commit
};

/** One in-flight instruction's bookkeeping. */
struct RobEntry
{
    MicroOp op;
    RobState state = RobState::Dispatched;
    Cycle dispatchCycle = 0;
    Cycle completeCycle = 0;
    /**
     * Unique per dispatch (a squashed-and-refetched instruction keeps
     * its seq but gets a fresh id): guards stale completion events.
     */
    std::uint64_t id = 0;

    // Rename bookkeeping for commit/walk-back.
    PhysReg destPhys = kNoReg;
    PhysReg prevPhys = kNoReg;

    // Memory-dependence predictor tags (fetch-time snapshots).
    StorePrediction storePred{};
    LoadPrediction loadPred{};

    /** Load: whether it searched the SQ when it issued. */
    bool searchedSq = false;
    /** Load: whether it forwarded from the SQ. */
    bool forwarded = false;

    /** Branch: whether fetch stalled on this branch (mispredicted). */
    bool mispredicted = false;
};

/**
 * In-order window of in-flight instructions. Sequence numbers are
 * dense (InstStream), so the window always holds a contiguous range
 * and an entry's position is its distance from the head.
 */
class Rob
{
  public:
    explicit Rob(unsigned capacity) : capacity_(capacity) {}

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }

    RobEntry &
    push(const MicroOp &op, Cycle now)
    {
        LSQ_ASSERT(!full(), "ROB overflow");
        LSQ_ASSERT(entries_.empty() ||
                       op.seq == entries_.back().op.seq + 1,
                   "ROB entries must arrive in program order with dense "
                   "sequence numbers (%llu after %llu)",
                   static_cast<unsigned long long>(op.seq),
                   static_cast<unsigned long long>(
                       entries_.back().op.seq));
        entries_.emplace_back();
        RobEntry &e = entries_.back();
        e.op = op;
        e.dispatchCycle = now;
        return e;
    }

    RobEntry &head() { return entries_.front(); }
    const RobEntry &head() const { return entries_.front(); }

    RobEntry &back() { return entries_.back(); }

    void popHead() { entries_.pop_front(); }
    void popBack() { entries_.pop_back(); }

    /** Find by sequence number (nullptr if absent). */
    RobEntry *
    find(SeqNum seq)
    {
        if (entries_.empty() || seq < entries_.front().op.seq)
            return nullptr;
        std::uint64_t i = seq - entries_.front().op.seq;
        return i < entries_.size() ? &entries_[i] : nullptr;
    }

    auto begin() { return entries_.begin(); }
    auto end() { return entries_.end(); }
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

  private:
    unsigned capacity_;
    std::deque<RobEntry> entries_;
};

} // namespace lsqscale

#endif // LSQSCALE_CORE_ROB_HH
