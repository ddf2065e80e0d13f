/**
 * @file
 * Dense per-PC table over the synthetic code region.
 *
 * The trace generator and the branch model look up a static record for
 * every dynamic instruction they produce. Their PCs are word-aligned
 * and confined to the code region [base, base + bytes), so a slot per
 * PC indexes the records, which are kept in first-touch order: a
 * lookup is two loads, a new static appends (amortised, no per-entry
 * node), and memory grows with the statics actually visited rather
 * than with the region. Iteration is in ascending PC order, which is
 * the order checkpoints serialize in.
 */

#ifndef LSQSCALE_WORKLOAD_PC_TABLE_HH
#define LSQSCALE_WORKLOAD_PC_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lsqscale {

/** Static records of type @p T keyed by PC within the code region. */
template <typename T>
class PcTable
{
  public:
    PcTable(Pc base, Addr bytes) : base_(base), slot_(bytes / 4, 0) {}

    /** True if @p pc is a word-aligned PC inside the code region. */
    bool
    inRegion(Pc pc) const
    {
        return pc >= base_ && ((pc - base_) & 3) == 0 &&
               (pc - base_) / 4 < slot_.size();
    }

    /** The record at @p pc, or nullptr if it does not exist yet. */
    T *
    find(Pc pc)
    {
        std::uint32_t s = slot_[index(pc)];
        return s ? &records_[s - 1] : nullptr;
    }

    const T *
    find(Pc pc) const
    {
        std::uint32_t s = slot_[index(pc)];
        return s ? &records_[s - 1] : nullptr;
    }

    /**
     * Add the record for @p pc, which must not exist yet. The returned
     * reference (like every pointer find() gave out) is valid until
     * the next insert().
     */
    T &
    insert(Pc pc, const T &value)
    {
        std::uint32_t &s = slot_[index(pc)];
        LSQ_ASSERT(s == 0, "duplicate static record at pc %#llx",
                   static_cast<unsigned long long>(pc));
        records_.push_back(value);
        s = static_cast<std::uint32_t>(records_.size());
        return records_.back();
    }

    std::size_t size() const { return records_.size(); }

    void
    clear()
    {
        std::fill(slot_.begin(), slot_.end(), 0);
        records_.clear();
    }

    /** Call @p f(pc, record) for every record in ascending PC order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < slot_.size(); ++i)
            if (slot_[i] != 0)
                f(base_ + 4 * static_cast<Pc>(i), records_[slot_[i] - 1]);
    }

  private:
    std::size_t
    index(Pc pc) const
    {
        LSQ_DCHECK(inRegion(pc), "pc %#llx outside the code region",
                   static_cast<unsigned long long>(pc));
        return static_cast<std::size_t>((pc - base_) >> 2);
    }

    Pc base_;
    /** Per PC word: 1 + index into records_, or 0 for none. */
    std::vector<std::uint32_t> slot_;
    std::vector<T> records_;
};

} // namespace lsqscale

#endif // LSQSCALE_WORKLOAD_PC_TABLE_HH
