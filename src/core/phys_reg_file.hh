/**
 * @file
 * Physical register file, free list, and rename map for one register
 * class (INT or FP).
 */

#ifndef LSQSCALE_CORE_PHYS_REG_FILE_HH
#define LSQSCALE_CORE_PHYS_REG_FILE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lsqscale {

/**
 * Renaming state for one register class.
 *
 * Architectural registers are indexed 0..numArch-1 within the class;
 * the caller maps the flat MicroOp register space onto classes.
 * Squash recovery is by ROB walk-back: dispatch returns the previous
 * mapping, which the core stores in the ROB entry and hands back to
 * restoreMapping() in reverse order.
 */
class PhysRegFile
{
  public:
    PhysRegFile(unsigned numArch, unsigned numPhys)
        : numArch_(numArch), ready_(numPhys, 0), map_(numArch)
    {
        LSQ_ASSERT(numPhys > numArch,
                   "need more physical than architectural registers");
        // Initial mapping: arch i -> phys i, all ready.
        for (unsigned i = 0; i < numArch; ++i) {
            map_[i] = static_cast<PhysReg>(i);
            ready_[i] = 1;
        }
        for (unsigned p = numPhys; p-- > numArch;)
            freeList_.push_back(static_cast<PhysReg>(p));
    }

    bool hasFreeReg() const { return !freeList_.empty(); }
    std::size_t freeRegs() const { return freeList_.size(); }

    /** Current physical mapping of an architectural register. */
    PhysReg
    lookup(unsigned arch) const
    {
        LSQ_ASSERT(arch < numArch_, "arch reg %u out of range", arch);
        return map_[arch];
    }

    /**
     * Rename @p arch to a fresh physical register (not ready).
     * @return the *previous* mapping, for ROB walk-back.
     */
    PhysReg
    rename(unsigned arch)
    {
        LSQ_ASSERT(arch < numArch_, "arch reg %u out of range", arch);
        LSQ_ASSERT(!freeList_.empty(), "rename without a free register");
        PhysReg fresh = freeList_.back();
        freeList_.pop_back();
        ready_[fresh] = 0;
        PhysReg prev = map_[arch];
        map_[arch] = fresh;
        return prev;
    }

    /** Squash walk-back: undo one rename (newest first). */
    void
    restoreMapping(unsigned arch, PhysReg fresh, PhysReg prev)
    {
        LSQ_ASSERT(map_[arch] == fresh,
                   "walk-back out of order: arch %u", arch);
        map_[arch] = prev;
        freeList_.push_back(fresh);
    }

    /** Commit: the previous mapping is dead, recycle it. */
    void
    releaseAtCommit(PhysReg prev)
    {
        freeList_.push_back(prev);
    }

    bool
    isReady(PhysReg p) const
    {
        LSQ_DCHECK(p < ready_.size(), "phys reg %u out of range", p);
        return ready_[p] != 0;
    }

    void
    setReady(PhysReg p)
    {
        LSQ_DCHECK(p < ready_.size(), "phys reg %u out of range", p);
        ready_[p] = 1;
    }

  private:
    unsigned numArch_;
    /** One byte per register: no bit-packing on the wakeup path. */
    std::vector<std::uint8_t> ready_;
    std::vector<PhysReg> map_;
    std::vector<PhysReg> freeList_;
};

} // namespace lsqscale

#endif // LSQSCALE_CORE_PHYS_REG_FILE_HH
