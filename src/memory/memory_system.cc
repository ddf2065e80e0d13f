#include "memory/memory_system.hh"

namespace lsqscale {

MemorySystem::MemorySystem(const MemoryParams &params)
    : params_(params), l1i_(params.l1i), l1d_(params.l1d), l2_(params.l2)
{
}

MemAccessResult
MemorySystem::walk(Cycle now, Addr addr, Cache &l1)
{
    MemAccessResult res{};
    res.l1Hit = l1.access(addr);
    if (res.l1Hit) {
        res.readyCycle = now + l1.params().hitLatency;
        return res;
    }
    res.l2Hit = l2_.access(addr);
    if (res.l2Hit) {
        res.readyCycle = now + l1.params().hitLatency +
                         l2_.params().hitLatency;
        return res;
    }
    res.readyCycle = now + l1.params().hitLatency +
                     l2_.params().hitLatency + params_.memLatency;
    return res;
}

MemAccessResult
MemorySystem::accessData(Cycle now, Addr addr, bool isWrite)
{
    (void)isWrite;  // write-allocate: timing identical for our model
    return walk(now, addr, l1d_);
}

MemAccessResult
MemorySystem::accessInst(Cycle now, Addr pc)
{
    return walk(now, pc, l1i_);
}

void
MemorySystem::exportStats(StatSet &stats) const
{
    l1i_.exportStats(stats);
    l1d_.exportStats(stats);
    l2_.exportStats(stats);
}

// ------------------------------------------------ checkpointing -----

void
MemorySystem::saveState(SerialWriter &w) const
{
    l1i_.saveState(w);
    l1d_.saveState(w);
    l2_.saveState(w);
}

void
MemorySystem::loadState(SerialReader &r)
{
    l1i_.loadState(r);
    l1d_.loadState(r);
    l2_.loadState(r);
}

} // namespace lsqscale
