#include "workload/branch_model.hh"

#include <algorithm>

#include "workload/address_stream.hh"

namespace lsqscale {

BranchModel::BranchModel(const BenchmarkProfile &profile, Rng rng)
    : profile_(profile), rng_(rng), codeBase_(kCodeBase),
      codeBytes_(static_cast<Addr>(
          std::max<std::uint32_t>(profile.codeFootprintKb, 4)) * 1024),
      branches_(codeBase_, codeBytes_)
{
}

BranchModel::StaticBranch &
BranchModel::lookup(Pc pc)
{
    if (StaticBranch *known = branches_.find(pc))
        return *known;

    // Derive the static behaviour deterministically from the address so
    // the mapping is stable even across different visit orders. A
    // per-pc generator keeps behaviour independent of global Rng use.
    Rng local(pc * 0x9e3779b97f4a7c15ULL ^ rng_.state());

    StaticBranch b{};
    double r = local.uniform();
    if (r < profile_.loopBranchFrac) {
        b.kind = Kind::Loop;
        b.period = static_cast<std::uint32_t>(std::max<std::uint64_t>(
            2, local.range(2, static_cast<std::uint64_t>(
                               2 * profile_.loopPeriodMean))));
        b.count = 0;
        // Loop back-edges jump backward a short distance.
        Addr back = local.range(4, 256) * 4;
        b.target = pc > codeBase_ + back ? pc - back : codeBase_;
        b.takenBias = 0.0;
    } else {
        // Non-loop branches are mostly short forward hops (if/else
        // within a loop body), occasionally a far jump (call-like), so
        // loop structure survives them.
        Pc target;
        if (local.chance(0.10)) {
            target = codeBase_ + local.below(codeBytes_ / 4) * 4;
        } else {
            target = pc + local.range(2, 64) * 4;
            if (target >= codeBase_ + codeBytes_)
                target = codeBase_ + (target - codeBase_) % codeBytes_;
        }
        if (r < profile_.loopBranchFrac + profile_.easyBranchFrac) {
            b.kind = Kind::Easy;
            b.takenBias = local.chance(0.5) ? 0.97 : 0.03;
        } else {
            b.kind = Kind::Hard;
            // Data-dependent branches: 10-35% intrinsic mispredicts.
            bool mostlyTaken = local.chance(0.5);
            double bias = 0.62 + 0.28 * local.uniform();
            b.takenBias = mostlyTaken ? bias : 1.0 - bias;
        }
        b.period = 0;
        b.target = target;
    }
    return branches_.insert(pc, b);
}

BranchOutcome
BranchModel::resolve(Pc pc)
{
    StaticBranch &b = lookup(pc);
    BranchOutcome out{};
    out.target = b.target;
    switch (b.kind) {
      case Kind::Loop:
        ++b.count;
        if (b.count >= b.period) {
            b.count = 0;
            out.taken = false;   // loop exit: fall through
        } else {
            out.taken = true;    // stay in the loop
        }
        break;
      case Kind::Easy:
      case Kind::Hard:
        out.taken = rng_.chance(b.takenBias);
        break;
    }
    return out;
}

// ------------------------------------------------ checkpointing -----

void
BranchModel::saveState(SerialWriter &w) const
{
    w.u64(rng_.state());
    // Static branches materialize lazily but deterministically from
    // (pc, profile); the table is saved in PC order so identical
    // logical state always yields identical checkpoint bytes.
    w.u64(branches_.size());
    branches_.forEach([&](Pc pc, const StaticBranch &b) {
        w.u64(pc);
        w.u8(static_cast<std::uint8_t>(b.kind));
        w.f64(b.takenBias);
        w.u32(b.period);
        w.u32(b.count);
        w.u64(b.target);
    });
}

void
BranchModel::loadState(SerialReader &r)
{
    rng_.setState(r.u64());
    branches_.clear();
    std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        Pc pc = r.u64();
        StaticBranch b{};
        std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(Kind::Hard))
            throw SerialError("static branch kind out of range");
        b.kind = static_cast<Kind>(kind);
        b.takenBias = r.f64();
        b.period = r.u32();
        b.count = r.u32();
        b.target = r.u64();
        // The generator follows a taken branch's target, so both PCs
        // must index the code region.
        if (!branches_.inRegion(pc) || !branches_.inRegion(b.target))
            throw SerialError("static branch outside the code region");
        if (branches_.find(pc))
            throw SerialError("duplicate static branch");
        branches_.insert(pc, b);
    }
}

} // namespace lsqscale
