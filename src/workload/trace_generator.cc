#include "workload/trace_generator.hh"

#include <algorithm>

namespace lsqscale {

TraceGenerator::TraceGenerator(const BenchmarkProfile &profile,
                               std::uint64_t seed)
    : profile_(profile),
      seed_(seed),
      rng_(seed ^ 0xabcdef0123456789ULL),
      addrs_(profile, rng_.split()),
      branches_(profile, rng_.split()),
      program_(branches_.codeBase(), branches_.codeBytes()),
      pc_(kCodeBase)
{
}

std::size_t
TraceGenerator::pickByDeficit(const double *targets,
                              std::uint64_t *assigned, std::size_t n)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += assigned[i];
    std::size_t best = 0;
    double bestDeficit = -1e300;
    for (std::size_t i = 0; i < n; ++i) {
        double deficit = targets[i] * static_cast<double>(total + 1) -
                         static_cast<double>(assigned[i]);
        if (deficit > bestDeficit) {
            bestDeficit = deficit;
            best = i;
        }
    }
    ++assigned[best];
    return best;
}

TraceGenerator::PcState &
TraceGenerator::staticAt(Pc pc)
{
    if (PcState *known = program_.find(pc))
        return *known;

    // Static attributes are fixed at first visit and cached, so loop
    // bodies replay identically. Category choices are stratified over
    // creation order (see pickByDeficit); per-PC hashing decides only
    // the attributes where variety is all that matters.
    Rng local(pc * 0x9e3779b97f4a7c15ULL ^ (seed_ + 0x51ed2701));

    StaticInst si{};
    const double classTargets[4] = {
        profile_.loadFrac, profile_.storeFrac, profile_.branchFrac,
        std::max(0.0, 1.0 - profile_.loadFrac - profile_.storeFrac -
                          profile_.branchFrac)};
    switch (pickByDeficit(classTargets, classAssigned_, 4)) {
      case 0:
        si.cls = OpClass::Load;
        break;
      case 1:
        si.cls = OpClass::Store;
        break;
      case 2:
        si.cls = OpClass::BranchCond;
        break;
      default: {
        bool fp = local.chance(profile_.fpFrac);
        bool lng = local.chance(profile_.longLatFrac);
        if (fp) {
            si.cls = lng ? (local.chance(0.4) ? OpClass::FpDiv
                                              : OpClass::FpMult)
                         : OpClass::FpAlu;
        } else {
            si.cls = lng ? OpClass::IntMult : OpClass::IntAlu;
        }
        break;
      }
    }

    if (isMemOp(si.cls)) {
        double total = profile_.stackWeight + profile_.strideWeight +
                       profile_.chaseWeight;
        if (total <= 0)
            total = 1.0;
        const double regionTargets[3] = {
            profile_.stackWeight / total,
            profile_.strideWeight / total,
            profile_.chaseWeight / total};
        switch (pickByDeficit(regionTargets, regionAssigned_, 3)) {
          case 0:
            si.region = MemRegion::Stack;
            break;
          case 1:
            si.region = MemRegion::Stride;
            break;
          default:
            si.region = MemRegion::Chase;
            break;
        }
        si.streamId = streamRr_++;
        if (streamRr_ >= std::max(1u, profile_.numStreams))
            streamRr_ = 0;
    }

    if (si.cls == OpClass::Load) {
        // A fixed subset of static loads participates in address
        // reuse; the subset is stable so the predictors can learn it.
        double reloadFrac =
            std::min(0.5, profile_.loadAliasStoreProb * 1.5);
        double repeatFrac =
            std::min(0.4, profile_.loadAliasLoadProb * 1.5);
        const double roleTargets[3] = {
            std::max(0.0, 1.0 - reloadFrac - repeatFrac), reloadFrac,
            repeatFrac};
        switch (pickByDeficit(roleTargets, roleAssigned_, 3)) {
          case 1:
            si.role = LoadRole::ReloadStore;
            break;
          case 2:
            si.role = LoadRole::RepeatLoad;
            break;
          default:
            si.role = LoadRole::Pure;
            break;
        }
        si.fpDest = local.chance(profile_.fpFrac);
    }

    PcState state;
    state.si = si;
    return program_.insert(pc, state);
}

ArchReg
TraceGenerator::pickSource(bool fp)
{
    return pickSourceWithMean(fp, profile_.depDistMean);
}

ArchReg
TraceGenerator::pickSourceWithMean(bool fp, double mean_in)
{
    std::vector<ArchReg> &ring = fp ? recentFpDests_ : recentIntDests_;
    if (ring.empty()) {
        // Cold start: any committed-long-ago register.
        return static_cast<ArchReg>(
            fp ? kNumIntArchRegs + 1 + rng_.below(kNumFpArchRegs - 1)
               : 1 + rng_.below(kNumIntArchRegs - 1));
    }
    // Dependence distance ~ 1 + geometric.
    double mean = std::max(1.0, mean_in);
    std::uint64_t d = 1 + rng_.geometric(1.0 / mean, 8 * ring.size());
    if (d > ring.size()) {
        // Producer far in the past (already committed): model as the
        // oldest tracked producer, which is long since ready.
        d = ring.size();
    }
    std::size_t pos = fp ? fpRingPos_ : intRingPos_;
    // ring is circular with pos = next write slot = oldest entry;
    // pos < size and 1 <= d <= size, so one wrap at most.
    std::size_t idx = pos + ring.size() - d;
    if (idx >= ring.size())
        idx -= ring.size();
    return ring[idx];
}

ArchReg
TraceGenerator::pickDest(bool fp)
{
    ArchReg r;
    if (fp) {
        r = static_cast<ArchReg>(rrFp_);
        rrFp_ = rrFp_ + 1;
        if (rrFp_ >= kNumArchRegs)
            rrFp_ = kNumIntArchRegs + 1;
    } else {
        r = static_cast<ArchReg>(rrInt_);
        rrInt_ = rrInt_ + 1;
        if (rrInt_ >= kNumIntArchRegs)
            rrInt_ = 1;
    }
    std::vector<ArchReg> &ring = fp ? recentFpDests_ : recentIntDests_;
    std::size_t &pos = fp ? fpRingPos_ : intRingPos_;
    if (ring.size() < kDestRing) {
        ring.push_back(r);
    } else {
        ring[pos] = r;
        pos = (pos + 1) % kDestRing;
    }
    return r;
}

ArchReg
TraceGenerator::pickAluAddrSource()
{
    if (recentIntAluDests_.empty())
        return static_cast<ArchReg>(0);   // zero register: ready
    // Very short dependence distance: address arithmetic just ahead
    // of the access.
    std::uint64_t d =
        1 + rng_.geometric(0.5, recentIntAluDests_.size() - 1);
    if (d > recentIntAluDests_.size())
        d = recentIntAluDests_.size();
    std::size_t idx = intAluRingPos_ + recentIntAluDests_.size() - d;
    if (idx >= recentIntAluDests_.size())
        idx -= recentIntAluDests_.size();
    return recentIntAluDests_[idx];
}

MicroOp
TraceGenerator::next()
{
    PcState &state = staticAt(pc_);
    const StaticInst &si = state.si;

    MicroOp op;
    op.seq = nextSeq_++;
    op.pc = pc_;
    op.op = si.cls;

    switch (si.cls) {
      case OpClass::Load: {
        switch (si.role) {
          case LoadRole::ReloadStore: {
            // Stable producer-consumer pair: the load re-reads the
            // latest address written by its partner store PC (bound on
            // first execution) — the spill/reload and struct-field
            // pattern the store-load pair predictor learns.
            if (!state.hasPartner && lastStorePc_ != 0) {
                state.partner = lastStorePc_;
                state.hasPartner = true;
            }
            Addr a = 0;
            bool reuse = false;
            if (state.hasPartner && rng_.chance(0.85)) {
                const PcState *store = program_.find(state.partner);
                if (store && store->hasLastAddr) {
                    a = store->lastAddr;
                    reuse = true;
                }
            }
            op.addr = reuse ? a
                            : addrs_.fromRegion(si.region, si.streamId, op.pc);
            break;
          }
          case LoadRole::RepeatLoad: {
            // Stable same-address load pair: re-read the latest address
            // of a partner load PC (the pattern the load-load ordering
            // rule polices). Binding to a fixed partner keeps the pair
            // predictor's store sets from merging transitively.
            if (!state.hasPartner && lastLoadPc_ != 0 &&
                lastLoadPc_ != op.pc) {
                state.partner = lastLoadPc_;
                state.hasPartner = true;
            }
            Addr a = 0;
            bool reuse = false;
            if (state.hasPartner && rng_.chance(0.75)) {
                const PcState *load = program_.find(state.partner);
                if (load && load->hasLastAddr) {
                    a = load->lastAddr;
                    reuse = true;
                }
            }
            op.addr = reuse ? a
                            : addrs_.fromRegion(si.region, si.streamId, op.pc);
            break;
          }
          case LoadRole::Pure:
            // Mostly independent; rare, unstable aliasing with recent
            // stores (untrainable coincidences — these exercise the
            // predictors' misprediction paths).
            op.addr =
                rng_.chance(profile_.loadAliasStoreProb * 0.01)
                    ? addrs_.recentStoreAddr(si.region, si.streamId, op.pc)
                    : addrs_.fromRegion(si.region, si.streamId, op.pc);
            break;
        }
        addrs_.noteLoad(op.addr);
        state.lastAddr = op.addr;
        state.hasLastAddr = true;
        lastLoadPc_ = op.pc;
        // Address base: an in-flight producer (dependent chain) or a
        // long-ready induction register (modeled by the zero register).
        // Chained addresses bind tightly (single chain, not a tree).
        op.src1 = rng_.chance(profile_.addrChainProb)
                      ? pickSourceWithMean(false, 2.0)
                      : pickAluAddrSource();
        op.dest = pickDest(si.fpDest);
        break;
      }
      case OpClass::Store: {
        op.addr = addrs_.fromRegion(si.region, si.streamId, op.pc);
        addrs_.noteStore(op.addr);
        state.lastAddr = op.addr;
        state.hasLastAddr = true;
        lastStorePc_ = op.pc;
        op.src1 = rng_.chance(profile_.addrChainProb)
                      ? pickSourceWithMean(false, 2.0)
                      : pickAluAddrSource();
        op.src2 = pickSource(rng_.chance(profile_.fpFrac)); // data
        break;
      }
      case OpClass::BranchCond: {
        op.src1 = pickSource(false);   // condition register
        BranchOutcome out = branches_.resolve(pc_);
        op.taken = out.taken;
        op.target = out.target;
        break;
      }
      case OpClass::IntAlu:
      case OpClass::IntMult:
      case OpClass::FpAlu:
      case OpClass::FpMult:
      case OpClass::FpDiv: {
        bool fp = isFpOp(si.cls);
        op.src1 = pickSource(fp);
        if (rng_.chance(profile_.twoSrcProb))
            op.src2 = pickSource(fp);
        op.dest = pickDest(fp);
        if (si.cls == OpClass::IntAlu) {
            if (recentIntAluDests_.size() < 16) {
                recentIntAluDests_.push_back(op.dest);
            } else {
                recentIntAluDests_[intAluRingPos_] = op.dest;
                intAluRingPos_ = (intAluRingPos_ + 1) % 16;
            }
        }
        break;
      }
    }

    // Advance the program counter through the code footprint.
    if (op.isBranch() && op.taken) {
        pc_ = op.target;
    } else {
        pc_ += 4;
        if (pc_ >= branches_.codeBase() + branches_.codeBytes())
            pc_ = branches_.codeBase();
    }
    return op;
}

// ------------------------------------------------ checkpointing -----

namespace {

void
saveRing(SerialWriter &w, const std::vector<ArchReg> &ring,
         std::size_t pos)
{
    w.u64(ring.size());
    for (ArchReg reg : ring)
        w.u8(reg);
    w.u64(pos);
}

void
loadRing(SerialReader &r, std::vector<ArchReg> &ring, std::size_t &pos,
         std::size_t capacity)
{
    ring.clear();
    std::uint64_t n = r.u64();
    if (n > capacity)
        throw SerialError("destination ring overflow");
    for (std::uint64_t i = 0; i < n; ++i)
        ring.push_back(r.u8());
    pos = static_cast<std::size_t>(r.u64());
    if (pos >= capacity)
        throw SerialError("destination ring position out of range");
}

} // namespace

bool
TraceGenerator::fieldApplies(const StaticInst &si, Field f)
{
    switch (f) {
      case Field::StoreAddr:
        return si.cls == OpClass::Store;
      case Field::LoadAddr:
        return si.cls == OpClass::Load;
      case Field::ReloadPartner:
        return si.cls == OpClass::Load && si.role == LoadRole::ReloadStore;
      case Field::RepeatPartner:
        return si.cls == OpClass::Load && si.role == LoadRole::RepeatLoad;
    }
    return false;
}

bool
TraceGenerator::isPartnerField(Field f)
{
    return f == Field::ReloadPartner || f == Field::RepeatPartner;
}

void
TraceGenerator::saveField(SerialWriter &w, Field f) const
{
    const bool partner = isPartnerField(f);
    auto holds = [&](const PcState &s) {
        return fieldApplies(s.si, f) &&
               (partner ? s.hasPartner : s.hasLastAddr);
    };
    std::uint64_t n = 0;
    program_.forEach([&](Pc, const PcState &s) { n += holds(s); });
    w.u64(n);
    program_.forEach([&](Pc pc, const PcState &s) {
        if (holds(s)) {
            w.u64(pc);
            w.u64(partner ? s.partner : s.lastAddr);
        }
    });
}

void
TraceGenerator::loadField(SerialReader &r, Field f)
{
    const bool partner = isPartnerField(f);
    std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        Pc pc = r.u64();
        std::uint64_t value = r.u64();
        PcState *s = program_.inRegion(pc) ? program_.find(pc) : nullptr;
        if (!s || !fieldApplies(s->si, f))
            throw SerialError("per-PC generator state for a PC that "
                              "is not a matching static instruction");
        if (partner) {
            if (!program_.inRegion(value))
                throw SerialError("load partner outside the code region");
            s->partner = value;
            s->hasPartner = true;
        } else {
            s->lastAddr = value;
            s->hasLastAddr = true;
        }
    }
}

void
TraceGenerator::saveState(SerialWriter &w) const
{
    w.u64(rng_.state());
    addrs_.saveState(w);
    branches_.saveState(w);

    w.u64(program_.size());
    program_.forEach([&](Pc pc, const PcState &s) {
        w.u64(pc);
        w.u8(static_cast<std::uint8_t>(s.si.cls));
        w.u8(static_cast<std::uint8_t>(s.si.region));
        w.u32(s.si.streamId);
        w.u8(static_cast<std::uint8_t>(s.si.role));
        w.b(s.si.fpDest);
    });
    for (std::uint64_t c : classAssigned_)
        w.u64(c);
    for (std::uint64_t c : roleAssigned_)
        w.u64(c);
    for (std::uint64_t c : regionAssigned_)
        w.u64(c);
    w.u32(streamRr_);

    saveField(w, Field::StoreAddr);
    saveField(w, Field::ReloadPartner);
    w.u64(lastStorePc_);
    saveField(w, Field::LoadAddr);
    saveField(w, Field::RepeatPartner);
    w.u64(lastLoadPc_);

    w.u64(nextSeq_);
    w.u64(pc_);

    saveRing(w, recentIntDests_, intRingPos_);
    saveRing(w, recentFpDests_, fpRingPos_);
    saveRing(w, recentIntAluDests_, intAluRingPos_);
    w.u32(rrInt_);
    w.u32(rrFp_);
}

void
TraceGenerator::loadState(SerialReader &r)
{
    rng_.setState(r.u64());
    addrs_.loadState(r);
    branches_.loadState(r);

    program_.clear();
    std::uint64_t statics = r.u64();
    for (std::uint64_t i = 0; i < statics; ++i) {
        Pc pc = r.u64();
        StaticInst si{};
        std::uint8_t cls = r.u8();
        if (cls >= kNumOpClasses)
            throw SerialError("static instruction class out of range");
        si.cls = static_cast<OpClass>(cls);
        std::uint8_t region = r.u8();
        if (region > static_cast<std::uint8_t>(MemRegion::Chase))
            throw SerialError("static memory region out of range");
        si.region = static_cast<MemRegion>(region);
        si.streamId = r.u32();
        std::uint8_t role = r.u8();
        if (role > static_cast<std::uint8_t>(LoadRole::RepeatLoad))
            throw SerialError("static load role out of range");
        si.role = static_cast<LoadRole>(role);
        si.fpDest = r.b();
        if (!program_.inRegion(pc))
            throw SerialError("static instruction outside the code region");
        if (program_.find(pc))
            throw SerialError("duplicate static instruction");
        PcState state;
        state.si = si;
        program_.insert(pc, state);
    }
    for (std::uint64_t &c : classAssigned_)
        c = r.u64();
    for (std::uint64_t &c : roleAssigned_)
        c = r.u64();
    for (std::uint64_t &c : regionAssigned_)
        c = r.u64();
    streamRr_ = r.u32();

    loadField(r, Field::StoreAddr);
    loadField(r, Field::ReloadPartner);
    lastStorePc_ = r.u64();
    loadField(r, Field::LoadAddr);
    loadField(r, Field::RepeatPartner);
    lastLoadPc_ = r.u64();

    nextSeq_ = r.u64();
    pc_ = r.u64();
    // pc_ and the last PCs (0 = none yet) index the static program.
    if (!program_.inRegion(pc_) ||
        (lastStorePc_ != 0 && !program_.inRegion(lastStorePc_)) ||
        (lastLoadPc_ != 0 && !program_.inRegion(lastLoadPc_)))
        throw SerialError("generator PC outside the code region");

    loadRing(r, recentIntDests_, intRingPos_, kDestRing);
    loadRing(r, recentFpDests_, fpRingPos_, kDestRing);
    loadRing(r, recentIntAluDests_, intAluRingPos_, 16);
    rrInt_ = r.u32();
    rrFp_ = r.u32();
}

} // namespace lsqscale
