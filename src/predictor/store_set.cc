#include "predictor/store_set.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace lsqscale {

StoreSetPredictor::StoreSetPredictor(const StoreSetParams &params)
    : params_(params)
{
    if (!params_.aliasFree) {
        LSQ_ASSERT((params_.ssitEntries & (params_.ssitEntries - 1)) == 0,
                   "SSIT entries must be a power of two");
        ssit_.assign(params_.ssitEntries, kNoSsid);
        lfstTable_.assign(params_.lfstEntries,
                          LfstEntry(params_.counterBits));
    }
}

unsigned
StoreSetPredictor::ssitIndex(Pc pc) const
{
    // Fold the word-aligned PC into the table.
    std::uint64_t x = pc >> 2;
    x ^= x >> 13;
    return static_cast<unsigned>(x) & (params_.ssitEntries - 1);
}

std::uint16_t
StoreSetPredictor::ssitLookup(Pc pc) const
{
    if (params_.aliasFree) {
        auto it = exactSsit_.find(pc);
        return it == exactSsit_.end() ? kNoSsid : it->second;
    }
    return ssit_[ssitIndex(pc)];
}

void
StoreSetPredictor::ssitAssign(Pc pc, std::uint16_t ssid)
{
    if (params_.aliasFree)
        exactSsit_[pc] = ssid;
    else
        ssit_[ssitIndex(pc)] = ssid;
}

StoreSetPredictor::LfstEntry *
StoreSetPredictor::lfst(std::uint16_t ssid)
{
    if (ssid == kNoSsid)
        return nullptr;
    if (params_.aliasFree) {
        auto it = exactLfst_.find(ssid);
        if (it == exactLfst_.end())
            it = exactLfst_.emplace(ssid,
                                    LfstEntry(params_.counterBits)).first;
        return &it->second;
    }
    return &lfstTable_[ssid % params_.lfstEntries];
}

const StoreSetPredictor::LfstEntry *
StoreSetPredictor::lfst(std::uint16_t ssid) const
{
    return const_cast<StoreSetPredictor *>(this)->lfst(ssid);
}

std::uint16_t
StoreSetPredictor::allocateSsid(Pc pc)
{
    if (params_.aliasFree) {
        std::uint16_t s = nextExactSsid_++;
        if (nextExactSsid_ == kNoSsid)
            nextExactSsid_ = 0;
        return s;
    }
    // Derive the SSID from the load's SSIT slot, as in Chrysos/Emer.
    return static_cast<std::uint16_t>(ssitIndex(pc) %
                                      params_.lfstEntries);
}

void
StoreSetPredictor::clearTables()
{
    ++tableClears_;
    if (params_.aliasFree) {
        exactSsit_.clear();
        exactLfst_.clear();
    } else {
        std::fill(ssit_.begin(), ssit_.end(), kNoSsid);
        std::fill(lfstTable_.begin(), lfstTable_.end(),
                  LfstEntry(params_.counterBits));
    }
}

void
StoreSetPredictor::injectStateCorruption(std::uint64_t seed)
{
    // Reassign a pseudo-random subset of SSIT slots to pseudo-random
    // store sets. Wrong merges cost extra SQ searches and squashes but
    // violate nothing — a silent, timing-only fault (see the header).
    Rng rng(Rng::mix(seed));
    if (params_.aliasFree) {
        for (auto &kv : exactSsit_)
            if (rng.chance(0.25))
                kv.second = static_cast<std::uint16_t>(
                    rng.below(kNoSsid));
    } else {
        for (auto &slot : ssit_)
            if (rng.chance(0.25))
                slot = static_cast<std::uint16_t>(
                    rng.below(params_.lfstEntries));
    }
    LSQ_WARN("inject: scrambled store-set tables (seed %llu)",
             static_cast<unsigned long long>(seed));
}

void
StoreSetPredictor::countAccess()
{
    if (params_.clearInterval == 0)
        return;
    if (++accesses_ >= params_.clearInterval) {
        accesses_ = 0;
        clearTables();
    }
}

LoadPrediction
StoreSetPredictor::loadFetch(Pc loadPc)
{
    countAccess();
    LoadPrediction pred;
    pred.ssid = ssitLookup(loadPc);
    if (!pred.hasSet())
        return pred;
    const LfstEntry *e = lfst(pred.ssid);
    if (e->valid)
        pred.waitForStore = e->lastStore;
    pred.mustSearchStoreQueue = !e->counter.isZero();
    return pred;
}

StorePrediction
StoreSetPredictor::storeFetch(Pc storePc, SeqNum storeSeq)
{
    countAccess();
    StorePrediction tag;
    tag.ssid = ssitLookup(storePc);
    if (!tag.hasSet())
        return tag;
    LfstEntry *e = lfst(tag.ssid);
    if (e->valid)
        tag.waitForStore = e->lastStore;
    e->valid = true;
    e->lastStore = storeSeq;
    e->counter.increment();
    return tag;
}

void
StoreSetPredictor::storeIssued(const StorePrediction &tag, SeqNum storeSeq)
{
    if (!tag.hasSet())
        return;
    LfstEntry *e = lfst(tag.ssid);
    if (e->valid && e->lastStore == storeSeq)
        e->valid = false;
}

void
StoreSetPredictor::storeCommitted(const StorePrediction &tag)
{
    if (!tag.hasSet())
        return;
    lfst(tag.ssid)->counter.decrement();
}

void
StoreSetPredictor::storeSquashed(const StorePrediction &tag,
                                 SeqNum storeSeq)
{
    if (!tag.hasSet())
        return;
    LfstEntry *e = lfst(tag.ssid);
    e->counter.decrement();
    if (e->valid && e->lastStore == storeSeq)
        e->valid = false;
}

bool
StoreSetPredictor::storeStillPending(std::uint16_t ssid,
                                     SeqNum waitForStore) const
{
    if (ssid == kNoSsid || waitForStore == kNoSeq)
        return false;
    const LfstEntry *e = lfst(ssid);
    return e->valid && e->lastStore == waitForStore;
}

bool
StoreSetPredictor::counterNonZero(std::uint16_t ssid) const
{
    if (ssid == kNoSsid)
        return false;
    return !lfst(ssid)->counter.isZero();
}

void
StoreSetPredictor::trainPair(Pc storePc, Pc loadPc)
{
    ++pairsTrained_;
    std::uint16_t sSet = ssitLookup(storePc);
    std::uint16_t lSet = ssitLookup(loadPc);

    if (sSet == kNoSsid && lSet == kNoSsid) {
        std::uint16_t ssid = allocateSsid(loadPc);
        ssitAssign(storePc, ssid);
        ssitAssign(loadPc, ssid);
    } else if (sSet == kNoSsid) {
        ssitAssign(storePc, lSet);
    } else if (lSet == kNoSsid) {
        ssitAssign(loadPc, sSet);
    } else if (sSet != lSet) {
        // Merge: the numerically smaller SSID wins (Chrysos/Emer).
        std::uint16_t winner = sSet < lSet ? sSet : lSet;
        ssitAssign(storePc, winner);
        ssitAssign(loadPc, winner);
    }
}

} // namespace lsqscale
