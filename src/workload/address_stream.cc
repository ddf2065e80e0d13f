#include "workload/address_stream.hh"

#include <algorithm>

namespace lsqscale {

std::vector<AddressStream::StreamExtent>
AddressStream::streamLayout(const BenchmarkProfile &profile)
{
    unsigned n = std::max(1u, profile.numStreams);
    Addr total = static_cast<Addr>(profile.strideFootprintKb) * 1024;
    // Block-align stream sizes so every stream base is aligned too.
    Addr per = std::max<Addr>((total / n) & ~Addr(63), 4096);
    std::vector<StreamExtent> out;
    out.reserve(n);
    Addr base = kHeapBase;
    for (unsigned i = 0; i < n; ++i) {
        // Contiguous arrays (page-separated), as a compiler would lay
        // them out: the footprint spreads uniformly across cache sets.
        out.push_back({base, per});
        base += per + 4096;
    }
    return out;
}

Addr
AddressStream::chaseHotBytes(const BenchmarkProfile &profile)
{
    Addr bytes = static_cast<Addr>(profile.chaseFootprintKb) * 1024;
    return std::min<Addr>(std::max<Addr>(bytes / 32, 4096), 512 * 1024);
}

AddressStream::AddressStream(const BenchmarkProfile &profile, Rng rng)
    : profile_(profile), rng_(rng)
{
    for (const StreamExtent &e : streamLayout(profile)) {
        Stream s;
        s.base = e.base;
        s.size = e.size;
        s.cursor = rng_.below(e.size / 8) * 8;
        s.stride = 8;
        streams_.push_back(s);
    }
}

Addr
AddressStream::stackAddr(Pc pc)
{
    // A 4KB hot window; occasionally drift (call/return) by a frame.
    if (rng_.chance(0.02)) {
        std::int64_t delta =
            (rng_.chance(0.5) ? 1 : -1) *
            static_cast<std::int64_t>(rng_.range(64, 512));
        stackWindow_ = static_cast<Addr>(
            static_cast<std::int64_t>(stackWindow_) + delta * 8);
        // Keep the window inside a 1MB stack.
        if (stackWindow_ < kStackBase)
            stackWindow_ = kStackBase;
        if (stackWindow_ > kStackBase + (1ULL << 20))
            stackWindow_ = kStackBase + (1ULL << 20);
    }
    // Each static instruction addresses a fixed frame slot: stack
    // aliasing is PC-stable (spill/reload style), not coincidental.
    return stackWindow_ + (Rng::mix(pc) % (4096 / 8)) * 8;
}

Addr
AddressStream::strideAddr(unsigned streamId)
{
    // Generator stream ids are already below the stream count.
    Stream &s = streams_[streamId < streams_.size()
                             ? streamId
                             : streamId % streams_.size()];
    Addr a = s.base + s.cursor;
    s.cursor += s.stride;
    if (s.cursor >= s.size)
        s.cursor = 0;
    return a;
}

Addr
AddressStream::chaseAddr()
{
    Addr bytes = static_cast<Addr>(profile_.chaseFootprintKb) * 1024;
    if (rng_.chance(profile_.chaseHotProb)) {
        Addr hot = chaseHotBytes(profile_);
        return kChaseBase + rng_.below(hot / 8) * 8;
    }
    return kChaseBase + rng_.below(std::max<Addr>(bytes / 8, 1)) * 8;
}

Addr
AddressStream::fromRegion(MemRegion region, unsigned streamId, Pc pc)
{
    switch (region) {
      case MemRegion::Stack:
        return stackAddr(pc);
      case MemRegion::Stride:
        return strideAddr(streamId);
      case MemRegion::Chase:
        return chaseAddr();
    }
    return stackAddr(pc);
}

Addr
AddressStream::recentStoreAddr(MemRegion fallback, unsigned streamId,
                               Pc pc)
{
    if (recentStores_.empty())
        return fromRegion(fallback, streamId, pc);
    return recentStores_[rng_.below(recentStores_.size())];
}

Addr
AddressStream::recentLoadAddr(MemRegion fallback, unsigned streamId,
                              Pc pc)
{
    if (recentLoads_.empty())
        return fromRegion(fallback, streamId, pc);
    return recentLoads_[rng_.below(recentLoads_.size())];
}

void
AddressStream::noteLoad(Addr a)
{
    if (recentLoads_.size() < kRingSize) {
        recentLoads_.push_back(a);
    } else {
        recentLoads_[loadRingPos_] = a;
        loadRingPos_ = (loadRingPos_ + 1) % kRingSize;
    }
}

void
AddressStream::noteStore(Addr a)
{
    if (recentStores_.size() < kRingSize) {
        recentStores_.push_back(a);
    } else {
        recentStores_[storeRingPos_] = a;
        storeRingPos_ = (storeRingPos_ + 1) % kRingSize;
    }
}

// ------------------------------------------------ checkpointing -----

void
AddressStream::saveState(SerialWriter &w) const
{
    w.u64(rng_.state());
    // Stream geometry is derived from the profile at construction;
    // only the walk cursors are dynamic, but the full extent is saved
    // so loads into a mismatched profile fail loudly.
    w.u64(streams_.size());
    for (const Stream &s : streams_) {
        w.u64(s.base);
        w.u64(s.size);
        w.u64(s.cursor);
        w.u64(s.stride);
    }
    w.u64(stackWindow_);
    w.u64(recentStores_.size());
    for (Addr a : recentStores_)
        w.u64(a);
    w.u64(recentLoads_.size());
    for (Addr a : recentLoads_)
        w.u64(a);
    w.u64(storeRingPos_);
    w.u64(loadRingPos_);
}

void
AddressStream::loadState(SerialReader &r)
{
    rng_.setState(r.u64());
    std::uint64_t n = r.u64();
    if (n != streams_.size())
        throw SerialError("address stream count mismatch "
                          "(checkpoint from a different profile?)");
    for (Stream &s : streams_) {
        Addr base = r.u64();
        Addr size = r.u64();
        if (base != s.base || size != s.size)
            throw SerialError("address stream extent mismatch "
                              "(checkpoint from a different profile?)");
        s.cursor = r.u64();
        s.stride = r.u64();
    }
    stackWindow_ = r.u64();
    recentStores_.clear();
    std::uint64_t stores = r.u64();
    if (stores > kRingSize)
        throw SerialError("recent-store ring overflow");
    for (std::uint64_t i = 0; i < stores; ++i)
        recentStores_.push_back(r.u64());
    recentLoads_.clear();
    std::uint64_t loads = r.u64();
    if (loads > kRingSize)
        throw SerialError("recent-load ring overflow");
    for (std::uint64_t i = 0; i < loads; ++i)
        recentLoads_.push_back(r.u64());
    storeRingPos_ = static_cast<std::size_t>(r.u64()) % kRingSize;
    loadRingPos_ = static_cast<std::size_t>(r.u64()) % kRingSize;
}

} // namespace lsqscale
