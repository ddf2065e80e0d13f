#include "memory/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace lsqscale {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheParams &params) : params_(params)
{
    LSQ_ASSERT(params_.assoc >= 1, "%s: assoc", params_.name.c_str());
    LSQ_ASSERT(isPow2(params_.blockBytes), "%s: block size not pow2",
               params_.name.c_str());
    numSets_ = params_.sizeBytes / (params_.assoc * params_.blockBytes);
    LSQ_ASSERT(numSets_ >= 1 && isPow2(numSets_),
               "%s: sets=%llu not a power of two", params_.name.c_str(),
               static_cast<unsigned long long>(numSets_));
    blockShift_ = static_cast<unsigned>(std::countr_zero(
        static_cast<std::uint64_t>(params_.blockBytes)));
    setShift_ = static_cast<unsigned>(std::countr_zero(numSets_));
    LSQ_ASSERT(blockShift_ + setShift_ > 0,
               "%s: one set of one-byte blocks leaves no room for the "
               "empty-way tag", params_.name.c_str());
    tags_.assign(numSets_ * params_.assoc, kEmpty);
    lru_.assign(numSets_ * params_.assoc, 0);
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return blockOf(addr) & (numSets_ - 1);
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return blockOf(addr) >> setShift_;
}

bool
Cache::access(Addr addr)
{
    std::uint64_t base = setIndex(addr) * params_.assoc;
    std::uint64_t tag = tagOf(addr);
    std::uint64_t *tags = &tags_[base];
    std::uint64_t *lru = &lru_[base];

    ++stamp_;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (tags[w] == tag) {
            lru[w] = stamp_;
            ++hits_;
            return true;
        }
    }

    // Miss: fill into the LRU way.
    unsigned victim = 0;
    for (unsigned w = 1; w < params_.assoc; ++w) {
        if (tags[w] == kEmpty) {
            victim = w;
            break;
        }
        if (lru[w] < lru[victim])
            victim = w;
    }
    tags[victim] = tag;
    lru[victim] = stamp_;
    ++misses_;
    return false;
}

bool
Cache::tryPort(Cycle now)
{
    if (portCycle_ != now) {
        portCycle_ = now;
        portsUsed_ = 0;
    }
    if (portsUsed_ >= params_.ports)
        return false;
    ++portsUsed_;
    return true;
}

unsigned
Cache::freePorts(Cycle now) const
{
    if (portCycle_ != now)
        return params_.ports;
    return portsUsed_ >= params_.ports ? 0 : params_.ports - portsUsed_;
}

void
Cache::exportStats(StatSet &stats) const
{
    stats.counter(params_.name + ".hits").inc(hits_);
    stats.counter(params_.name + ".misses").inc(misses_);
}

// ------------------------------------------------ checkpointing -----

void
Cache::saveState(SerialWriter &w) const
{
    // Per way: tag, valid, stamp (an empty way's tag reads 0).
    w.u64(tags_.size());
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        bool valid = tags_[i] != kEmpty;
        w.u64(valid ? tags_[i] : 0);
        w.b(valid);
        w.u64(lru_[i]);
    }
    w.u64(stamp_);
    w.u64(hits_);
    w.u64(misses_);
}

void
Cache::loadState(SerialReader &r)
{
    std::uint64_t n = r.u64();
    if (n != tags_.size())
        throw SerialError(params_.name +
                          ": cache geometry mismatch "
                          "(checkpoint from a different config?)");
    // The way array is n fixed 17-byte records (saveState): check its
    // length once, then decode it in place.
    constexpr std::size_t kWayBytes = 8 + 1 + 8;
    const char *p = r.take(tags_.size() * kWayBytes);
    for (std::size_t i = 0; i < tags_.size(); ++i, p += kWayBytes) {
        std::uint64_t tag = loadLe<std::uint64_t>(p);
        bool valid = p[8] != 0;
        if (valid && tag == kEmpty)
            throw SerialError(params_.name + ": tag out of range");
        tags_[i] = valid ? tag : kEmpty;
        lru_[i] = loadLe<std::uint64_t>(p + 9);
    }
    stamp_ = r.u64();
    hits_ = r.u64();
    misses_ = r.u64();
}

} // namespace lsqscale
