/**
 * @file
 * Synthetic data-address generation.
 *
 * Each benchmark's data accesses mix three region generators whose
 * weights and footprints come from the BenchmarkProfile:
 *
 *  - a stack region: a small, drifting window with very high locality;
 *  - strided array streams: numStreams concurrent sequential walks
 *    over arrays totaling strideFootprintKb (classic SPECfp loops);
 *  - a pointer-chase region: uniformly random references over
 *    chaseFootprintKb (mcf/art-style dependent misses).
 *
 * Which region (and which stream) a *static* load or store uses is
 * decided by the TraceGenerator per PC, so loop bodies replay stable
 * access patterns; this class provides the dynamic address draws plus
 * the recent-store/recent-load rings used to synthesize address reuse
 * (store→load forwarding pairs and same-address load pairs).
 */

#ifndef LSQSCALE_WORKLOAD_ADDRESS_STREAM_HH
#define LSQSCALE_WORKLOAD_ADDRESS_STREAM_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "workload/benchmark_profile.hh"

namespace lsqscale {

/** Simulated address-space layout (flat physical). */
inline constexpr Addr kCodeBase = 0x0000'0000'0040'0000ULL;
inline constexpr Addr kHeapBase = 0x0000'1000'0000'0000ULL;
inline constexpr Addr kChaseBase = 0x0000'2000'0000'0000ULL;
inline constexpr Addr kStackBase = 0x0000'7000'0000'0000ULL;

/** Static data-region classes assigned to memory PCs. */
enum class MemRegion : std::uint8_t { Stack, Stride, Chase };

/** Per-benchmark data-address generator. Deterministic given its Rng. */
class AddressStream
{
  public:
    AddressStream(const BenchmarkProfile &profile, Rng rng);

    /**
     * Fresh address from @p region for the static instruction at
     * @p pc (stream @p streamId for Stride; fixed frame slot derived
     * from @p pc for Stack).
     */
    Addr fromRegion(MemRegion region, unsigned streamId, Pc pc);

    /** A recent store's address, or a fresh one if none is available. */
    Addr recentStoreAddr(MemRegion fallback, unsigned streamId, Pc pc);

    /** A recent load's address, or a fresh one if none is available. */
    Addr recentLoadAddr(MemRegion fallback, unsigned streamId, Pc pc);

    /** Record addresses into the reuse rings. */
    void noteLoad(Addr a);
    void noteStore(Addr a);

    unsigned numStreams() const
    {
        return static_cast<unsigned>(streams_.size());
    }

    /** One array stream's address range. */
    struct StreamExtent
    {
        Addr base;
        Addr size;
    };

    /**
     * The deterministic region layout for @p profile, used by the
     * simulator to pre-warm caches to steady state (the paper
     * fast-forwards 3B instructions before measuring).
     */
    static std::vector<StreamExtent>
    streamLayout(const BenchmarkProfile &profile);

    /** Size of the hot pointer-chase subset for @p profile. */
    static Addr chaseHotBytes(const BenchmarkProfile &profile);

    /** Serialize mutable state (checkpointing, docs/SAMPLING.md). */
    void saveState(SerialWriter &w) const;
    /** Restore state written by saveState. */
    void loadState(SerialReader &r);

  private:
    Addr stackAddr(Pc pc);
    Addr strideAddr(unsigned streamId);
    Addr chaseAddr();

    const BenchmarkProfile &profile_;
    Rng rng_;

    /** One sequential walker per array stream. */
    struct Stream
    {
        Addr base;
        Addr size;
        Addr cursor;
        Addr stride;
    };
    std::vector<Stream> streams_;

    Addr stackWindow_ = kStackBase;

    /** Recent store/load addresses for alias injection. */
    std::vector<Addr> recentStores_;
    std::vector<Addr> recentLoads_;
    std::size_t storeRingPos_ = 0;
    std::size_t loadRingPos_ = 0;

    static constexpr std::size_t kRingSize = 16;
};

} // namespace lsqscale

#endif // LSQSCALE_WORKLOAD_ADDRESS_STREAM_HH
