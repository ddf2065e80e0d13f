/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Everything in lsqscale that needs randomness goes through Rng so
 * traces are exactly reproducible from a 64-bit seed. The core is the
 * xorshift64* generator (Vigna, 2016): tiny state, good quality, and
 * trivially copyable — the trace generator snapshots Rng state to
 * support replay after pipeline squashes.
 */

#ifndef LSQSCALE_COMMON_RNG_HH
#define LSQSCALE_COMMON_RNG_HH

#include <cstdint>

#include "common/logging.hh"

namespace lsqscale {

/** Splittable xorshift64* pseudo-random generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state_(mix(seed))
    {}

    /**
     * splitmix64 finalizer. Seeds must pass through this: raw
     * correlated seeds (e.g. nearby PCs) otherwise produce strongly
     * structured early xorshift outputs.
     */
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        x = x ^ (x >> 31);
        return x ? x : 0x9e3779b97f4a7c15ULL;
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state_;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state_ = x;
        return x * 0x2545f4914f6cdd1dULL;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        LSQ_ASSERT(bound > 0, "Rng::below(0)");
        // Modulo bias is negligible for our bounds (<< 2^64). A
        // power-of-two bound (most footprints) masks: same value, no
        // division.
        if ((bound & (bound - 1)) == 0)
            return next() & (bound - 1);
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        LSQ_ASSERT(lo <= hi, "Rng::range lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Geometric draw: number of failures before the first success with
     * success probability p, capped so degenerate p never loops forever.
     */
    std::uint64_t
    geometric(double p, std::uint64_t cap = 1024)
    {
        if (p >= 1.0)
            return 0;
        if (p <= 0.0)
            return cap;
        // chance(p) is uniform() < p, i.e. (next() >> 11) < p * 2^53
        // (scaling by 2^53 is exact), i.e. (next() >> 11) < ceil(p *
        // 2^53): the same draws and outcome as looping on chance(p),
        // with one integer compare per draw.
        const double scaled = p * 9007199254740992.0;
        std::uint64_t threshold = static_cast<std::uint64_t>(scaled);
        if (static_cast<double>(threshold) < scaled)
            ++threshold;
        std::uint64_t k = 0;
        while (k < cap && (next() >> 11) >= threshold)
            ++k;
        return k;
    }

    /**
     * Derive an independent child generator. Used to give each address
     * stream / branch model its own sequence so adding a draw in one
     * place does not perturb every other stream.
     */
    Rng
    split()
    {
        return Rng(next() ^ 0xd1b54a32d192ed03ULL);
    }

    /** Raw state accessor, used by trace checkpointing. */
    std::uint64_t state() const { return state_; }

    /** Restore a previously captured state. */
    void setState(std::uint64_t s) { state_ = s ? s : 1; }

  private:
    std::uint64_t state_;
};

} // namespace lsqscale

#endif // LSQSCALE_COMMON_RNG_HH
