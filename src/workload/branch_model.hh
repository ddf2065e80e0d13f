/**
 * @file
 * Synthetic control-flow model.
 *
 * The generator walks a program counter through a fixed code footprint;
 * when it emits a branch, the branch's *static* behaviour is a
 * deterministic function of its address, so revisiting the same code
 * address replays the same static branch and the real branch predictor
 * in src/predictor can learn it. Three static behaviours exist:
 *
 *  - loop back-edges: taken (period-1) out of every period executions
 *    (PAg-friendly; the dominant SPECfp pattern);
 *  - easy branches: heavily biased one way (GAg/PAg both learn them);
 *  - hard branches: i.i.d. with a mild bias (the SPECint tax).
 */

#ifndef LSQSCALE_WORKLOAD_BRANCH_MODEL_HH
#define LSQSCALE_WORKLOAD_BRANCH_MODEL_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "workload/benchmark_profile.hh"
#include "workload/pc_table.hh"

namespace lsqscale {

/** Resolved outcome of one dynamic branch. */
struct BranchOutcome
{
    bool taken;
    Pc target;
};

/** Per-benchmark branch behaviour generator. */
class BranchModel
{
  public:
    BranchModel(const BenchmarkProfile &profile, Rng rng);

    /**
     * Resolve the dynamic branch at @p pc.
     *
     * State (loop counters) advances, so this must be called exactly
     * once per *generated* branch — replayed MicroOps carry their
     * recorded outcome and never re-query the model.
     */
    BranchOutcome resolve(Pc pc);

    /** Code region: [codeBase, codeBase + codeBytes). */
    Pc codeBase() const { return codeBase_; }
    Addr codeBytes() const { return codeBytes_; }

    /** Serialize mutable state (checkpointing, docs/SAMPLING.md). */
    void saveState(SerialWriter &w) const;
    /** Restore state written by saveState. */
    void loadState(SerialReader &r);

  private:
    enum class Kind : std::uint8_t { Loop, Easy, Hard };

    struct StaticBranch
    {
        Kind kind;
        double takenBias;       ///< for Easy/Hard
        std::uint32_t period;   ///< for Loop
        std::uint32_t count;    ///< loop progress
        Pc target;
    };

    StaticBranch &lookup(Pc pc);

    const BenchmarkProfile &profile_;
    Rng rng_;
    Pc codeBase_;
    Addr codeBytes_;
    PcTable<StaticBranch> branches_;
};

} // namespace lsqscale

#endif // LSQSCALE_WORKLOAD_BRANCH_MODEL_HH
