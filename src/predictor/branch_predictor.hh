/**
 * @file
 * Hybrid GAg + PAg branch predictor (Table 1 of the paper).
 *
 * GAg: a single global history register indexes a pattern history
 * table of 2-bit counters. PAg: a per-address branch history table
 * indexes a shared pattern history table. A 2-bit chooser per branch
 * address selects between them; all three tables have 4K entries.
 */

#ifndef LSQSCALE_PREDICTOR_BRANCH_PREDICTOR_HH
#define LSQSCALE_PREDICTOR_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace lsqscale {

/** Which direction predictor the core instantiates. */
enum class BranchPredictorKind : std::uint8_t {
    Hybrid,   ///< GAg + PAg with a chooser (Table 1, the default)
    GAg,      ///< global-history component alone
    PAg,      ///< per-address-history component alone
    Bimodal,  ///< classic per-PC 2-bit counters (ablation baseline)
};

/** Configuration for the branch predictors. */
struct BranchPredictorParams
{
    BranchPredictorKind kind = BranchPredictorKind::Hybrid;
    unsigned tableEntries = 4096;   ///< GAg PHT, PAg PHT, chooser
    unsigned historyBits = 12;
    unsigned bhtEntries = 4096;     ///< PAg per-address history table
};

/** GAg component: global history -> PHT. */
class GAgPredictor
{
  public:
    explicit GAgPredictor(const BranchPredictorParams &params);

    bool predict(Pc pc) const;
    void update(Pc pc, bool taken);

    void saveState(SerialWriter &w) const;
    void loadState(SerialReader &r);

  private:
    unsigned index(Pc pc) const;

    unsigned histMask_;
    unsigned tableMask_;
    unsigned history_ = 0;
    std::vector<SatCounter> pht_;
};

/** PAg component: per-address history -> shared PHT. */
class PAgPredictor
{
  public:
    explicit PAgPredictor(const BranchPredictorParams &params);

    bool predict(Pc pc) const;
    void update(Pc pc, bool taken);

    void saveState(SerialWriter &w) const;
    void loadState(SerialReader &r);

  private:
    unsigned bhtIndex(Pc pc) const;
    unsigned phtIndex(Pc pc) const;

    unsigned histMask_;
    unsigned tableMask_;
    unsigned bhtMask_;
    std::vector<unsigned> bht_;
    std::vector<SatCounter> pht_;
};

/** Bimodal component: per-PC 2-bit counters, no history. */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(const BranchPredictorParams &params);

    bool predict(Pc pc) const;
    void update(Pc pc, bool taken);

    void saveState(SerialWriter &w) const;
    void loadState(SerialReader &r);

  private:
    unsigned tableMask_;
    std::vector<SatCounter> pht_;
};

/**
 * The direction predictor the core uses: by default the hybrid
 * (chooser picks GAg or PAg per branch); `kind` selects a single
 * component for ablation studies.
 */
class HybridBranchPredictor
{
  public:
    explicit HybridBranchPredictor(
        const BranchPredictorParams &params = BranchPredictorParams());

    /** Direction prediction for the branch at @p pc. */
    bool predict(Pc pc) const;

    /**
     * Train with the resolved outcome. Updates both components and
     * moves the chooser toward whichever component was correct.
     */
    void update(Pc pc, bool taken);

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Convenience: predict, count accuracy, then train. */
    bool
    predictAndUpdate(Pc pc, bool taken)
    {
        bool pred = predict(pc);
        ++lookups_;
        if (pred != taken)
            ++mispredicts_;
        update(pc, taken);
        return pred;
    }

    /** Serialize all tables/history (checkpointing, docs/SAMPLING.md). */
    void saveState(SerialWriter &w) const;
    /** Restore state written by saveState (geometry must match). */
    void loadState(SerialReader &r);

  private:
    unsigned chooserIndex(Pc pc) const;

    BranchPredictorKind kind_;
    GAgPredictor gag_;
    PAgPredictor pag_;
    BimodalPredictor bimodal_;
    unsigned chooserMask_;
    std::vector<SatCounter> chooser_;   ///< high = prefer PAg

    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace lsqscale

#endif // LSQSCALE_PREDICTOR_BRANCH_PREDICTOR_HH
