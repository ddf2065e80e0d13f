/**
 * @file
 * Out-of-order core configuration (Table 1 of the paper).
 */

#ifndef LSQSCALE_CORE_CORE_PARAMS_HH
#define LSQSCALE_CORE_CORE_PARAMS_HH

#include "predictor/branch_predictor.hh"
#include "predictor/store_set.hh"

namespace lsqscale {

/**
 * How loads speculate around older stores with unknown addresses.
 * The paper's machine uses store-set dependence speculation; the two
 * classic baselines bracket it.
 */
enum class MemDepPolicy : std::uint8_t {
    /** Issue regardless; recover from violations (no predictor). */
    BlindSpeculation,
    /** Wait only for predicted-dependent stores (Chrysos/Emer). */
    StoreSet,
    /** Wait until every older store has a known address. */
    TotalOrder,
};

/** Pipeline widths, buffer sizes, and penalties. */
struct CoreParams
{
    unsigned fetchWidth = 8;
    unsigned dispatchWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;

    unsigned robEntries = 256;
    unsigned iqEntries = 64;

    unsigned intPhysRegs = 356;
    unsigned fpPhysRegs = 356;

    unsigned intUnits = 8;   ///< integer FUs (fully pipelined)
    unsigned fpUnits = 8;    ///< floating-point FUs (fully pipelined)

    /**
     * Front-end depth between fetch and dispatch. Together with
     * mispredictRedirect and the dispatch-to-issue cycle this yields
     * the paper's ~14-cycle branch misprediction penalty.
     */
    unsigned decodeDepth = 3;
    /** Cycles after branch resolution before fetch restarts. */
    unsigned mispredictRedirect = 10;
    /** Cycles after a memory-order violation before refetch starts. */
    unsigned squashRedirect = 10;
    /**
     * Extra recovery cycle for rolling back the pair predictor's LFST
     * counters (Section 2.1.2), charged when the pair scheme is on.
     */
    unsigned pairRollbackPenalty = 1;

    /** Load-vs-store speculation discipline (Table 1: StoreSet). */
    MemDepPolicy memDepPolicy = MemDepPolicy::StoreSet;

    BranchPredictorParams branchPredictor{};
    StoreSetParams storeSet{};
};

} // namespace lsqscale

#endif // LSQSCALE_CORE_CORE_PARAMS_HH
