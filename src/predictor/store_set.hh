/**
 * @file
 * Store-set predictor with the paper's store-load pair extension.
 *
 * Structures follow Chrysos & Emer (ISCA'98) and Section 2.1 of the
 * paper, with the two predictors sharing physical tables (the paper's
 * "low cost implementation", Section 2.1.2):
 *
 *  - SSIT (Store Set ID Table, 4K): indexed by instruction PC, maps a
 *    load or store to its store-set identifier (SSID).
 *  - LFST (Last Fetched Store Table, 128): indexed by SSID. Each entry
 *    holds, per the paper:
 *      * a *valid bit* + last-fetched-store tag — the store-set view,
 *        set at store fetch and cleared at store issue; a predicted-
 *        dependent load waits to issue until the bit clears;
 *      * a *multi-bit counter* (3 bits) — the pair-predictor view,
 *        incremented at store fetch and decremented at store commit
 *        (and rolled back on store squash); a load with a non-zero
 *        counter is predicted to match an in-flight store and must
 *        search the store queue.
 *
 * Training: violations train both views (classic store-set merge);
 * observed forwarding matches additionally train the pair view —
 * the pair predictor tracks *all* matching store-load pairs, not only
 * violating ones (Figure 2 of the paper).
 *
 * The *aggressive* oracle of Figures 6/7 — "an alias-free version of
 * our store-load pair predictor" — is this same class with
 * exact (unaliased, unbounded) tables, selected by a flag.
 */

#ifndef LSQSCALE_PREDICTOR_STORE_SET_HH
#define LSQSCALE_PREDICTOR_STORE_SET_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/sat_counter.hh"
#include "common/types.hh"

namespace lsqscale {

/** SSID value meaning "no store set". */
inline constexpr std::uint16_t kNoSsid = 0xffff;

/** Store-set predictor configuration. */
struct StoreSetParams
{
    unsigned ssitEntries = 4096;
    unsigned lfstEntries = 128;
    unsigned counterBits = 3;
    /**
     * Cyclic clearing (Chrysos/Emer): flush the tables every this many
     * predictor accesses so stale store sets age out. Re-learning after
     * each flush is what makes the alias-free "aggressive" oracle pay
     * extra squashes (no constructive interference). 0 disables.
     */
    std::uint64_t clearInterval = 131072;
    /**
     * Alias-free mode: SSIT becomes an exact map keyed by full PC and
     * every PC gets a private SSID (unbounded LFST). Models the
     * paper's "aggressive predictor".
     */
    bool aliasFree = false;
};

/** Fetch-time prediction handed to a load. */
struct LoadPrediction
{
    std::uint16_t ssid = kNoSsid;
    /**
     * Store-set view: sequence number of the last fetched store of the
     * set that has not yet issued (the load should wait for it), or
     * kNoSeq.
     */
    SeqNum waitForStore = kNoSeq;
    /**
     * Pair-predictor view: true if the LFST counter is non-zero, i.e.
     * some store of the set is in flight and the load must search the
     * store queue.
     */
    bool mustSearchStoreQueue = false;

    bool hasSet() const { return ssid != kNoSsid; }
};

/** Fetch-time tag handed to a store (kept in its ROB entry). */
struct StorePrediction
{
    std::uint16_t ssid = kNoSsid;
    /**
     * Store-store serialization (Chrysos/Emer): the previous store of
     * the set, which this store must wait for before issuing, or
     * kNoSeq. This is what makes "wait for the set's last fetched
     * store" a sound rule for loads.
     */
    SeqNum waitForStore = kNoSeq;

    bool hasSet() const { return ssid != kNoSsid; }
};

/** The combined store-set / store-load pair predictor. */
class StoreSetPredictor
{
  public:
    explicit StoreSetPredictor(
        const StoreSetParams &params = StoreSetParams());

    // ------------------------------------------------ pipeline hooks --
    /** A load is fetched: read SSIT and LFST. */
    LoadPrediction loadFetch(Pc loadPc);

    /**
     * A store is fetched: set the valid bit / last-store tag and bump
     * the in-flight counter of its set (if it has one).
     */
    StorePrediction storeFetch(Pc storePc, SeqNum storeSeq);

    /**
     * The store issues: clear the valid bit if this store is still the
     * set's last-fetched store (store-set view only).
     */
    void storeIssued(const StorePrediction &tag, SeqNum storeSeq);

    /** The store commits: decrement the in-flight counter. */
    void storeCommitted(const StorePrediction &tag);

    /**
     * The store is squashed: roll the counter back, and drop the valid
     * bit if this store was the set's last-fetched store.
     */
    void storeSquashed(const StorePrediction &tag, SeqNum storeSeq);

    /**
     * Re-evaluate the store-set wait condition at load issue time: the
     * set's valid bit may have cleared since fetch.
     */
    bool storeStillPending(std::uint16_t ssid, SeqNum waitForStore) const;

    /** Pair-predictor view at issue time: is the counter non-zero? */
    bool counterNonZero(std::uint16_t ssid) const;

    // ---------------------------------------------------- training ----
    /**
     * A matching (store PC, load PC) pair was observed — either a
     * store-load order violation or a successful forwarding match.
     * Applies the Chrysos/Emer merge rule.
     */
    void trainPair(Pc storePc, Pc loadPc);

    /** Flush SSIT and LFST (cyclic clearing). */
    void clearTables();

    // ------------------------------------------------------- stats ----
    std::uint64_t pairsTrained() const { return pairsTrained_; }
    std::uint64_t tableClears() const { return tableClears_; }

    // -------------------------------------------- fault injection ----
    /**
     * Deterministically scramble the prediction tables (SSID
     * reassignments and counter perturbations derived from @p seed).
     * The predictor is a pure performance structure, so this is a
     * SILENT fault by design: timing/search counts shift, but no
     * invariant breaks and no checker fires — the taxonomy's example
     * of corruption that containment tooling cannot see
     * (docs/ROBUSTNESS.md).
     */
    void injectStateCorruption(std::uint64_t seed);

  private:
    struct LfstEntry
    {
        bool valid = false;        ///< store-set view
        SeqNum lastStore = kNoSeq; ///< tag for the valid bit
        SatCounter counter;        ///< pair-predictor view

        LfstEntry() : counter(3, 0) {}
        explicit LfstEntry(unsigned bits) : counter(bits, 0) {}
    };

    unsigned ssitIndex(Pc pc) const;
    std::uint16_t ssitLookup(Pc pc) const;
    void ssitAssign(Pc pc, std::uint16_t ssid);
    LfstEntry *lfst(std::uint16_t ssid);
    const LfstEntry *lfst(std::uint16_t ssid) const;
    std::uint16_t allocateSsid(Pc pc);

    StoreSetParams params_;

    // Bounded (realistic) tables.
    std::vector<std::uint16_t> ssit_;
    std::vector<LfstEntry> lfstTable_;

    // Exact (alias-free) tables for the aggressive oracle.
    std::unordered_map<Pc, std::uint16_t> exactSsit_;
    std::unordered_map<std::uint16_t, LfstEntry> exactLfst_;
    std::uint16_t nextExactSsid_ = 0;

    void countAccess();
    std::uint64_t accesses_ = 0;
    std::uint64_t pairsTrained_ = 0;
    std::uint64_t tableClears_ = 0;
};

} // namespace lsqscale

#endif // LSQSCALE_PREDICTOR_STORE_SET_HH
