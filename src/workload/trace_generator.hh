/**
 * @file
 * Deterministic synthetic instruction-trace generator.
 *
 * The generator executes a *synthetic static program*: every static
 * property of the instruction at a given PC — its operation class, the
 * data region and stream a memory PC accesses, whether a static load
 * is a "reloader" (reads addresses recent stores wrote, creating
 * store→load pairs the pair predictor can learn) or a "repeater"
 * (re-reads recent load addresses, creating the same-address load
 * pairs the load-load ordering rule polices), and each branch's
 * behaviour — is a pure function of the PC. Control flow therefore
 * forms real loops whose bodies replay identically, which is what
 * makes the branch predictor, I-cache, and store-set structures behave
 * as they would on real code.
 *
 * Dynamic state (register-dependence distances, addresses along the
 * streams, branch outcomes) evolves per execution, seeded once, so the
 * whole trace is reproducible from (profile, seed).
 */

#ifndef LSQSCALE_WORKLOAD_TRACE_GENERATOR_HH
#define LSQSCALE_WORKLOAD_TRACE_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "workload/address_stream.hh"
#include "workload/benchmark_profile.hh"
#include "workload/branch_model.hh"
#include "workload/inst_source.hh"
#include "workload/micro_op.hh"
#include "workload/pc_table.hh"

namespace lsqscale {

/** Generates the committed-path dynamic instruction stream. */
class TraceGenerator : public InstSource
{
  public:
    TraceGenerator(const BenchmarkProfile &profile, std::uint64_t seed);

    /** Generate the next dynamic instruction on the committed path. */
    MicroOp next() override;

    const BenchmarkProfile &profile() const { return profile_; }

    /** Checkpoint tag 'SYNT' (docs/SAMPLING.md). */
    std::uint32_t checkpointKind() const override { return 0x544e5953u; }
    void saveState(SerialWriter &w) const override;
    void loadState(SerialReader &r) override;

  private:
    /** Memory-reuse role of a static load. */
    enum class LoadRole : std::uint8_t {
        Pure,        ///< plain region/stream access
        ReloadStore, ///< tends to re-read a recent store's address
        RepeatLoad,  ///< tends to re-read a recent load's address
    };

    /** Static (per-PC) instruction attributes. */
    struct StaticInst
    {
        OpClass cls;
        MemRegion region;    ///< memory ops
        unsigned streamId;   ///< Stride region
        LoadRole role;       ///< loads
        bool fpDest;         ///< loads: FP destination
    };

    /** Everything the generator keeps per static instruction. */
    struct PcState
    {
        StaticInst si;
        /** lastAddr is set: this memory PC has executed. */
        bool hasLastAddr = false;
        /** partner is bound: a ReloadStore or RepeatLoad load ran. */
        bool hasPartner = false;
        /** Latest address this load read or this store wrote. */
        Addr lastAddr = 0;
        /** ReloadStore: its store PC; RepeatLoad: its load PC. */
        Pc partner = 0;
    };

    PcState &staticAt(Pc pc);

    /** A per-PC checkpoint section after the statics (saveState). */
    enum class Field : std::uint8_t {
        StoreAddr,     ///< a store's lastAddr
        ReloadPartner, ///< a reloader's partner store PC
        LoadAddr,      ///< a load's lastAddr
        RepeatPartner, ///< a repeater's partner load PC
    };

    /** True if a static with attributes @p si can carry field @p f. */
    static bool fieldApplies(const StaticInst &si, Field f);
    static bool isPartnerField(Field f);
    /** Write field @p f as a count and PC-sorted (pc, value) pairs. */
    void saveField(SerialWriter &w, Field f) const;
    /** Inverse of saveField; the statics must be loaded already. */
    void loadField(SerialReader &r, Field f);

    /**
     * Largest-deficit selector: pick the category whose assigned share
     * (over statics created so far) lags its target most. Creation
     * order follows first execution, so hot code gets a stratified
     * sample of categories and the dynamic instruction mix tracks the
     * profile much more tightly than an i.i.d. per-PC draw would.
     */
    static std::size_t pickByDeficit(const double *targets,
                                     std::uint64_t *assigned,
                                     std::size_t n);

    /** Draw a register-dependence source from the recent producers. */
    ArchReg pickSource(bool fp);

    /**
     * Like pickSource but with an explicit mean dependence distance.
     * Memory-op address registers use a short distance (~2 producers
     * back): pointer chains are single chains, not parallel trees.
     */
    ArchReg pickSourceWithMean(bool fp, double mean);

    /** Allocate the next destination register of the given class. */
    ArchReg pickDest(bool fp);

    /** Un-chained address source: a recent integer-ALU producer. */
    ArchReg pickAluAddrSource();

    const BenchmarkProfile &profile_;
    std::uint64_t seed_;
    Rng rng_;
    AddressStream addrs_;
    BranchModel branches_;

    /**
     * The static program plus each memory PC's reuse state: the last
     * address of every static load and store, and the partner each
     * reloader (a store PC) or repeater (a load PC) binds to on first
     * execution. A checkpoint writes it as five PC-sorted sections:
     * the statics, store addresses, reload partners, load addresses
     * and repeat partners (saveState).
     */
    PcTable<PcState> program_;

    /** Stratification state for class/role/region assignment. */
    std::uint64_t classAssigned_[4] = {0, 0, 0, 0};
    std::uint64_t roleAssigned_[3] = {0, 0, 0};
    std::uint64_t regionAssigned_[3] = {0, 0, 0};
    unsigned streamRr_ = 0;

    Pc lastStorePc_ = 0;
    Pc lastLoadPc_ = 0;

    SeqNum nextSeq_ = 0;
    Pc pc_;

    /** Ring of recent destination registers, per class. */
    std::vector<ArchReg> recentIntDests_;
    std::vector<ArchReg> recentFpDests_;
    std::size_t intRingPos_ = 0;
    std::size_t fpRingPos_ = 0;

    /**
     * Ring of recent *short-latency* integer producers (ALU results,
     * not loads). Un-chained memory addresses source from here: real
     * address arithmetic is ready shortly after dispatch, which makes
     * loads issue roughly in program order.
     */
    std::vector<ArchReg> recentIntAluDests_;
    std::size_t intAluRingPos_ = 0;

    unsigned rrInt_ = 1;                  // skip r0 (zero register)
    unsigned rrFp_ = kNumIntArchRegs + 1; // skip f0

    static constexpr std::size_t kDestRing = 64;
};

} // namespace lsqscale

#endif // LSQSCALE_WORKLOAD_TRACE_GENERATOR_HH
