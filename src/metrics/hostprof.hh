/**
 * @file
 * Host wall-clock phase profiler (docs/OBSERVABILITY.md).
 *
 * Answers "where did the host milliseconds go" for a run: every named
 * phase of the simulator's life — setup, checkpoint restore/save/
 * fingerprint, fast-forward, warmup, the detailed run loop, sweep-cell
 * setup, reporting — accumulates monotonic-clock nanoseconds into a
 * fixed static tree, rendered at exit as a self-time table (`lsqsim
 * --host-profile`, `tools/lsqtrace hostprof`).
 *
 * Two kinds of phase:
 *
 *  * Coarse phases are timed exactly by ScopedHostPhase (RAII; two
 *    steady_clock reads per dynamic instance). They are cheap because
 *    they are rare — entered at most a handful of times per run.
 *
 *  * The four inner stages of the run loop (fetch/rename,
 *    issue/wakeup, LSQ search+forward, commit) tick billions of times
 *    and cannot afford per-cycle clock reads. Core::tick burst-samples
 *    them instead: every 2^kSampleShift-th executed tick (every 64th;
 *    cycles that Core::run skips as quiet are not ticks) runs the
 *    profiled instance of the stage sequence, which takes lap-style
 *    clock reads at stage boundaries. Reports scale each
 *    stage's sampled share to the *exactly measured* enclosing Run
 *    phase, so the tree always accounts for 100% of Run — the ≥95%
 *    accounting criterion holds by construction and the perturbation
 *    stays well under the 2% CI bound.
 *
 * When profiling is off (the default) every instrumentation point
 * costs exactly one predictable branch: ScopedHostPhase tests one
 * relaxed atomic bool, and Core::tick's sampling mask is all-ones so
 * only a core's first tick also tests enabled(). Profiled runs are
 * bit-identical to plain runs — the profiler only ever *reads* the
 * clock; output goes to stderr or a side file, never `--json` stdout.
 */

#ifndef LSQSCALE_METRICS_HOSTPROF_HH
#define LSQSCALE_METRICS_HOSTPROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lsqscale {

/** Monotonic host clock, nanoseconds. One call = one clock read. */
inline std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The fixed phase tree. Parent links live in hostPhaseParent(). */
enum class HostPhase : unsigned {
    Total = 0,     ///< whole Simulator::run (or bench point)
    Setup,         ///< config → core/memory/workload construction
    CkptRestore,   ///< loadCheckpoint into a fresh core
    FastForward,   ///< functional fast-forward
    CkptSave,      ///< saveCheckpoint serialization + write
    Fingerprint,   ///< functionalFingerprint hashing
    Warmup,        ///< detailed warmup before measurement
    Run,           ///< measured detailed loop (exact)
    FetchRename,   ///< sampled: fetch + rename/dispatch stages
    IssueWakeup,   ///< sampled: wakeup/select + writeback
    LsqSearch,     ///< sampled: LSQ search + store-forward
    Commit,        ///< sampled: commit + invalidation probes
    RunOther,      ///< sampled: occupancy stats, loop bookkeeping
    SweepCellSetup,///< per-cell config materialization in Sweep
    Report,        ///< stats/JSON/table rendering
    kCount
};

constexpr std::size_t kNumHostPhases =
    static_cast<std::size_t>(HostPhase::kCount);

const char *hostPhaseName(HostPhase p);
/** Parent phase, or HostPhase::kCount for roots. */
HostPhase hostPhaseParent(HostPhase p);
/** True for the burst-sampled run-loop stages. */
bool hostPhaseSampled(HostPhase p);

/** One phase row of a snapshot. */
struct HostPhaseSnap
{
    HostPhase phase = HostPhase::kCount;
    std::uint64_t ns = 0;      ///< raw accumulated (sampled: raw laps)
    std::uint64_t count = 0;   ///< scope entries / sampled laps
    std::uint64_t estNs = 0;   ///< sampled phases scaled to Run; else ns
};

/** Point-in-time copy of the profiler, ready to render. */
struct HostProfileSnapshot
{
    std::vector<HostPhaseSnap> phases; ///< indexed by HostPhase
    unsigned sampleShift = 0;
    std::uint64_t sampledCycles = 0;
};

class HostProfiler
{
  public:
    static HostProfiler &instance();

    /** One relaxed load; the only cost at a disabled timing point. */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Turn profiling on/off process-wide. Cores constructed (or
     * attached via Core::enableHostProfile) afterwards pick up the
     * sampling mask; call before the run starts.
     */
    static void setEnabled(bool on);

    /** log2 of the run-loop sampling period: every 64th executed tick. */
    static constexpr unsigned kSampleShift = 6;

    /** Record one exactly timed scope or one sampled stage lap. */
    void
    add(HostPhase p, std::uint64_t ns)
    {
        std::size_t i = static_cast<std::size_t>(p);
        ns_[i].fetch_add(ns, std::memory_order_relaxed);
        count_[i].fetch_add(1, std::memory_order_relaxed);
    }

    void noteSampledCycle()
    {
        sampledCycles_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Zero every accumulator (per-point bench use). */
    void reset();

    HostProfileSnapshot snapshot() const;

  private:
    HostProfiler() = default;

    static std::atomic<bool> enabled_;
    std::atomic<std::uint64_t> ns_[kNumHostPhases] = {};
    std::atomic<std::uint64_t> count_[kNumHostPhases] = {};
    std::atomic<std::uint64_t> sampledCycles_{0};
};

/**
 * RAII scope for a coarse (exactly timed) phase. When profiling is
 * off both constructor and destructor are a single predictable branch.
 */
class ScopedHostPhase
{
  public:
    explicit ScopedHostPhase(HostPhase p)
    {
        if (HostProfiler::enabled()) [[unlikely]] {
            phase_ = p;
            t0_ = hostNowNs();
        }
    }
    ~ScopedHostPhase()
    {
        if (phase_ != HostPhase::kCount) [[unlikely]]
            HostProfiler::instance().add(phase_, hostNowNs() - t0_);
    }
    ScopedHostPhase(const ScopedHostPhase &) = delete;
    ScopedHostPhase &operator=(const ScopedHostPhase &) = delete;

  private:
    HostPhase phase_ = HostPhase::kCount;
    std::uint64_t t0_ = 0;
};

/** `lsqscale-hostprof-v1` JSON document for a snapshot. */
std::string hostProfileToJson(const HostProfileSnapshot &snap);

/**
 * Human-readable self-time tree (the `--host-profile` stderr report
 * and the `lsqtrace hostprof` render). Sampled stages show their
 * scaled estimates; every row carries self time and % of total.
 */
std::string renderHostProfile(const HostProfileSnapshot &snap);

/**
 * Parse a `lsqscale-hostprof-v1` document produced by
 * hostProfileToJson back into a snapshot (for `lsqtrace hostprof`).
 * Returns false with @p error on malformed input.
 */
bool parseHostProfileJson(const std::string &json,
                          HostProfileSnapshot &snap,
                          std::string &error);

} // namespace lsqscale

#endif // LSQSCALE_METRICS_HOSTPROF_HH
