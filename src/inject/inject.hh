/**
 * @file
 * Deterministic fault injection (docs/ROBUSTNESS.md).
 *
 * A process-global armed fault — `--inject kind:seed:cycle` or the
 * LSQSCALE_INJECT environment variable — fires when the measurement
 * window of a simulation reaches the given cycle offset:
 *
 *   crash         raise SIGSEGV (a wild pointer, as the harness sees it)
 *   abort         fail an LSQ_ASSERT (the cold assertion path -> SIGABRT)
 *   hang          stop making progress forever (heartbeats cease; the
 *                 process-isolation watchdog must reap the cell)
 *   corrupt-lsq   flip address bits of resident store-queue entries; a
 *                 run with LSQSCALE_CHECK=1 detects the divergence and
 *                 panics
 *   corrupt-pred  scramble store-set predictor tables — deliberately
 *                 SILENT (timing-only) corruption, for detection tooling
 *   io-fail       fail the next harness file write (JSON/CSV outputs)
 *
 * The same per-cycle hook carries the process-isolation heartbeat: a
 * forked sweep cell arms a pipe fd here, and the parent's watchdog
 * kills the child when the beats stop (docs/ROBUSTNESS.md). Both are
 * compiled in always; when nothing is armed the cost in Core::run is
 * one predicted-false relaxed atomic load per cycle.
 *
 * Everything is deterministic: the trigger is a cycle count relative
 * to measurement start, and corruption randomness derives only from
 * the spec's seed. Fault state is process-global — a campaign that
 * wants per-cell blast radius must run under
 * LSQSCALE_ISOLATION=process.
 */
// lsqlint: layer(common) -- fault-arming interface over common/types.hh only; hooks live in layer-1 Core::run (lsqscale_inject depends only on common)

#ifndef LSQSCALE_INJECT_INJECT_HH
#define LSQSCALE_INJECT_INJECT_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace lsqscale {
namespace inject {

/** What to break. */
enum class FaultKind : std::uint8_t
{
    Crash,            ///< raise SIGSEGV
    Abort,            ///< fail an LSQ_ASSERT (cold path, SIGABRT)
    Hang,             ///< never return; heartbeats stop
    CorruptLsq,       ///< flip resident SQ entry address bits
    CorruptPredictor, ///< scramble store-set tables (silent)
    IoFail,           ///< fail the next harness file write
};

/** A parsed `kind:seed:cycle` injection spec. */
struct FaultSpec
{
    FaultKind kind = FaultKind::Crash;
    std::uint64_t seed = 0;  ///< corruption randomness (not the victim)
    Cycle cycle = 0;         ///< trigger offset from measurement start
};

/** Stable lowercase token for a kind ("crash", "corrupt-lsq", ...). */
const char *faultKindName(FaultKind kind);

/**
 * Parse "kind:seed:cycle" (e.g. "crash:0:5000"). @return false on an
 * unknown kind or non-numeric seed/cycle.
 */
bool parseFaultSpec(const std::string &text, FaultSpec &out);

/** Render a spec back to its "kind:seed:cycle" form. */
std::string formatFaultSpec(const FaultSpec &spec);

/** Arm @p spec process-wide (replaces any armed fault). */
void armFault(const FaultSpec &spec);

/** Disarm; also clears any pending (not yet fired) trigger. */
void disarmFault();

bool faultArmed();
/** The armed spec; only meaningful when faultArmed(). */
FaultSpec armedFault();

/**
 * Arm from LSQSCALE_INJECT if set, nothing is armed yet, and the env
 * has not been consulted before (a malformed value warns once and is
 * ignored). An explicit armFault() — e.g. --inject — wins.
 */
void armFromEnv();

/**
 * A measurement window begins at absolute core cycle @p cycleNow:
 * (re)pend the armed fault for this run. Called by the Simulator at
 * the observer-attach point, so the trigger cycle is measured in
 * measurement cycles whatever warm-up/fast-forward preceded it.
 */
void beginMeasurement(Cycle cycleNow);

/**
 * Process-isolation heartbeat: write one byte to @p fd every
 * @p everyCycles polled cycles (and once immediately). Armed by the
 * forked child in harness/proc_runner; a failed write disarms.
 */
void armHeartbeat(int fd, std::uint64_t everyCycles);
void disarmHeartbeat();

/** What the per-cycle poll asks its caller to do. */
enum class Action : std::uint8_t
{
    None,
    CorruptLsq,       ///< call Lsq::injectStateCorruption(faultSeed())
    CorruptPredictor, ///< call StoreSetPredictor::injectStateCorruption
};

namespace detail {
extern std::atomic<bool> gActive;
} // namespace detail

/** True when poll() has work (fault pending or heartbeat armed). */
inline bool
active()
{
    return detail::gActive.load(std::memory_order_relaxed);
}

/**
 * The per-cycle hook (called from Core::run when active()). Emits a
 * due heartbeat; fires a due fault: crash/abort/hang/io-fail are
 * handled internally (the first three never return), state corruption
 * is returned as an Action for the core to apply — and stays pending
 * until markApplied(), so a corruption that found no victim this
 * cycle (e.g. an empty store queue) retries next cycle.
 */
Action poll(Cycle cycleNow);

/** Seed of the armed fault (corruption randomness). */
std::uint64_t faultSeed();

/** A returned Action was applied; stop re-issuing it. */
void markApplied();

/**
 * IoFail consumption point: true exactly once after an io-fail fault
 * fired (writeFileCreatingDirs calls this and fails that write).
 */
bool consumeIoFailure();

} // namespace inject
} // namespace lsqscale

#endif // LSQSCALE_INJECT_INJECT_HH
