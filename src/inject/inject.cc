#include "inject/inject.hh"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <unistd.h>

#include "common/logging.hh"

namespace lsqscale {
namespace inject {

namespace detail {
std::atomic<bool> gActive{false};
} // namespace detail

namespace {

// The spec itself is written only while no simulation runs (arm time,
// beginMeasurement); the per-cycle flags are atomics so thread-mode
// sweeps that never arm a fault stay race-free under TSan.
FaultSpec gSpec;
std::atomic<bool> gArmed{false};
std::atomic<bool> gPending{false};
std::atomic<std::uint64_t> gMeasureStart{0};
std::atomic<bool> gIoFailPending{false};
std::atomic<bool> gEnvChecked{false};

std::atomic<int> gHbFd{-1};
std::atomic<std::uint64_t> gHbEvery{0};
std::atomic<std::uint64_t> gHbNext{0};

void
recomputeActive()
{
    detail::gActive.store(gPending.load(std::memory_order_relaxed) ||
                              gHbFd.load(std::memory_order_relaxed) >= 0,
                          std::memory_order_relaxed);
}

/** Emit one heartbeat byte; a dead pipe disarms the heartbeat. */
void
beat(int fd)
{
    ssize_t n;
    do {
        n = ::write(fd, "h", 1);
    } while (n < 0 && errno == EINTR);
    if (n != 1)
        disarmHeartbeat();
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Crash:
        return "crash";
      case FaultKind::Abort:
        return "abort";
      case FaultKind::Hang:
        return "hang";
      case FaultKind::CorruptLsq:
        return "corrupt-lsq";
      case FaultKind::CorruptPredictor:
        return "corrupt-pred";
      case FaultKind::IoFail:
        return "io-fail";
    }
    return "unknown";
}

bool
parseFaultSpec(const std::string &text, FaultSpec &out)
{
    std::size_t c1 = text.find(':');
    if (c1 == std::string::npos)
        return false;
    std::size_t c2 = text.find(':', c1 + 1);
    if (c2 == std::string::npos)
        return false;

    std::string kind = text.substr(0, c1);
    FaultSpec spec;
    if (kind == "crash")
        spec.kind = FaultKind::Crash;
    else if (kind == "abort")
        spec.kind = FaultKind::Abort;
    else if (kind == "hang")
        spec.kind = FaultKind::Hang;
    else if (kind == "corrupt-lsq")
        spec.kind = FaultKind::CorruptLsq;
    else if (kind == "corrupt-pred")
        spec.kind = FaultKind::CorruptPredictor;
    else if (kind == "io-fail")
        spec.kind = FaultKind::IoFail;
    else
        return false;

    auto number = [](const std::string &s, std::uint64_t &v) -> bool {
        if (s.empty())
            return false;
        // Digits only: strtoull would silently wrap "-1" to 2^64-1
        // instead of rejecting it as malformed.
        for (char ch : s)
            if (ch < '0' || ch > '9')
                return false;
        char *end = nullptr;
        errno = 0;
        v = std::strtoull(s.c_str(), &end, 10);
        return end && *end == '\0' && errno == 0;
    };
    std::uint64_t cycle;
    if (!number(text.substr(c1 + 1, c2 - c1 - 1), spec.seed) ||
        !number(text.substr(c2 + 1), cycle))
        return false;
    spec.cycle = cycle;
    out = spec;
    return true;
}

std::string
formatFaultSpec(const FaultSpec &spec)
{
    return strfmt("%s:%llu:%llu", faultKindName(spec.kind),
                  static_cast<unsigned long long>(spec.seed),
                  static_cast<unsigned long long>(spec.cycle));
}

void
armFault(const FaultSpec &spec)
{
    gSpec = spec;
    gArmed.store(true, std::memory_order_relaxed);
    gPending.store(false, std::memory_order_relaxed);
    gIoFailPending.store(false, std::memory_order_relaxed);
    recomputeActive();
}

void
disarmFault()
{
    gArmed.store(false, std::memory_order_relaxed);
    gPending.store(false, std::memory_order_relaxed);
    gIoFailPending.store(false, std::memory_order_relaxed);
    recomputeActive();
}

bool
faultArmed()
{
    return gArmed.load(std::memory_order_relaxed);
}

bool
faultPending()
{
    return gPending.load(std::memory_order_relaxed);
}

FaultSpec
armedFault()
{
    return gSpec;
}

void
armFromEnv()
{
    if (gEnvChecked.exchange(true, std::memory_order_relaxed))
        return;
    if (faultArmed())
        return;
    const char *env = std::getenv("LSQSCALE_INJECT");
    if (!env || !*env)
        return;
    FaultSpec spec;
    if (parseFaultSpec(env, spec))
        armFault(spec);
    else
        LSQ_WARN("ignoring malformed LSQSCALE_INJECT '%s' "
                 "(want kind:seed:cycle)", env);
}

void
beginMeasurement(Cycle cycleNow)
{
    gMeasureStart.store(cycleNow, std::memory_order_relaxed);
    gPending.store(gArmed.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    recomputeActive();
}

void
armHeartbeat(int fd, std::uint64_t everyCycles)
{
    gHbEvery.store(everyCycles ? everyCycles : 1,
                   std::memory_order_relaxed);
    gHbNext.store(0, std::memory_order_relaxed);
    gHbFd.store(fd, std::memory_order_relaxed);
    recomputeActive();
    beat(fd); // liveness from cycle 0, before any simulation work
}

void
disarmHeartbeat()
{
    gHbFd.store(-1, std::memory_order_relaxed);
    recomputeActive();
}

Action
poll(Cycle cycleNow)
{
    int fd = gHbFd.load(std::memory_order_relaxed);
    if (fd >= 0 && cycleNow >= gHbNext.load(std::memory_order_relaxed)) {
        gHbNext.store(cycleNow +
                          gHbEvery.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
        beat(fd);
    }

    if (!gPending.load(std::memory_order_relaxed))
        return Action::None;
    Cycle start = gMeasureStart.load(std::memory_order_relaxed);
    if (cycleNow < start || cycleNow - start < gSpec.cycle)
        return Action::None;

    switch (gSpec.kind) {
      case FaultKind::Crash:
        logLine(stderr, strfmt("inject: raising SIGSEGV at cycle %llu "
                               "(%s)",
                               static_cast<unsigned long long>(cycleNow),
                               formatFaultSpec(gSpec).c_str()));
        std::raise(SIGSEGV);
        std::abort(); // raise() cannot meaningfully fail; stay loud
      case FaultKind::Abort:
        // Deliberately drive the cold LSQ_ASSERT failure path so the
        // campaign covers the same machinery a real invariant violation
        // would take (panic -> abort -> SIGABRT).
        LSQ_ASSERT(false, "injected fault %s at cycle %llu",
                   formatFaultSpec(gSpec).c_str(),
                   static_cast<unsigned long long>(cycleNow));
        std::abort();
      case FaultKind::Hang:
        logLine(stderr, strfmt("inject: hanging at cycle %llu (%s)",
                               static_cast<unsigned long long>(cycleNow),
                               formatFaultSpec(gSpec).c_str()));
        disarmHeartbeat(); // beats stop: the watchdog must reap us
        for (;;)
            ::pause();
      case FaultKind::CorruptLsq:
        return Action::CorruptLsq;
      case FaultKind::CorruptPredictor:
        return Action::CorruptPredictor;
      case FaultKind::IoFail:
        gIoFailPending.store(true, std::memory_order_relaxed);
        markApplied();
        return Action::None;
    }
    return Action::None;
}

std::uint64_t
faultSeed()
{
    return gSpec.seed;
}

void
markApplied()
{
    gPending.store(false, std::memory_order_relaxed);
    recomputeActive();
}

bool
consumeIoFailure()
{
    return gIoFailPending.exchange(false, std::memory_order_relaxed);
}

} // namespace inject
} // namespace lsqscale
