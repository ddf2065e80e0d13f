#include "metrics/hostprof.hh"

#include <cstddef>
#include <sstream>

#include "common/logging.hh"

namespace lsqscale {

namespace {

struct PhaseDesc
{
    const char *name;
    HostPhase parent;
    bool sampled;
};

/** Static tree: index = HostPhase. kCount parent marks a root. */
constexpr PhaseDesc kPhases[kNumHostPhases] = {
    {"total", HostPhase::kCount, false},
    {"setup", HostPhase::Total, false},
    {"ckpt_restore", HostPhase::Total, false},
    {"fast_forward", HostPhase::Total, false},
    {"ckpt_save", HostPhase::Total, false},
    // Roots, not children of total: these run outside (or nested
    // across) a Simulator::run scope — under total they would
    // double-count against its exactly-timed children.
    {"fingerprint", HostPhase::kCount, false},
    {"warmup", HostPhase::Total, false},
    {"run", HostPhase::Total, false},
    {"fetch_rename", HostPhase::Run, true},
    {"issue_wakeup", HostPhase::Run, true},
    {"lsq_search_forward", HostPhase::Run, true},
    {"commit", HostPhase::Run, true},
    {"run_other", HostPhase::Run, true},
    {"sweep_cell_setup", HostPhase::kCount, false},
    {"report", HostPhase::kCount, false},
};

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

} // namespace

std::atomic<bool> HostProfiler::enabled_{false};

const char *
hostPhaseName(HostPhase p)
{
    return kPhases[static_cast<std::size_t>(p)].name;
}

HostPhase
hostPhaseParent(HostPhase p)
{
    return kPhases[static_cast<std::size_t>(p)].parent;
}

bool
hostPhaseSampled(HostPhase p)
{
    return kPhases[static_cast<std::size_t>(p)].sampled;
}

HostProfiler &
HostProfiler::instance()
{
    // Leaked singleton: phase counters must outlive static
    // destruction (atexit report paths). The profiled tick reaches
    // this, but the allocation happens once per process.
    // lsqlint: allow(raw-new) -- deliberate leak
    static HostProfiler *p = new HostProfiler;
    return *p;
}

void
HostProfiler::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
HostProfiler::reset()
{
    for (std::size_t i = 0; i < kNumHostPhases; ++i) {
        ns_[i].store(0, std::memory_order_relaxed);
        count_[i].store(0, std::memory_order_relaxed);
    }
    sampledCycles_.store(0, std::memory_order_relaxed);
}

HostProfileSnapshot
HostProfiler::snapshot() const
{
    HostProfileSnapshot s;
    s.sampleShift = kSampleShift;
    s.sampledCycles = sampledCycles_.load(std::memory_order_relaxed);
    s.phases.resize(kNumHostPhases);
    std::uint64_t sampledTotal = 0;
    for (std::size_t i = 0; i < kNumHostPhases; ++i) {
        HostPhaseSnap &p = s.phases[i];
        p.phase = static_cast<HostPhase>(i);
        p.ns = ns_[i].load(std::memory_order_relaxed);
        p.count = count_[i].load(std::memory_order_relaxed);
        if (kPhases[i].sampled)
            sampledTotal += p.ns;
    }
    // Sampled run-loop stages saw only every 2^shift-th cycle; their
    // *shares* are unbiased, so scale them to the exactly-measured Run
    // phase. The tree then accounts for 100% of Run by construction.
    std::uint64_t runNs =
        s.phases[static_cast<std::size_t>(HostPhase::Run)].ns;
    for (std::size_t i = 0; i < kNumHostPhases; ++i) {
        HostPhaseSnap &p = s.phases[i];
        if (!kPhases[i].sampled) {
            p.estNs = p.ns;
        } else if (sampledTotal > 0) {
            p.estNs = static_cast<std::uint64_t>(
                static_cast<double>(runNs) *
                (static_cast<double>(p.ns) /
                 static_cast<double>(sampledTotal)));
        } else {
            p.estNs = 0;
        }
    }
    return s;
}

// ------------------------------------------------------ rendering ----

std::string
hostProfileToJson(const HostProfileSnapshot &snap)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"lsqscale-hostprof-v1\",\n";
    os << "  \"sample_shift\": " << snap.sampleShift << ",\n";
    os << "  \"sampled_cycles\": " << snap.sampledCycles << ",\n";
    os << "  \"phases\": [";
    for (std::size_t i = 0; i < snap.phases.size(); ++i) {
        const HostPhaseSnap &p = snap.phases[i];
        HostPhase parent = hostPhaseParent(p.phase);
        os << (i ? "," : "") << "\n    {\"name\": \""
           << hostPhaseName(p.phase) << "\", \"parent\": ";
        if (parent == HostPhase::kCount)
            os << "null";
        else
            os << "\"" << hostPhaseName(parent) << "\"";
        os << ", \"sampled\": "
           << (hostPhaseSampled(p.phase) ? "true" : "false")
           << ", \"ns\": " << p.ns << ", \"est_ns\": " << p.estNs
           << ", \"count\": " << p.count << "}";
    }
    os << "\n  ]\n}";
    return os.str();
}

std::string
renderHostProfile(const HostProfileSnapshot &snap)
{
    // Self time = estimated time minus estimated children.
    std::uint64_t childNs[kNumHostPhases] = {};
    for (const HostPhaseSnap &p : snap.phases) {
        HostPhase parent = hostPhaseParent(p.phase);
        if (parent != HostPhase::kCount)
            childNs[static_cast<std::size_t>(parent)] += p.estNs;
    }
    std::uint64_t totalNs =
        snap.phases[static_cast<std::size_t>(HostPhase::Total)].estNs;
    if (totalNs == 0)
        totalNs = 1; // render zeros, not NaN%, on an empty profile

    std::ostringstream os;
    os << strfmt("host profile (stage sampling: every %uth executed "
                 "cycle, %llu sampled)\n",
                 1u << snap.sampleShift,
                 static_cast<unsigned long long>(snap.sampledCycles));
    os << strfmt("  %-22s %12s %12s %8s %12s\n", "phase", "time",
                 "self", "%total", "count");

    // Depth-first over the static tree, preserving enum order.
    struct Walk
    {
        const HostProfileSnapshot &snap;
        const std::uint64_t *childNs;
        std::uint64_t totalNs;
        std::ostringstream &os;

        void
        emit(HostPhase ph, int depth)
        {
            std::size_t i = static_cast<std::size_t>(ph);
            const HostPhaseSnap &p = snap.phases[i];
            if (p.count == 0 && p.estNs == 0 &&
                ph != HostPhase::Total)
                return; // untouched phase: keep the table short
            std::uint64_t self =
                p.estNs > childNs[i] ? p.estNs - childNs[i] : 0;
            std::string name(static_cast<std::size_t>(depth) * 2,
                             ' ');
            name += hostPhaseName(ph);
            if (hostPhaseSampled(ph))
                name += "*";
            os << strfmt(
                "  %-22s %11.3fs %11.3fs %7.1f%% %12llu\n",
                name.c_str(), seconds(p.estNs), seconds(self),
                100.0 * static_cast<double>(p.estNs) /
                    static_cast<double>(totalNs),
                static_cast<unsigned long long>(p.count));
            for (std::size_t c = 0; c < kNumHostPhases; ++c)
                if (hostPhaseParent(static_cast<HostPhase>(c)) == ph)
                    emit(static_cast<HostPhase>(c), depth + 1);
        }
    };
    Walk walk{snap, childNs, totalNs, os};
    walk.emit(HostPhase::Total, 0);
    for (std::size_t i = 1; i < kNumHostPhases; ++i)
        if (hostPhaseParent(static_cast<HostPhase>(i)) ==
            HostPhase::kCount)
            walk.emit(static_cast<HostPhase>(i), 0);
    os << "  (* stage time scaled from sampled laps to the measured "
          "run phase)\n";
    return os.str();
}

// -------------------------------------------------------- parsing ----

namespace {

/** Extract `"key": <unsigned>` from a JSON object fragment. */
bool
scanU64(const std::string &obj, const std::string &key,
        std::uint64_t &out)
{
    std::string needle = "\"" + key + "\": ";
    std::size_t pos = obj.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    std::uint64_t v = 0;
    bool any = false;
    while (pos < obj.size() && obj[pos] >= '0' && obj[pos] <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(obj[pos] - '0');
        ++pos;
        any = true;
    }
    if (!any)
        return false;
    out = v;
    return true;
}

} // namespace

bool
parseHostProfileJson(const std::string &json,
                     HostProfileSnapshot &snap, std::string &error)
{
    if (json.find("\"lsqscale-hostprof-v1\"") == std::string::npos) {
        error = "not a lsqscale-hostprof-v1 document";
        return false;
    }
    snap = HostProfileSnapshot{};
    snap.phases.resize(kNumHostPhases);
    for (std::size_t i = 0; i < kNumHostPhases; ++i)
        snap.phases[i].phase = static_cast<HostPhase>(i);
    std::uint64_t u = 0;
    if (scanU64(json, "sample_shift", u))
        snap.sampleShift = static_cast<unsigned>(u);
    if (scanU64(json, "sampled_cycles", u))
        snap.sampledCycles = u;

    for (std::size_t i = 0; i < kNumHostPhases; ++i) {
        std::string needle = strfmt(
            "{\"name\": \"%s\"",
            hostPhaseName(static_cast<HostPhase>(i)));
        std::size_t pos = json.find(needle);
        if (pos == std::string::npos)
            continue;
        std::size_t end = json.find('}', pos);
        if (end == std::string::npos) {
            error = strfmt("unterminated phase object at byte %zu",
                           pos);
            return false;
        }
        std::string obj = json.substr(pos, end - pos);
        HostPhaseSnap &p = snap.phases[i];
        scanU64(obj, "ns", p.ns);
        scanU64(obj, "est_ns", p.estNs);
        scanU64(obj, "count", p.count);
    }
    return true;
}

} // namespace lsqscale
