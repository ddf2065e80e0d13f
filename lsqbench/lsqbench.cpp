/**
 * @file
 * lsqbench: run one benchmark workload and report its metrics.
 *
 * A workload is a Sweep grid of the paper's design points, built
 * through the public configs:: factories. The workload seed selects
 * kPrograms synthetic programs per benchmark (SimConfig::seed =
 * seed * kPrograms + program), and the grid has one row per design
 * point and program. A pass is one Sweep over that grid; passes repeat
 * until the host-time budget is spent. One process runs one workload.
 * The last line of stdout is one JSON object: the end-to-end metrics
 * (untraced run) or the per-layer metrics (--trace 1), and a digest of
 * every cell that run.py checks against the committed expected
 * outputs. README.md gives the workloads, the metrics and why each was
 * chosen.
 *
 *   lsqbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--work-dir DIR] [--spans-dir DIR] [--smoke]
 *
 * Layers are timed from here, around calls into public functions, plus
 * the existing HostProfiler; nothing in src/ is instrumented for it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "harness/sink.hh"
#include "harness/sweep.hh"
#include "memory/memory_system.hh"
#include "metrics/hostprof.hh"
#include "predictor/branch_predictor.hh"
#include "predictor/store_set.hh"
#include "sample/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"
#include "workload/trace_generator.hh"

extern char **environ;

using namespace lsqscale;

namespace {

// ------------------------------------------------------- workloads --

struct DesignPoint
{
    const char *name;
    SimConfig (*make)(SimConfig base);
};

const DesignPoint kDesignPoints[] = {
    {"base-2port", [](SimConfig c) { return c; }},
    {"base-1port",
     [](SimConfig c) { return configs::withPorts(std::move(c), 1); }},
    {"all-techniques-1port",
     [](SimConfig c) { return configs::allTechniques(std::move(c)); }},
    // Self-circular allocation, conventional (unpredicted) SQ search.
    {"seg-4x28-1port",
     [](SimConfig c) {
         return configs::withPorts(
             configs::withSegmentation(std::move(c), 4, 28,
                                       SegAllocPolicy::SelfCircular),
             1);
     }},
    {"flat-128-2port",
     [](SimConfig c) { return configs::withQueueSize(std::move(c), 128); }},
};

SimConfig
designPoint(const std::string &row, const std::string &benchmark)
{
    for (const DesignPoint &d : kDesignPoints)
        if (row == d.name)
            return d.make(configs::base(benchmark));
    LSQ_FATAL("unknown design point '%s'", row.c_str());
}

/**
 * Synthetic programs per benchmark. Each seed draws a different static
 * program, and one program's host time differs from the next seed's by
 * about 10% (coefficient of variation over 64 seeds); timing many per
 * pass keeps one seed's draw from moving the result.
 */
constexpr unsigned kPrograms = 32;

struct Workload
{
    std::string name;
    std::vector<std::string> rows; ///< design points
    std::vector<std::string> benchmarks;
    std::uint64_t insts = 0; ///< measured instructions per cell
    unsigned jobs = 1;       ///< sweep worker threads
    /**
     * > 0: set-up fast-forwards each (benchmark, program) this far and
     * saves one checkpoint, which every row's cell restores.
     */
    std::uint64_t ffInsts = 0;
    unsigned programs = kPrograms;
};

/**
 * The four workloads. Sizes keep one pass near 4 s on a 4-core x86
 * host, so a 20 s budget holds about five. README.md says why each grid
 * stresses the layer it does.
 */
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        {"paper_grid",
         {"base-2port", "all-techniques-1port", "seg-4x28-1port"},
         {"gzip", "gcc", "vortex", "mcf", "mgrid", "equake", "art",
          "applu"},
         6000, 3, 0},
        {"lsq_heavy",
         {"seg-4x28-1port", "flat-128-2port"},
         {"mgrid", "equake", "applu"},
         5000, 1, 0},
        {"issue_heavy",
         {"base-2port", "all-techniques-1port"},
         {"bzip", "wupwise", "gzip"},
         16000, 1, 0},
        {"warm_reuse",
         {"base-2port", "base-1port", "seg-4x28-1port",
          "all-techniques-1port"},
         {"mcf", "art", "gcc"},
         5000, 1, 100000},
    };
    return w;
}

constexpr std::uint64_t kSmokeInsts = 20000;
constexpr unsigned kSmokePrograms = 2;
/**
 * Set-up is timed in kSetupBlocks blocks. A block repeats set-up until
 * it has spent kSetupBlockS and keeps its fastest repetition; setup_s is
 * the median over blocks. Grid building alone takes 0.1-0.5 ms, and on
 * a shared host most such repetitions in a run can be stretched by
 * other tenants (medians of 0.08 and 0.15 ms in back-to-back runs),
 * while the fastest repetition moved far less; a warm_reuse set-up
 * takes about 2 s, so each of its blocks is one repetition.
 */
constexpr unsigned kSetupBlocks = 3;
constexpr double kSetupBlockS = 0.05;
/** Ops each traced layer replay runs per benchmark. */
constexpr std::uint64_t kReplayOps = 1000000;
/** Fast-forward length of the traced checkpoint replay. */
constexpr std::uint64_t kReplayFfInsts = 1000000;

std::uint64_t
programSeed(std::uint64_t seed, unsigned program)
{
    return seed * kPrograms + program;
}

/**
 * One row by two benchmarks by kSmokePrograms at kSmokeInsts: exercises
 * every path.
 */
Workload
smokeOf(Workload w)
{
    w.rows.resize(1);
    w.benchmarks.resize(2);
    w.insts = kSmokeInsts;
    if (w.ffInsts > 0)
        w.ffInsts = kSmokeInsts;
    w.programs = kSmokePrograms;
    return w;
}

// ----------------------------------------------------------- spans --

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::string cell;
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

/**
 * Spans kept in memory and written when the run ends. Off in untraced
 * runs: open() returns 0 and close(0) does nothing. Not thread-safe;
 * cell spans arrive through ResultSink callbacks, which the sweep
 * engine serializes.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    std::uint64_t
    open(std::string name, std::uint64_t parent, std::string cell = {})
    {
        if (!on_)
            return 0;
        spans_.push_back({spans_.size() + 1, parent, std::move(cell),
                          std::move(name), hostNowNs(), 0});
        return spans_.back().id;
    }

    void
    close(std::uint64_t id)
    {
        if (id != 0)
            spans_[id - 1].endNs = hostNowNs();
    }

    /**
     * Self time per span name: each span's duration minus the part of
     * it that its children cover (overlapping children, such as
     * parallel cells, are merged before subtracting).
     */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<std::vector<const Span *>> children(spans_.size() + 1);
        for (const Span &s : spans_)
            children[s.parent].push_back(&s);
        std::map<std::string, double> self;
        for (const Span &s : spans_) {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
            for (const Span *c : children[s.id])
                iv.emplace_back(std::max(c->startNs, s.startNs),
                                std::min(c->endNs, s.endNs));
            std::sort(iv.begin(), iv.end());
            std::uint64_t covered = 0, reach = s.startNs;
            for (auto [a, b] : iv) {
                a = std::max(a, reach);
                if (b > a) {
                    covered += b - a;
                    reach = b;
                }
            }
            self[s.name] +=
                static_cast<double>(s.endNs - s.startNs - covered) / 1e9;
        }
        return self;
    }

    std::string
    toJson(const std::string &workload) const
    {
        std::string out = "{\"schema\": \"lsqbench-spans-v1\", "
                          "\"workload\": \"" +
                          jsonEscape(workload) + "\",\n \"self_s\": {";
        bool first = true;
        for (const auto &[name, s] : selfSeconds()) {
            out += strfmt("%s\"%s\": %s", first ? "" : ", ",
                          jsonEscape(name).c_str(),
                          jsonNumber(s, "%.9g").c_str());
            first = false;
        }
        out += "},\n \"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += strfmt(
                "%s\n  {\"id\": %llu, \"parent\": %llu, \"cell\": \"%s\", "
                "\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu}",
                i ? "," : "", static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                jsonEscape(s.cell).c_str(), jsonEscape(s.name).c_str(),
                static_cast<unsigned long long>(s.startNs),
                static_cast<unsigned long long>(s.endNs));
        }
        return out + "\n ]}\n";
    }

  private:
    bool on_;
    std::vector<Span> spans_;
};

/**
 * "design:seed/benchmark" (the row label is "design:seed"), the name of
 * a cell in spans and digests.
 */
std::string
cellLabel(const SweepCell &cell)
{
    return cell.configLabel + "/" + cell.benchmark;
}

/** Times the cells of one traced pass: queue wait, tail, spans. */
class CellTimer : public ResultSink
{
  public:
    CellTimer(SpanLog &spans, std::uint64_t parent)
        : spans_(spans), parent_(parent)
    {
    }

    void sweepBegin(const SweepOutcome &) override { beginNs = hostNowNs(); }

    void
    jobStarted(const SweepCell &cell) override
    {
        lastStartNs = hostNowNs();
        queueWaitS.push_back(
            static_cast<double>(lastStartNs - beginNs) / 1e9);
        open_[{cell.row, cell.col}] =
            spans_.open("cell", parent_, cellLabel(cell));
    }

    void
    cellDone(const SweepCell &cell) override
    {
        spans_.close(open_[{cell.row, cell.col}]);
    }

    std::uint64_t beginNs = 0;
    std::uint64_t lastStartNs = 0;
    std::vector<double> queueWaitS;

  private:
    SpanLog &spans_;
    std::uint64_t parent_;
    std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> open_;
};

// ------------------------------------------------------- utilities --

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * LSQSCALE_* variables are read inside Simulator::run and Sweep (for
 * example LSQSCALE_SAMPLE turns every full-detail cell into a sampled
 * one), so any of them would silently change the program measured.
 */
void
refuseLsqscaleEnvironment()
{
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "LSQSCALE_", 9) != 0)
            continue;
        std::string name(*e, std::strcspn(*e, "="));
        std::fprintf(stderr,
                     "lsqbench: %s is set; LSQSCALE_* variables change "
                     "the program being measured. Unset it and rerun.\n",
                     name.c_str());
        std::exit(2);
    }
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".";
    std::string spansDir;
    bool smoke = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "lsqbench: %s\nusage: lsqbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR] "
                 "[--spans-dir DIR] [--smoke]\nworkloads:",
                 why);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(strfmt("%s needs a value", a.c_str()).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage("--seed takes an unsigned integer");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0) ||
                !std::isfinite(o.seconds))
                usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--work-dir") {
            o.workDir = v;
        } else if (a == "--spans-dir") {
            o.spansDir = v;
        } else {
            usage(strfmt("unknown option %s", a.c_str()).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

// ---------------------------------------------------------- set-up --

std::string
ckptPath(const std::string &dir, const std::string &tag,
         const std::string &benchmark, std::uint64_t seed)
{
    return strfmt("%s/%s_%s_%llu.ckpt", dir.c_str(), tag.c_str(),
                  benchmark.c_str(), static_cast<unsigned long long>(seed));
}

/**
 * Set-up: build every cell's config, one grid row per (design point,
 * program). A restoring workload also fast-forwards each (benchmark,
 * program) and saves the checkpoint that every row's cell restores.
 * Returns wall seconds.
 */
double
setUp(const Workload &wl, const Options &opt,
      std::vector<NamedConfig> &grid, SpanLog &spans, std::uint64_t parent)
{
    std::uint64_t t0 = hostNowNs();
    std::uint64_t span = spans.open("setup", parent);
    grid.clear();
    for (unsigned k = 0; k < wl.programs; ++k) {
        const std::uint64_t seed = programSeed(opt.seed, k);
        const auto seedText = static_cast<unsigned long long>(seed);
        for (const std::string &row : wl.rows) {
            std::map<std::string, SimConfig> cells;
            for (const std::string &bench : wl.benchmarks) {
                SimConfig c = designPoint(row, bench);
                c.seed = seed;
                c.instructions = wl.insts;
                if (wl.ffInsts > 0)
                    c.loadCkptPath =
                        ckptPath(opt.workDir, wl.name, bench, seed);
                cells.emplace(bench, std::move(c));
            }
            grid.push_back({strfmt("%s:%llu", row.c_str(), seedText),
                            [cells = std::move(cells)](
                                const std::string &bench) {
                                return cells.at(bench);
                            }});
        }
        if (wl.ffInsts == 0)
            continue;
        for (const std::string &bench : wl.benchmarks) {
            SimConfig save = designPoint(wl.rows.front(), bench);
            save.seed = seed;
            save.ffInsts = wl.ffInsts;
            save.saveCkptPath = ckptPath(opt.workDir, wl.name, bench, seed);
            // One checkpoint must serve every row: the fingerprint
            // excludes LSQ geometry, which is all the rows differ in.
            for (auto row = grid.end() - wl.rows.size(); row != grid.end();
                 ++row)
                if (functionalFingerprint(row->make(bench)) !=
                    functionalFingerprint(save))
                    LSQ_FATAL("%s: the %s checkpoint does not fit row %s",
                              wl.name.c_str(), bench.c_str(),
                              row->label.c_str());
            std::uint64_t s =
                spans.open("checkpoint_save", span,
                           strfmt("%s:%llu", bench.c_str(), seedText));
            Simulator(save).run();
            spans.close(s);
        }
    }
    spans.close(span);
    return seconds(hostNowNs() - t0);
}

// ----------------------------------------------------------- passes --

SweepOutcome
runPass(const Workload &wl, const std::vector<NamedConfig> &grid,
        ResultSink *sink)
{
    SweepOptions so;
    so.jobs = wl.jobs;
    so.isolation = IsolationMode::Thread;
    so.name = wl.name;
    Sweep sweep(grid, wl.benchmarks, so);
    sweep.setJobFn(runSimulationJob);
    if (sink != nullptr)
        sweep.addSink(sink);
    return sweep.run();
}

struct CellDigest
{
    std::string cell; ///< "row/benchmark:seed"
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t sqSearches = 0;
    std::uint64_t lqSearches = 0;
    std::uint64_t statsFnv = 0;

    bool operator==(const CellDigest &) const = default;
};

CellDigest
digestOf(const SweepCell &cell)
{
    const SimResult &r = cell.result;
    return {cellLabel(cell),
            r.cycles,
            r.committed,
            r.sqSearches(),
            r.lqSearches(),
            fnv1a(r.stats.dump())};
}

/** Simulated totals of one pass, summed over its cells. */
struct Totals
{
    std::map<std::string, double> counters;
    double cycles = 0, committed = 0, ipcSum = 0, cells = 0;
    double segSum = 0, segSamples = 0; ///< sq.search.segments

    void
    add(const SweepOutcome &out)
    {
        for (const auto &row : out.grid)
            for (const SweepCell &cell : row) {
                const StatSet &st = cell.result.stats;
                for (const std::string &n : st.counterNames())
                    counters[n] += static_cast<double>(st.value(n));
                if (st.hasHistogram("sq.search.segments")) {
                    const Histogram &h =
                        st.getHistogram("sq.search.segments");
                    segSum += h.mean() * static_cast<double>(h.samples());
                    segSamples += static_cast<double>(h.samples());
                }
                cycles += static_cast<double>(cell.result.cycles);
                committed += static_cast<double>(cell.result.committed);
                ipcSum += cell.result.ipc();
                cells += 1;
            }
    }

    double
    operator[](const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    }
};

/** What the traced passes measured, for the per-layer metrics. */
struct TracedPasses
{
    unsigned passes = 0;
    std::vector<double> cellS, queueWaitS, tailS;
    double busyS = 0, capacityS = 0, poisoned = 0;
    HostProfileSnapshot profile;

    void
    add(const SweepOutcome &out, const CellTimer &timer, double wallS,
        std::uint64_t endNs)
    {
        for (const auto &row : out.grid)
            for (const SweepCell &cell : row) {
                cellS.push_back(cell.seconds);
                busyS += cell.seconds;
            }
        capacityS += wallS * out.jobs;
        poisoned += static_cast<double>(out.poisonedCells);
        queueWaitS.insert(queueWaitS.end(), timer.queueWaitS.begin(),
                          timer.queueWaitS.end());
        tailS.push_back(seconds(endNs - timer.lastStartNs));
    }
};

struct TimedPhase
{
    std::vector<double> kips;       ///< per untraced pass
    std::vector<double> tracedKips; ///< per traced pass
    /** The first pass's cells: the reference for later passes. */
    std::vector<CellDigest> firstPass;
    Totals totals; ///< first pass
    TracedPasses traced;
    unsigned passes = 0;
    std::uint64_t attempted = 0, failed = 0;
};

/**
 * Whole passes until the budget is spent (stopping when the next pass
 * would end more than half a pass late). A traced run alternates
 * untraced and traced passes, so the two medians give the tracing
 * overhead. Every cell is checked: healthy, inside its measurement
 * window, and identical to the first pass.
 */
TimedPhase
runTimedPhase(const Workload &wl, const Options &opt,
              const std::vector<NamedConfig> &grid, SpanLog &spans,
              std::uint64_t root)
{
    TimedPhase tp;
    const unsigned minPasses = opt.smoke && !opt.trace ? 1 : 2;
    const std::uint64_t start = hostNowNs();
    double passS = 0;
    for (; tp.passes < minPasses ||
           seconds(hostNowNs() - start) + passS / 2 < opt.seconds;
         ++tp.passes) {
        const bool traced = opt.trace && tp.passes % 2 == 1;
        if (traced && tp.traced.passes == 0)
            HostProfiler::instance().reset();
        std::uint64_t span =
            spans.open(traced ? "sweep" : "sweep.untraced", root);
        CellTimer timer(spans, span);
        HostProfiler::setEnabled(traced);
        std::uint64_t t0 = hostNowNs();
        SweepOutcome out = runPass(wl, grid, traced ? &timer : nullptr);
        std::uint64_t t1 = hostNowNs();
        HostProfiler::setEnabled(false);
        spans.close(span);
        passS = seconds(t1 - t0);

        double committed = 0;
        std::vector<CellDigest> digests;
        for (const auto &row : out.grid)
            for (const SweepCell &cell : row) {
                digests.push_back(digestOf(cell));
                committed += static_cast<double>(cell.result.committed);
                ++tp.attempted;
                bool bad = cell.poisoned() || cell.result.cycles == 0 ||
                           cell.result.committed < wl.insts ||
                           cell.result.committed >= wl.insts + 64;
                if (tp.passes > 0)
                    bad = bad ||
                          !(digests.back() == tp.firstPass[digests.size() - 1]);
                if (bad) {
                    ++tp.failed;
                    std::fprintf(stderr, "lsqbench: cell %s failed: %s\n",
                                 digests.back().cell.c_str(),
                                 cell.poisoned() ? cell.error.c_str()
                                                 : "unexpected output");
                }
            }
        if (tp.passes == 0) {
            tp.firstPass = std::move(digests);
            tp.totals.add(out);
        }
        if (traced) {
            tp.traced.add(out, timer, passS, t1);
            ++tp.traced.passes;
        }
        double kips = committed / 1e3 / passS;
        (traced ? tp.tracedKips : tp.kips).push_back(kips);
        std::fprintf(stderr, "lsqbench: %s pass %u%s: %.3f s, %.1f kinst/s\n",
                     wl.name.c_str(), tp.passes, traced ? " (traced)" : "",
                     passS, kips);
    }
    if (opt.trace)
        tp.traced.profile = HostProfiler::instance().snapshot();
    return tp;
}

// ---------------------------------------------------------- replays --

/** Per-layer timings from replaying generated ops through public calls. */
struct ReplayTimes
{
    double genNs = 0, insts = 0;
    double memNs = 0, accesses = 0;
    double bpNs = 0, branches = 0;
    double sspNs = 0, sspOps = 0;
    std::uint64_t checksum = 0; ///< keeps the replayed results live
};

void
runLayerReplays(const std::string &bench, std::uint64_t seed,
                std::uint64_t nOps, ReplayTimes &t, SpanLog &spans,
                std::uint64_t parent)
{
    std::vector<MicroOp> ops;
    ops.reserve(nOps);

    std::uint64_t s = spans.open("replay.workload", parent, bench);
    std::uint64_t t0 = hostNowNs();
    TraceGenerator gen(profileFor(bench), seed);
    for (std::uint64_t i = 0; i < nOps; ++i)
        ops.push_back(gen.next());
    t.genNs += static_cast<double>(hostNowNs() - t0);
    t.insts += static_cast<double>(nOps);
    spans.close(s);

    s = spans.open("replay.memory", parent, bench);
    t0 = hostNowNs();
    {
        MemorySystem mem{MemoryParams{}};
        Cycle now = 0;
        for (const MicroOp &op : ops) {
            t.checksum += mem.accessInst(now, op.pc).readyCycle;
            t.accesses += 1;
            if (op.isMem()) {
                t.checksum +=
                    mem.accessData(now, op.addr, op.isStore()).readyCycle;
                t.accesses += 1;
            }
            ++now;
        }
    }
    t.memNs += static_cast<double>(hostNowNs() - t0);
    spans.close(s);

    s = spans.open("replay.branch_predictor", parent, bench);
    t0 = hostNowNs();
    {
        HybridBranchPredictor bp;
        for (const MicroOp &op : ops)
            if (op.isBranch()) {
                t.checksum += bp.predictAndUpdate(op.pc, op.taken);
                t.branches += 1;
            }
    }
    t.bpNs += static_cast<double>(hostNowNs() - t0);
    spans.close(s);

    // Stores stay in flight for an SQ's worth of later stores, so
    // loads see non-zero pair counters as they would in the core.
    s = spans.open("replay.store_set", parent, bench);
    t0 = hostNowNs();
    {
        constexpr std::size_t kInFlight = 32;
        StoreSetPredictor ssp;
        std::deque<std::pair<StorePrediction, SeqNum>> inflight;
        for (const MicroOp &op : ops) {
            if (op.isLoad()) {
                LoadPrediction p = ssp.loadFetch(op.pc);
                if (p.hasSet())
                    t.checksum += ssp.counterNonZero(p.ssid);
                t.sspOps += 1;
            } else if (op.isStore()) {
                inflight.emplace_back(ssp.storeFetch(op.pc, op.seq),
                                      op.seq);
                if (inflight.size() > kInFlight) {
                    auto [tag, seq] = inflight.front();
                    inflight.pop_front();
                    ssp.storeIssued(tag, seq);
                    ssp.storeCommitted(tag);
                }
                t.sspOps += 1;
            }
        }
    }
    t.sspNs += static_cast<double>(hostNowNs() - t0);
    spans.close(s);
}

struct SampleTimes
{
    HostProfileSnapshot profile;
    double checkpoints = 0, bytes = 0, ffInsts = 0;
};

/**
 * The sample layer: fast-forward each benchmark, save a checkpoint,
 * restore it once, through the same SimConfig knobs the warm_reuse
 * workload uses. Timed by the HostProfiler phases.
 */
SampleTimes
runSampleReplay(const Workload &wl, const Options &opt,
                std::uint64_t ffInsts, SpanLog &spans,
                std::uint64_t parent)
{
    SampleTimes st;
    const std::uint64_t seed = programSeed(opt.seed, 0);
    HostProfiler::instance().reset();
    HostProfiler::setEnabled(true);
    for (const std::string &bench : wl.benchmarks) {
        std::uint64_t s = spans.open("replay.sample", parent, bench);
        std::string path = ckptPath(opt.workDir, "replay", bench, seed);
        SimConfig save = configs::base(bench);
        save.seed = seed;
        save.ffInsts = ffInsts;
        save.saveCkptPath = path;
        Simulator(save).run();
        st.bytes += static_cast<double>(std::filesystem::file_size(path));

        SimConfig restore = configs::base(bench);
        restore.seed = seed;
        restore.instructions = 1000;
        restore.loadCkptPath = path;
        Simulator(restore).run();
        std::filesystem::remove(path);
        st.checkpoints += 1;
        st.ffInsts += static_cast<double>(ffInsts);
        spans.close(s);
    }
    HostProfiler::setEnabled(false);
    st.profile = HostProfiler::instance().snapshot();
    return st;
}

// --------------------------------------------------------- metrics --

double
phaseSeconds(const HostProfileSnapshot &p, HostPhase phase)
{
    return seconds(p.phases[static_cast<std::size_t>(phase)].estNs);
}

double
phaseCount(const HostProfileSnapshot &p, HostPhase phase)
{
    return static_cast<double>(
        p.phases[static_cast<std::size_t>(phase)].count);
}

/**
 * Per-layer metrics. Seconds are per pass, summed over cells and so
 * over workers; counts are the simulated totals of one pass.
 */
std::vector<Metric>
layerMetrics(const TimedPhase &tp, const ReplayTimes &d,
             const SampleTimes &smp)
{
    const Totals &tot = tp.totals;
    const TracedPasses &tr = tp.traced;
    const HostProfileSnapshot &p = tr.profile;
    auto perPass = [&](HostPhase ph) {
        return phaseSeconds(p, ph) / tr.passes;
    };
    const double searches = tot["sq.searches"] +
                            tot["lq.searches.byload"] +
                            tot["lq.searches.bystore"];
    const double l1d = tot["l1d.hits"] + tot["l1d.misses"];
    const double l2 = tot["l2.hits"] + tot["l2.misses"];
    const double ffS = phaseSeconds(smp.profile, HostPhase::FastForward);
    const double untracedKips = median(tp.kips);
    return {
        {"harness.busy_frac", ratio(tr.busyS, tr.capacityS), "ratio"},
        {"harness.queue_wait_s_p50", median(tr.queueWaitS), "s"},
        {"harness.queue_wait_s_max", maxOf(tr.queueWaitS), "s"},
        {"harness.tail_s", median(tr.tailS), "s"},
        {"harness.poisoned", tr.poisoned, "count"},
        {"sim.cell_count", static_cast<double>(tr.cellS.size()), "count"},
        {"sim.cell_s_p50", median(tr.cellS), "s"},
        {"sim.cell_s_max", maxOf(tr.cellS), "s"},
        {"sim.host_ns_per_cycle",
         ratio(perPass(HostPhase::Run) * 1e9, tot.cycles), "ns/cycle"},
        {"sim.setup_s", perPass(HostPhase::Setup), "s"},
        // Bringing a cell to its measurement start: detailed warm-up,
        // or checkpoint restore in a restoring workload.
        {"sim.warmup_s",
         perPass(HostPhase::Warmup) + perPass(HostPhase::CkptRestore),
         "s"},
        {"sim.run_s", perPass(HostPhase::Run), "s"},
        {"sim.cycles", tot.cycles, "count"},
        {"sim.committed", tot.committed, "count"},
        {"sim.ipc_mean", ratio(tot.ipcSum, tot.cells), "inst/cycle"},
        {"core.fetch_rename_s", perPass(HostPhase::FetchRename), "s"},
        {"core.issue_wakeup_s", perPass(HostPhase::IssueWakeup), "s"},
        {"core.commit_s", perPass(HostPhase::Commit), "s"},
        {"core.run_other_s", perPass(HostPhase::RunOther), "s"},
        {"core.issued", tot["core.issued"], "count"},
        {"core.squash_total", tot["squash.total"], "count"},
        {"core.squash_insts", tot["squash.instructions"], "count"},
        {"core.dispatch_lq_full", tot["dispatch.lqfull"], "count"},
        {"core.dispatch_sq_full", tot["dispatch.sqfull"], "count"},
        {"lsq.search_forward_s", perPass(HostPhase::LsqSearch), "s"},
        {"lsq.ns_per_search",
         ratio(perPass(HostPhase::LsqSearch) * 1e9, searches),
         "ns/search"},
        {"lsq.sq_searches", tot["sq.searches"], "count"},
        {"lsq.lq_searches",
         tot["lq.searches.byload"] + tot["lq.searches.bystore"], "count"},
        {"lsq.sq_match_ratio",
         ratio(tot["sq.searches.matched"], tot["sq.searches"]), "ratio"},
        {"lsq.segments_per_sq_search", ratio(tot.segSum, tot.segSamples),
         "segments/search"},
        {"lsq.port_stalls",
         tot["loads.lsq.portstall"] + tot["stores.lsq.portstall"],
         "count"},
        {"lsq.lb_searches", tot["lb.searches"], "count"},
        {"predictor.mispredict_ratio",
         ratio(tot["fetch.mispredicts"], tot["core.committed.branches"]),
         "ratio"},
        {"predictor.pair_nomatch_ratio",
         ratio(tot["pair.pred.dependent.nomatch"],
               tot["pair.pred.dependent"]),
         "ratio"},
        {"predictor.bp_ns_per_branch", ratio(d.bpNs, d.branches),
         "ns/branch"},
        {"predictor.ssp_ns_per_op", ratio(d.sspNs, d.sspOps), "ns/op"},
        {"memory.l1d_miss_ratio", ratio(tot["l1d.misses"], l1d), "ratio"},
        {"memory.l2_miss_ratio", ratio(tot["l2.misses"], l2), "ratio"},
        {"memory.ns_per_access", ratio(d.memNs, d.accesses), "ns/access"},
        {"workload.ns_per_inst", ratio(d.genNs, d.insts), "ns/inst"},
        {"sample.ff_s", ratio(ffS, smp.checkpoints), "s"},
        {"sample.ff_minsts_per_s", ratio(smp.ffInsts / 1e6, ffS),
         "Minst/s"},
        {"sample.ckpt_save_s",
         ratio(phaseSeconds(smp.profile, HostPhase::CkptSave),
               smp.checkpoints),
         "s"},
        {"sample.ckpt_restore_s",
         ratio(phaseSeconds(smp.profile, HostPhase::CkptRestore),
               phaseCount(smp.profile, HostPhase::CkptRestore)),
         "s"},
        {"sample.ckpt_bytes", ratio(smp.bytes, smp.checkpoints), "B"},
        {"bench.trace_overhead_pct",
         100.0 * ratio(untracedKips - median(tp.tracedKips), untracedKips),
         "%"},
    };
}

/**
 * Peak resident set of this program, in MiB. VmHWM rather than
 * getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so a
 * child of a larger launcher (python3 run.py) would report the
 * launcher's peak.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        LSQ_FATAL("cannot read /proc/self/status");
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(f);
    if (kib <= 0)
        LSQ_FATAL("no VmHWM in /proc/self/status");
    return kib / 1024.0;
}

std::string
renderResult(const Workload &wl, const Options &opt, const TimedPhase &tp,
             const std::vector<Metric> &metrics)
{
    std::string out = strfmt(
        "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"smoke\": %s, \"passes\": %u, \"attempted\": %llu, "
        "\"failed\": %llu, \"metrics\": {",
        wl.name.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.trace ? 1 : 0, opt.smoke ? "true" : "false", tp.passes,
        static_cast<unsigned long long>(tp.attempted),
        static_cast<unsigned long long>(tp.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += strfmt("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      jsonNumber(metrics[i].value, "%.17g").c_str(),
                      metrics[i].unit.c_str());
    out += "}, \"cells\": [";
    const char *sep = "";
    for (const CellDigest &c : tp.firstPass) {
        out += strfmt("%s{\"cell\": \"%s\", \"cycles\": %llu, "
                      "\"committed\": %llu, \"sq_searches\": %llu, "
                      "\"lq_searches\": %llu, \"stats_fnv\": \"%016llx\"}",
                      sep, jsonEscape(c.cell).c_str(),
                      static_cast<unsigned long long>(c.cycles),
                      static_cast<unsigned long long>(c.committed),
                      static_cast<unsigned long long>(c.sqSearches),
                      static_cast<unsigned long long>(c.lqSearches),
                      static_cast<unsigned long long>(c.statsFnv));
        sep = ", ";
    }
    return out + "]}";
}

} // namespace

int
main(int argc, char **argv)
{
    refuseLsqscaleEnvironment();
    Options opt = parseArgs(argc, argv);
    auto found = std::find_if(
        workloads().begin(), workloads().end(),
        [&](const Workload &w) { return w.name == opt.workload; });
    if (found == workloads().end())
        usage(strfmt("unknown workload '%s'", opt.workload.c_str())
                  .c_str());
    const Workload wl = opt.smoke ? smokeOf(*found) : *found;
    std::filesystem::create_directories(opt.workDir);

    SpanLog spans(opt.trace);
    std::uint64_t root = spans.open("workload", 0);

    // Set-up, repeated; the last repetition's grid and checkpoints are
    // the ones the timed phase uses.
    std::vector<NamedConfig> grid;
    std::vector<double> setupS; ///< per block, its fastest repetition
    for (unsigned b = 0; b < (opt.smoke ? 1 : kSetupBlocks); ++b) {
        double fastestS = setUp(wl, opt, grid, spans, root);
        for (double spentS = fastestS; !opt.smoke && spentS < kSetupBlockS;) {
            double s = setUp(wl, opt, grid, spans, root);
            fastestS = std::min(fastestS, s);
            spentS += s;
        }
        setupS.push_back(fastestS);
    }

    TimedPhase tp = runTimedPhase(wl, opt, grid, spans, root);

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {{"sim_kips", median(tp.kips), "kinst/s"},
                   {"setup_s", median(setupS), "s"},
                   {"peak_rss_mb", peakRssMb(), "MB"}};
    } else {
        std::uint64_t replays = spans.open("replays", root);
        ReplayTimes d;
        const std::uint64_t nOps = opt.smoke ? kSmokeInsts : kReplayOps;
        for (const std::string &bench : wl.benchmarks)
            runLayerReplays(bench, programSeed(opt.seed, 0), nOps, d, spans,
                            replays);
        SampleTimes smp = runSampleReplay(
            wl, opt, opt.smoke ? kSmokeInsts : kReplayFfInsts, spans,
            replays);
        spans.close(replays);
        std::fprintf(stderr, "lsqbench: replay checksum %016llx\n",
                     static_cast<unsigned long long>(d.checksum));
        metrics = layerMetrics(tp, d, smp);
    }
    spans.close(root);
    if (opt.trace && !opt.spansDir.empty()) {
        std::string path = opt.spansDir + "/spans_" + wl.name + ".json";
        if (!writeFileCreatingDirs(path, spans.toJson(wl.name)))
            LSQ_FATAL("cannot write %s", path.c_str());
    }
    if (wl.ffInsts > 0)
        for (unsigned k = 0; k < wl.programs; ++k)
            for (const std::string &bench : wl.benchmarks)
                std::filesystem::remove(ckptPath(
                    opt.workDir, wl.name, bench, programSeed(opt.seed, k)));

    std::printf("%s\n", renderResult(wl, opt, tp, metrics).c_str());
    return 0;
}
