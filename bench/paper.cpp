/**
 * @file
 * The paper's whole evaluation from one driver: Table 2, Figures 6-12,
 * Tables 3-6 and the two ablations.
 *
 * Every design point is the Table 1 base machine plus a few modifiers,
 * and the figures share most of them. So the driver keeps two tables:
 *
 *  - the design catalog: every distinct design point once, under a
 *    unique label (the `config` field of the sweep's JSON records);
 *  - the figure table: one entry per table or figure, naming the
 *    catalog designs it reads and the renderer that prints it.
 *
 * One sweep runs the union of the designs the selected figures read,
 * in catalog order, so each (design, benchmark) cell runs once. Then
 * every selected figure prints, in paper order.
 *
 * Usage: paper [--only NAME]
 *
 * `--only NAME` runs and prints one figure (tab2, fig6 ... abl_seed).
 * Each cell measures 300k instructions per benchmark (the paper uses
 * 500M on real SPEC2K; our synthetic streams reach steady state much
 * sooner). The LSQSCALE_* environment variables of docs/HARNESS.md
 * apply: LSQSCALE_INSTS shrinks the budget, LSQSCALE_BENCH picks
 * benchmarks, LSQSCALE_JOBS sets the worker count, LSQSCALE_CSV_DIR
 * and LSQSCALE_JSON_DIR write CSV tables and BENCH_paper.json.
 *
 * Exit status: 0 when every cell ran, 1 when any cell was poisoned
 * (its tables still print, reading 0 for that cell), 2 on bad
 * arguments.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "workload/benchmark_profile.hh"

using namespace lsqscale;

namespace {

using Rows = std::vector<ResultRow>;
using Columns = std::vector<std::pair<std::string, std::vector<double>>>;

// ------------------------------------------------------- catalog ----

/** The Table 1 base machine, measured over 300k instructions. */
SimConfig
benchBase(const std::string &benchmark)
{
    SimConfig cfg = configs::base(benchmark);
    cfg.instructions = 300000;
    return cfg;
}

/**
 * A catalog design: @p modify applied to benchBase, with @p args after
 * the config, e.g. design("4-port", configs::withPorts, 4u).
 */
template <class Modify, class... Args>
NamedConfig
design(std::string label, Modify modify, Args... args)
{
    return {std::move(label), [=](const std::string &b) {
                return modify(benchBase(b), args...);
            }};
}

SimConfig
selfCircular(SimConfig cfg)
{
    return configs::withSegmentation(std::move(cfg), 4, 28,
                                     SegAllocPolicy::SelfCircular);
}

/** Figure 10's two techniques: pair predictor + 2-entry load buffer. */
SimConfig
withTechniques(SimConfig cfg)
{
    cfg = configs::withPairPredictor(std::move(cfg));
    cfg = configs::withLoadBuffer(std::move(cfg), 2);
    return cfg;
}

SimConfig
withWakeupPenalty(SimConfig cfg, unsigned penalty)
{
    cfg = selfCircular(std::move(cfg));
    cfg.lsq.lateWakeupPenalty = penalty;
    return cfg;
}

SimConfig
withMemDep(SimConfig cfg, MemDepPolicy policy)
{
    cfg.core.memDepPolicy = policy;
    return cfg;
}

SimConfig
withSeed(SimConfig cfg, std::uint64_t seed)
{
    cfg.seed = seed;
    return cfg;
}

SimConfig
allTechniquesWithSeed(SimConfig cfg, std::uint64_t seed)
{
    return withSeed(configs::allTechniques(std::move(cfg)), seed);
}

/** Every distinct design point, in order of first use. */
const std::vector<NamedConfig> &
catalog()
{
    static const std::vector<NamedConfig> designs = {
        design("base", [](SimConfig c) { return c; }),
        design("perfect", configs::withPerfectPredictor),
        design("aggressive", configs::withAggressivePredictor),
        design("pair", configs::withPairPredictor),
        design("load buffer (2)", configs::withLoadBuffer, 2u),
        design("in-order, always search", configs::withInOrderLoads, true),
        design("load buffer (0)", configs::withInOrderLoads, false),
        design("load buffer (1)", configs::withLoadBuffer, 1u),
        design("load buffer (4)", configs::withLoadBuffer, 4u),
        design("1-port", configs::withPorts, 1u),
        design("1-port + techniques",
               [](SimConfig c) {
                   return configs::withPorts(withTechniques(c), 1);
               }),
        design("2-port + techniques", withTechniques),
        design("4-port", configs::withPorts, 4u),
        design("no-self-circular 4x28", configs::withSegmentation, 4u, 28u,
               SegAllocPolicy::NoSelfCircular),
        design("self-circular 4x28", selfCircular),
        design("flat 128-entry", configs::withQueueSize, 128u),
        design("all techniques", configs::allTechniques),
        design("scaled base", configs::scaledProcessor),
        design("scaled all techniques",
               [](SimConfig c) {
                   return configs::allTechniques(
                       configs::scaledProcessor(c));
               }),
        design("self-circular 4x28, stall",
               [](SimConfig c) {
                   c = selfCircular(c);
                   c.lsq.contentionPolicy = ContentionPolicy::Stall;
                   return c;
               }),
        design("self-circular 4x28, wakeup penalty 0", withWakeupPenalty,
               0u),
        design("self-circular 4x28, wakeup penalty 4", withWakeupPenalty,
               4u),
        design("split 4x14+4x14", configs::withSegmentation, 4u, 14u,
               SegAllocPolicy::SelfCircular),
        design("combined 4x28",
               [](SimConfig c) {
                   return configs::withCombinedQueue(selfCircular(c), 28);
               }),
        design("blind speculation", withMemDep,
               MemDepPolicy::BlindSpeculation),
        design("total order", withMemDep, MemDepPolicy::TotalOrder),
        design("base, seed 2", withSeed, 2u),
        design("all techniques, seed 2", allTechniquesWithSeed, 2u),
        design("base, seed 3", withSeed, 3u),
        design("all techniques, seed 3", allTechniquesWithSeed, 3u),
    };
    return designs;
}

// ----------------------------------------------------- renderers ----
//
// Each renderer gets one ResultRow per design its figure reads, in the
// order the figure table lists them.

/**
 * Table 2: applications and their base IPCs.
 *
 * The measured IPC of the base machine next to the IPC the paper
 * reports. Absolute agreement is not expected (the workloads are
 * synthetic substitutes for SPEC2K); the ordering — which benchmarks
 * are memory-bound (mcf, art), which are ILP-rich (perl, mesa,
 * sixtrack, wupwise) — should match.
 */
void
renderTab2(const ExperimentRunner &, const Rows &rows)
{
    const ResultRow &row = rows[0];

    TextTable t;
    t.header({"benchmark", "type", "measured IPC", "paper IPC",
              "L1D miss%", "br mpki"});
    for (std::size_t i = 0; i < row.size(); ++i) {
        const SimResult &r = row[i];
        const BenchmarkProfile &p = profileFor(r.benchmark);
        double l1dAcc =
            static_cast<double>(r.stats.value("l1d.hits") +
                                r.stats.value("l1d.misses"));
        double l1dMiss =
            l1dAcc > 0 ? 100.0 * r.stats.value("l1d.misses") / l1dAcc
                       : 0.0;
        double mpki = 1000.0 * r.stats.value("fetch.mispredicts") /
                      std::max<std::uint64_t>(r.committed, 1);
        t.row({r.benchmark, p.isFp ? "FP" : "INT",
               TextTable::num(r.ipc(), 2),
               TextTable::num(p.paperBaseIpc, 1),
               TextTable::num(l1dMiss, 1), TextTable::num(mpki, 1)});
    }
    std::printf("== Table 2: applications and their base IPCs ==\n%s",
                t.render().c_str());
}

/**
 * Figure 6: search bandwidth reduction in the store queue by using
 * different predictors.
 *
 * SQ search demand normalized to the base case (a two-ported
 * conventional LSQ where every load searches the SQ). Expected shape:
 * perfect ~0.14 of base on average, aggressive slightly above, pair
 * predictor ~0.25-0.35.
 */
void
renderFig6(const ExperimentRunner &runner, const Rows &rows)
{
    const char *labels[] = {"perfect", "aggressive", "pair"};
    auto searches = [](const SimResult &r) {
        return static_cast<double>(r.sqSearches());
    };

    Columns cols;
    for (std::size_t i = 1; i < rows.size(); ++i)
        cols.emplace_back(labels[i - 1],
                          runner.normalized(rows[0], rows[i], searches));

    std::printf("%s",
                runner.table("Figure 6: SQ search demand relative to a "
                             "conventional store queue",
                             cols, false)
                    .c_str());
}

/**
 * Figure 7: performance benefit from the search bandwidth reduction in
 * the store queue.
 *
 * Expected shape: near-zero mean benefit (two ports already provide
 * enough bandwidth), with the aggressive predictor *hurting*
 * squash-prone benchmarks (the paper highlights vortex and wupwise).
 */
void
renderFig7(const ExperimentRunner &runner, const Rows &rows)
{
    const char *labels[] = {"perfect", "aggressive", "pair"};
    Columns cols;
    for (std::size_t i = 1; i < rows.size(); ++i)
        cols.emplace_back(labels[i - 1],
                          runner.speedups(rows[0], rows[i]));

    std::printf("%s",
                runner.table("Figure 7: speedup over a 2-ported "
                             "conventional store queue",
                             cols, true)
                    .c_str());
}

/**
 * Table 3: accuracy of the store-load pair predictor.
 *
 * Mispred.: among loads the predictor sent to search the store queue,
 * the fraction whose search found no matching store (a wasted search —
 * the paper's 0-28% column). Squash: store-load order violations
 * detected at store commit (a predicted-independent load that did
 * match), per committed instruction (the paper's 1e-6..1e-3 column).
 */
void
renderTab3(const ExperimentRunner &, const Rows &rows)
{
    TextTable t;
    t.header({"benchmark", "Mispred.", "Squash", "searches/load"});
    for (const auto &r : rows[0]) {
        double dep =
            static_cast<double>(r.stats.value("pair.pred.dependent"));
        double nomatch = static_cast<double>(
            r.stats.value("pair.pred.dependent.nomatch"));
        double mispred = dep > 0 ? nomatch / dep : 0.0;
        double squash =
            static_cast<double>(
                r.stats.value("squash.storeload.commit")) /
            static_cast<double>(std::max<std::uint64_t>(r.committed, 1));
        double perLoad =
            static_cast<double>(r.sqSearches()) /
            static_cast<double>(std::max<std::uint64_t>(
                r.stats.value("core.committed.loads"), 1));
        t.row({r.benchmark, TextTable::num(mispred * 100.0, 1) + "%",
               TextTable::num(squash, 6), TextTable::num(perLoad, 3)});
    }
    std::printf("%s",
                ("== Table 3: accuracy of the store-load pair "
                 "predictor ==\n" +
                 t.render())
                    .c_str());
}

/**
 * Figure 8: search bandwidth reduction in the load queue by using the
 * load buffer.
 *
 * LQ search demand (load-initiated load-load checks plus store
 * violation checks) of a 2-entry load buffer, normalized to the
 * conventional load queue. Expected shape: ~0.25 on average; best on
 * load-heavy mgrid, worst on store-heavy vortex (store searches
 * remain).
 */
void
renderFig8(const ExperimentRunner &runner, const Rows &rows)
{
    auto searches = [](const SimResult &r) {
        return static_cast<double>(r.lqSearches());
    };

    Columns cols = {
        {"LQ demand vs base",
         runner.normalized(rows[0], rows[1], searches)},
    };
    std::printf("%s",
                runner.table("Figure 8: LQ search demand relative to a "
                             "conventional load queue (2-entry load "
                             "buffer)",
                             cols, false)
                    .c_str());
}

/**
 * Table 4: average number of loads issued out of program order.
 *
 * The per-cycle average count of in-flight loads that issued while an
 * older load was still non-issued (and have not yet been passed by the
 * NILP). The paper reports small values (< 3 on average) — the
 * observation that justifies a tiny load buffer.
 */
void
renderTab4(const ExperimentRunner &, const Rows &rows)
{
    const ResultRow &row = rows[0];

    TextTable t;
    t.header({"benchmark", "avg ooo loads", "max bucket >= 8"});
    double sum = 0;
    for (const auto &r : row) {
        const Histogram &h = r.stats.getHistogram("ooo.inflight");
        double tail = 0;
        for (std::size_t i = 8; i < h.numBuckets(); ++i)
            tail += h.fraction(i);
        t.row({r.benchmark, TextTable::num(h.mean(), 2),
               TextTable::num(tail * 100.0, 2) + "%"});
        sum += h.mean();
    }
    t.separator();
    t.row({"Avg", TextTable::num(sum / row.size(), 2), ""});
    std::printf("%s",
                ("== Table 4: average number of loads issued out of "
                 "program order ==\n" +
                 t.render())
                    .c_str());
}

/**
 * Figure 9: performance benefit from the search bandwidth reduction in
 * the load queue.
 *
 * In-order-always-search (loads issue in order AND still search the
 * LQ), the 0-entry load buffer (in-order issue, no searches), and
 * 1/2/4-entry load buffers. Expected shape: in-order issue loses;
 * 1 entry recovers most of the loss; 2 entries ~= 4 entries.
 */
void
renderFig9(const ExperimentRunner &runner, const Rows &rows)
{
    const char *labels[] = {"in-order-always-search",
                            "0-entry (in-order)", "1-entry", "2-entry",
                            "4-entry"};
    Columns cols;
    for (std::size_t i = 1; i < rows.size(); ++i)
        cols.emplace_back(labels[i - 1],
                          runner.speedups(rows[0], rows[i]));

    std::printf("%s",
                runner.table("Figure 9: speedup over a conventional "
                             "load queue",
                             cols, true)
                    .c_str());
}

/**
 * Figure 10: performance benefit from combining the two search
 * bandwidth reduction techniques.
 *
 * Expected shape: 1-port conventional drops sharply (the paper reports
 * -24% average); 1-port + techniques beats the 2-port base; 2-port +
 * techniques ~= 4-port conventional.
 */
void
renderFig10(const ExperimentRunner &runner, const Rows &rows)
{
    const char *labels[] = {"1-port conventional",
                            "1-port + techniques",
                            "2-port + techniques",
                            "4-port conventional"};
    Columns cols;
    for (std::size_t i = 1; i < rows.size(); ++i)
        cols.emplace_back(labels[i - 1],
                          runner.speedups(rows[0], rows[i]));

    std::printf("%s",
                runner.table("Figure 10: speedup over a 2-ported "
                             "conventional LSQ",
                             cols, true)
                    .c_str());
}

/**
 * Figure 11: performance benefit from the segmentation of the
 * load/store queue.
 *
 * Expected shape: self-circular > no-self-circular; no-self-circular
 * loses on low-occupancy INT benchmarks; FP gains are much larger than
 * INT gains; self-circular can beat the flat 128-entry queue on
 * bandwidth.
 */
void
renderFig11(const ExperimentRunner &runner, const Rows &rows)
{
    const char *labels[] = {"no-self-circular 4x28",
                            "self-circular 4x28", "flat 128-entry"};
    Columns cols;
    for (std::size_t i = 1; i < rows.size(); ++i)
        cols.emplace_back(labels[i - 1],
                          runner.speedups(rows[0], rows[i]));

    std::printf("%s",
                runner.table("Figure 11: speedup over a 32-entry "
                             "conventional LSQ",
                             cols, true)
                    .c_str());
}

/**
 * Table 5: average number of entries *needed* in the load and store
 * queues — measured on a large (128+128) queue so demand is not
 * capped by the base machine's 32 entries.
 *
 * The paper uses this to explain Figure 11: INT benchmarks whose
 * working set fits one 28-entry segment lose under no-self-circular
 * allocation, while the FP benchmarks that want 50-90 load entries
 * gain from the added capacity.
 */
void
renderTab5(const ExperimentRunner &, const Rows &rows)
{
    TextTable t;
    t.header({"benchmark", "avg LQ", "avg SQ"});
    for (const auto &r : rows[0]) {
        t.row({r.benchmark,
               TextTable::num(
                   r.stats.getHistogram("lq.occupancy").mean(), 1),
               TextTable::num(
                   r.stats.getHistogram("sq.occupancy").mean(), 1)});
    }
    std::printf("%s",
                ("== Table 5: average number of entries needed in the "
                 "load and store queues ==\n" +
                 t.render())
                    .c_str());
}

/**
 * Table 6: distribution of the number of segments searched by loads
 * looking for the latest store value (self-circular allocation).
 *
 * Expected shape: the vast majority of loads finish within one or two
 * segments (the paper reports 90% in one segment for INT, 79% for FP),
 * so the variable search latency rarely hurts.
 */
void
renderTab6(const ExperimentRunner &, const Rows &rows)
{
    TextTable t;
    t.header({"benchmark", "1", "2", "3", "4"});
    for (const auto &r : rows[0]) {
        const Histogram &h = r.stats.getHistogram("sq.search.segments");
        std::vector<std::string> cells = {r.benchmark};
        for (unsigned k = 1; k <= 4; ++k)
            cells.push_back(
                TextTable::num(h.fraction(k) * 100.0, 1));
        t.row(std::move(cells));
    }
    std::printf("%s",
                ("== Table 6: distribution (%) of segments searched "
                 "by loads for the latest store ==\n" +
                 t.render())
                    .c_str());
}

/**
 * Figure 12: a one-ported LSQ with all three techniques combined (pair
 * predictor + load buffer + self-circular 4x28 segmentation), on
 * today's processor and on a scaled processor (12-wide issue, 96-entry
 * IQ, 3-cycle L1), each against the matching processor's 2-ported
 * conventional 32+32 LSQ. Expected shape: positive everywhere on
 * average, FP >> INT, and larger gains on the scaled processor.
 */
void
renderFig12(const ExperimentRunner &runner, const Rows &rows)
{
    Columns cols = {
        {"today's processor", runner.speedups(rows[0], rows[1])},
        {"scaled processor", runner.speedups(rows[2], rows[3])},
    };
    std::printf("%s",
                runner.table("Figure 12: 1-ported LSQ with all three "
                             "techniques vs the matching 2-ported "
                             "conventional LSQ",
                             cols, true)
                    .c_str());
}

void
printPair(const ExperimentRunner &runner, const std::string &label,
          const ResultRow &base, const ResultRow &test)
{
    auto sp = runner.speedups(base, test);
    std::printf("  %-44s Int %+6.1f%%  Fp %+6.1f%%\n", label.c_str(),
                runner.intAvg(sp) * 100.0, runner.fpAvg(sp) * 100.0);
}

/**
 * Ablation of the design choices DESIGN.md calls out, as Int.Avg /
 * Fp.Avg IPC speedups over the base machine:
 *
 *  1. the segmented queue's contention rule — squash-and-replay (the
 *     paper's choice) vs stalling the pipeline (its stated
 *     alternative);
 *  2. the early-wakeup restriction — the paper foregoes early
 *     scheduling for variable-latency loads; how much does that
 *     penalty matter (0 / 2 / 4 cycles; 2 is the default)?
 *  3. commit-time vs execute-time violation checking under the pair
 *     predictor (the paper argues commit-time detection costs little
 *     because mispredictions are rare);
 *  4. split vs combined segmented queues at equal total entries;
 *  5. the memory-dependence discipline without the predictor.
 */
void
renderAblDesign(const ExperimentRunner &runner, const Rows &rows)
{
    const ResultRow &base = rows[0];

    std::printf("== Ablation: segmentation contention policy ==\n");
    printPair(runner, "squash-and-replay (paper)", base, rows[1]);
    printPair(runner, "stall until ports free", base, rows[2]);

    std::printf("\n== Ablation: forgone early wakeup penalty ==\n");
    for (unsigned pen : {0u, 2u, 4u})
        printPair(runner,
                  "lateWakeupPenalty = " + std::to_string(pen), base,
                  rows[3 + pen / 2]);

    std::printf("\n== Ablation: violation detection point (pair "
                "predictor) ==\n");
    printPair(runner, "detect at store commit (paper)", base, rows[6]);
    // Detecting at store execute instead is unsound with pair
    // prediction: a load that skipped its SQ search can execute just
    // after an older store's execute-time LQ search and before that
    // store commits, so no search ever sees the stale value it read
    // (EXPERIMENTS.md).
    std::printf("  detect at store execute: unsound, not run\n");

    std::printf("\n== Ablation: split vs combined queue "
                "(equal total entries) ==\n");
    printPair(runner, "split queues, 14+14 per segment", base, rows[7]);
    printPair(runner, "combined queue, 28 shared per segment", base,
              rows[8]);

    std::printf("\n== Ablation: memory-dependence discipline ==\n");
    printPair(runner, "blind speculation (no predictor)", base, rows[9]);
    printPair(runner, "total order (no speculation)", base, rows[10]);
}

/**
 * Robustness check: are the headline Figure 12 conclusions an artifact
 * of one synthetic-workload seed? The combined-techniques comparison
 * under seeds 1 (the default), 2 and 3, with the spread of the INT/FP
 * average speedups.
 */
void
renderAblSeed(const ExperimentRunner &runner, const Rows &rows)
{
    std::vector<double> intAvgs, fpAvgs;
    for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
        auto sp = runner.speedups(rows[i], rows[i + 1]);
        intAvgs.push_back(runner.intAvg(sp));
        fpAvgs.push_back(runner.fpAvg(sp));
        std::printf("seed %llu: Int %+5.1f%%  Fp %+5.1f%%\n",
                    static_cast<unsigned long long>(i / 2 + 1),
                    intAvgs.back() * 100.0, fpAvgs.back() * 100.0);
    }

    auto meanStd = [](const std::vector<double> &v) {
        double m = 0;
        for (double x : v)
            m += x;
        m /= static_cast<double>(v.size());
        double s = 0;
        for (double x : v)
            s += (x - m) * (x - m);
        s = std::sqrt(s / static_cast<double>(v.size()));
        return std::pair<double, double>(m, s);
    };
    auto [im, is] = meanStd(intAvgs);
    auto [fm, fs] = meanStd(fpAvgs);
    std::printf("\nFigure 12 combined speedup across seeds:\n");
    std::printf("  Int.Avg %+5.1f%% (stddev %.1f pts)\n", im * 100.0,
                is * 100.0);
    std::printf("  Fp.Avg  %+5.1f%% (stddev %.1f pts)\n", fm * 100.0,
                fs * 100.0);
}

// -------------------------------------------------- figure table ----

struct Figure
{
    const char *name;
    /** Catalog labels the renderer reads, in the order it reads them. */
    std::vector<std::string> designs;
    void (*render)(const ExperimentRunner &, const Rows &);
};

/** Every table and figure, in print order. */
const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> table = {
        {"tab2", {"base"}, renderTab2},
        {"fig6", {"base", "perfect", "aggressive", "pair"}, renderFig6},
        {"fig7", {"base", "perfect", "aggressive", "pair"}, renderFig7},
        {"tab3", {"pair"}, renderTab3},
        {"fig8", {"base", "load buffer (2)"}, renderFig8},
        {"tab4", {"base"}, renderTab4},
        {"fig9",
         {"base", "in-order, always search", "load buffer (0)",
          "load buffer (1)", "load buffer (2)", "load buffer (4)"},
         renderFig9},
        {"fig10",
         {"base", "1-port", "1-port + techniques", "2-port + techniques",
          "4-port"},
         renderFig10},
        {"fig11",
         {"base", "no-self-circular 4x28", "self-circular 4x28",
          "flat 128-entry"},
         renderFig11},
        {"tab5", {"flat 128-entry"}, renderTab5},
        {"tab6", {"self-circular 4x28"}, renderTab6},
        {"fig12",
         {"base", "all techniques", "scaled base",
          "scaled all techniques"},
         renderFig12},
        {"abl_design",
         {"base", "self-circular 4x28", "self-circular 4x28, stall",
          "self-circular 4x28, wakeup penalty 0", "self-circular 4x28",
          "self-circular 4x28, wakeup penalty 4", "pair",
          "split 4x14+4x14", "combined 4x28", "blind speculation",
          "total order"},
         renderAblDesign},
        {"abl_seed",
         {"base", "all techniques", "base, seed 2",
          "all techniques, seed 2", "base, seed 3",
          "all techniques, seed 3"},
         renderAblSeed},
    };
    return table;
}

int
usage(const char *error)
{
    std::string names;
    for (const Figure &f : figures())
        names += std::string(" ") + f.name;
    std::fprintf(stderr,
                 "paper: %s\nusage: paper [--only NAME]\nnames:%s\n",
                 error, names.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::size_t> catalogIndex;
    for (const NamedConfig &d : catalog())
        LSQ_ASSERT(catalogIndex.emplace(d.label, catalogIndex.size())
                       .second,
                   "duplicate design label '%s'", d.label.c_str());
    for (const Figure &f : figures())
        for (const std::string &label : f.designs)
            LSQ_ASSERT(catalogIndex.count(label),
                       "%s reads unknown design '%s'", f.name,
                       label.c_str());

    std::vector<const Figure *> selected;
    if (argc == 1) {
        for (const Figure &f : figures())
            selected.push_back(&f);
    } else if (argc == 3 && std::string(argv[1]) == "--only") {
        for (const Figure &f : figures())
            if (f.name == std::string(argv[2]))
                selected.push_back(&f);
        if (selected.empty())
            return usage(("unknown name '" + std::string(argv[2]) + "'")
                             .c_str());
    } else {
        return usage("bad arguments");
    }

    // The union of the designs the selected figures read, in catalog
    // order, runs as one sweep.
    std::vector<bool> used(catalog().size(), false);
    for (const Figure *f : selected)
        for (const std::string &label : f->designs)
            used[catalogIndex.at(label)] = true;
    std::vector<NamedConfig> designs;
    std::map<std::string, std::size_t> rowOf;
    for (std::size_t i = 0; i < catalog().size(); ++i) {
        if (used[i]) {
            rowOf[catalog()[i].label] = designs.size();
            designs.push_back(catalog()[i]);
        }
    }

    ExperimentRunner runner;
    std::size_t poisoned = 0;
    Rows results = runner.runAll(designs, &poisoned);

    for (const Figure *f : selected) {
        Rows rows;
        for (const std::string &label : f->designs)
            rows.push_back(results[rowOf.at(label)]);
        f->render(runner, rows);
    }
    // Poisoned cells still print (as zeros), but the run failed.
    return poisoned == 0 ? 0 : 1;
}
