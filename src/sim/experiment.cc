// lsqlint: layer(harness) -- experiment runner implementation over harness sweep/sink/journal
#include "sim/experiment.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include <filesystem>
#include <system_error>

#include "common/logging.hh"
#include "harness/journal.hh"
#include "harness/sink.hh"

namespace lsqscale {

namespace {

std::vector<std::string>
benchOverrideFromEnv(std::vector<std::string> defaults)
{
    const char *env = std::getenv("LSQSCALE_BENCH");
    if (!env || !*env)
        return defaults;
    std::vector<std::string> out;
    std::stringstream ss(env);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out.empty() ? defaults : out;
}

bool
isIntBench(const std::string &name)
{
    const auto &v = intBenchmarks();
    return std::find(v.begin(), v.end(), name) != v.end();
}

/** Short name of the running program (for BENCH_*.json files). */
std::string
programName()
{
#ifdef __GLIBC__
    if (program_invocation_short_name && *program_invocation_short_name)
        return program_invocation_short_name;
#endif
    return "sweep";
}

/**
 * The LSQSCALE_JSON_DIR trajectory sink: first sweep of the process
 * writes BENCH_<program>.json, later ones BENCH_<program>_2.json and
 * so on. runAll() is only ever entered from the main thread (the
 * harness parallelism lives *inside* a sweep), so a plain counter is
 * safe here.
 */
std::unique_ptr<JsonFileSink>
envJsonSink(const std::string &sweepName, unsigned jobs,
            std::size_t cells)
{
    const char *dir = std::getenv("LSQSCALE_JSON_DIR");
    if (!dir || !*dir)
        return nullptr;
    static unsigned sweepOrdinal = 0;
    ++sweepOrdinal;
    std::string path = std::string(dir) + "/BENCH_" + sweepName;
    if (sweepOrdinal > 1)
        path += strfmt("_%u", sweepOrdinal);
    path += ".json";
    std::map<std::string, std::string> meta = {
        {"program", sweepName},
        {"jobs", strfmt("%u", jobs)},
        {"cells", strfmt("%zu", cells)},
    };
    if (const char *insts = std::getenv("LSQSCALE_INSTS"))
        meta["insts_override"] = insts;
    if (const char *bench = std::getenv("LSQSCALE_BENCH"))
        meta["bench_override"] = bench;
    return std::make_unique<JsonFileSink>(path, std::move(meta));
}

/**
 * The journal sink (LSQSCALE_JOURNAL): mirrors the JSON sink's naming
 * scheme — first sweep JOURNAL_<program>.journal, later ones _2, _3...
 * — so a multi-sweep bench journals each sweep separately. An
 * LSQSCALE_RESUME path targets exactly one journal file, so it
 * applies only to the FIRST sweep of the process; a resumed journal is
 * appended to in place, whatever directory it lives in.
 */
struct JournalSetup
{
    std::unique_ptr<JournalWriter> writer;
    bool haveResume = false;
    JournalContents resume;
};

JournalSetup
envJournalSink(const std::string &sweepName)
{
    JournalSetup setup;
    static unsigned journalOrdinal = 0;
    ++journalOrdinal;

    const char *resumePath = std::getenv("LSQSCALE_RESUME");
    if (resumePath && *resumePath && journalOrdinal == 1) {
        std::string error;
        if (readJournal(resumePath, setup.resume, error)) {
            setup.haveResume = true;
            setup.writer =
                std::make_unique<JournalWriter>(resumePath, true);
            return setup;
        }
        LSQ_WARN("cannot resume from %s: %s; running from scratch",
                 resumePath, error.c_str());
    }

    const char *dirEnv = std::getenv("LSQSCALE_JOURNAL");
    if (!dirEnv || !*dirEnv)
        return setup;
    std::string dir = dirEnv;
    std::string path = dir + "/JOURNAL_" + sweepName;
    if (journalOrdinal > 1)
        path += strfmt("_%u", journalOrdinal);
    path += ".journal";
    // The journal writer appends record-by-record, outside the atomic
    // write-then-rename path, so make sure the directory exists first.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        LSQ_WARN("cannot create journal directory %s: %s", dir.c_str(),
                 ec.message().c_str());
        return setup;
    }
    setup.writer = std::make_unique<JournalWriter>(path, false);
    return setup;
}

} // namespace

SimResult
runSimulationJob(const SimConfig &config)
{
    Simulator sim(config);
    return sim.run();
}

ExperimentRunner::ExperimentRunner(std::vector<std::string> benchmarks)
    : benchmarks_(benchOverrideFromEnv(std::move(benchmarks)))
{
}

ResultRow
ExperimentRunner::run(const NamedConfig &config) const
{
    std::vector<ResultRow> rows = runAll({config});
    return std::move(rows.front());
}

std::vector<ResultRow>
ExperimentRunner::runAll(const std::vector<NamedConfig> &configs) const
{
    SweepOptions opts;
    opts.jobs = jobs_;
    opts.name = programName();

    Sweep sweep(configs, benchmarks_, opts);
    sweep.setJobFn(runSimulationJob);

    ProgressSink progress;
    sweep.addSink(&progress);
    auto json = envJsonSink(opts.name,
                            resolveJobs(jobs_, configs.size() *
                                                   benchmarks_.size()),
                            configs.size() * benchmarks_.size());
    if (json)
        sweep.addSink(json.get());
    JournalSetup journal = envJournalSink(opts.name);
    if (journal.writer)
        sweep.addSink(journal.writer.get());
    if (journal.haveResume)
        sweep.setResume(std::move(journal.resume));

    SweepOutcome outcome = sweep.run();

    if (outcome.poisonedCells > 0) {
        // Graceful degradation: keep rendering (poisoned cells read
        // as zero), but make sure the process cannot exit 0.
        logLine(stderr, outcome.summary());
        noteSweepFailures(outcome.poisonedCells);
    }

    std::vector<ResultRow> rows;
    rows.reserve(outcome.grid.size());
    for (auto &gridRow : outcome.grid) {
        ResultRow row;
        row.reserve(gridRow.size());
        for (auto &cell : gridRow)
            row.push_back(std::move(cell.result));
        rows.push_back(std::move(row));
    }
    return rows;
}

double
ExperimentRunner::intAvg(const std::vector<double> &values) const
{
    LSQ_ASSERT(values.size() == benchmarks_.size(),
               "metric/benchmark size mismatch");
    double sum = 0;
    unsigned n = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (isIntBench(benchmarks_[i])) {
            sum += values[i];
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

double
ExperimentRunner::fpAvg(const std::vector<double> &values) const
{
    LSQ_ASSERT(values.size() == benchmarks_.size(),
               "metric/benchmark size mismatch");
    double sum = 0;
    unsigned n = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (!isIntBench(benchmarks_[i])) {
            sum += values[i];
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

std::vector<double>
ExperimentRunner::speedups(const ResultRow &base,
                           const ResultRow &test) const
{
    LSQ_ASSERT(base.size() == test.size(), "row size mismatch");
    std::vector<double> out;
    out.reserve(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        double b = base[i].ipc();
        out.push_back(b > 0 ? test[i].ipc() / b - 1.0 : 0.0);
    }
    return out;
}

std::vector<double>
ExperimentRunner::normalized(
    const ResultRow &base, const ResultRow &test,
    const std::function<double(const SimResult &)> &fn) const
{
    LSQ_ASSERT(base.size() == test.size(), "row size mismatch");
    std::vector<double> out;
    out.reserve(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        double b = fn(base[i]);
        out.push_back(b > 0 ? fn(test[i]) / b : 0.0);
    }
    return out;
}

std::string
ExperimentRunner::csv(
    const std::vector<std::pair<std::string, std::vector<double>>>
        &columns) const
{
    std::ostringstream os;
    os << "benchmark";
    for (const auto &c : columns)
        os << "," << c.first;
    os << "\n";
    char buf[32];
    for (std::size_t i = 0; i < benchmarks_.size(); ++i) {
        os << benchmarks_[i];
        for (const auto &c : columns) {
            LSQ_ASSERT(c.second.size() == benchmarks_.size(),
                       "column '%s' size mismatch", c.first.c_str());
            std::snprintf(buf, sizeof(buf), "%.6f", c.second[i]);
            os << "," << buf;
        }
        os << "\n";
    }
    return os.str();
}

namespace {

/** File-name slug: lowercase alnum, everything else collapsed to _. */
std::string
slugify(const std::string &title)
{
    std::string out;
    bool lastUnderscore = false;
    for (char c : title) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            out.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
            lastUnderscore = false;
        } else if (!lastUnderscore && !out.empty()) {
            out.push_back('_');
            lastUnderscore = true;
        }
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out.empty() ? "table" : out;
}

} // namespace

std::string
ExperimentRunner::table(
    const std::string &title,
    const std::vector<std::pair<std::string, std::vector<double>>>
        &columns,
    bool asPercent) const
{
    TextTable t;
    std::vector<std::string> hdr = {"benchmark"};
    for (const auto &c : columns)
        hdr.push_back(c.first);
    t.header(std::move(hdr));

    auto fmt = [asPercent](double v) {
        return asPercent ? TextTable::pct(v) : TextTable::num(v);
    };

    for (std::size_t i = 0; i < benchmarks_.size(); ++i) {
        std::vector<std::string> row = {benchmarks_[i]};
        for (const auto &c : columns) {
            LSQ_ASSERT(c.second.size() == benchmarks_.size(),
                       "column '%s' size mismatch", c.first.c_str());
            row.push_back(fmt(c.second[i]));
        }
        t.row(std::move(row));
    }

    t.separator();
    std::vector<std::string> intRow = {"Int.Avg"};
    std::vector<std::string> fpRow = {"Fp.Avg"};
    for (const auto &c : columns) {
        intRow.push_back(fmt(intAvg(c.second)));
        fpRow.push_back(fmt(fpAvg(c.second)));
    }
    t.row(std::move(intRow));
    t.row(std::move(fpRow));

    if (const char *dir = std::getenv("LSQSCALE_CSV_DIR")) {
        if (*dir) {
            std::string path =
                std::string(dir) + "/" + slugify(title) + ".csv";
            writeFileCreatingDirs(path, csv(columns));
        }
    }

    std::ostringstream os;
    os << "== " << title << " ==\n" << t.render();
    return os.str();
}

} // namespace lsqscale
