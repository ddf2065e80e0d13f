/**
 * @file
 * lsqmcm — memory-consistency litmus runner. See --help.
 *
 * Runs the src/mcm litmus scenarios (MP, SB, LB, CoRR, SFV) across a
 * grid of LSQ design points and seeds, printing one outcome histogram
 * per (design, test) cell and failing if any forbidden outcome — or
 * any ordering-oracle mismatch — is observed (docs/CONSISTENCY.md).
 */

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "mcm/litmus.hh"
#include "sim/sim_config.hh"

namespace {

using namespace lsqscale;

struct Design
{
    const char *name;
    SimConfig cfg;
};

std::vector<Design>
designGrid()
{
    SimConfig base = configs::base("bzip");
    return {
        {"conventional", base},
        {"ports1", configs::withPorts(base, 1)},
        {"lb8", configs::withLoadBuffer(base, 8)},
        {"lb2", configs::withLoadBuffer(base, 2)},
        {"inorder", configs::withInOrderLoads(base, false)},
        {"inorder-always", configs::withInOrderLoads(base, true)},
        {"alltech", configs::allTechniques(base)},
    };
}

const char *kUsage =
    "usage: lsqmcm [options]\n"
    "  --test NAME    one of MP,SB,LB,CoRR,SFV (default: all)\n"
    "  --design NAME  one of conventional,ports1,lb8,lb2,inorder,\n"
    "                 inorder-always,alltech (default: all)\n"
    "  --seeds N      seeds per cell (default 16)\n"
    "  --seed S       first seed (default 1)\n"
    "  --iters N      litmus iterations per run (default 64)\n"
    "  --threads N    JobPool workers (default: hardware)\n"
    "  --unchecked    do not attach the ordering oracle\n"
    "  --json         machine-readable per-cell lines\n"
    "  --help         this text\n";

/** Strict unsigned count (common/env.hh): digits only, fits 32 bits. */
bool
parseCount(const char *v, unsigned &out)
{
    std::uint64_t n = 0;
    if (!parseDigitsU64(v, n) || n > 0xffffffffu)
        return false;
    out = static_cast<unsigned>(n);
    return true;
}

int
badCount(const std::string &flag, const char *v)
{
    std::fprintf(stderr, "lsqmcm: %s needs a plain decimal count, not "
                         "'%s'\n",
                 flag.c_str(), v);
    return 2;
}

std::string
jsonHistogram(const LitmusResult &r)
{
    std::string s = "{";
    bool first = true;
    for (const auto &[label, n] : r.histogram) {
        if (!first)
            s += ",";
        first = false;
        s += "\"" + label + "\":" + std::to_string(n);
    }
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string testFilter, designFilter;
    unsigned seeds = 16, iters = 64;
    unsigned threads = std::thread::hardware_concurrency();
    std::uint64_t seed0 = 1;
    bool checked = true, json = false;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&]() -> const char * {
            return i + 1 < args.size() ? args[++i].c_str() : nullptr;
        };
        const char *v;
        if (a == "--help" || a == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        } else if (a == "--test" && (v = value())) {
            testFilter = v;
        } else if (a == "--design" && (v = value())) {
            designFilter = v;
        } else if (a == "--seeds" && (v = value())) {
            if (!parseCount(v, seeds))
                return badCount(a, v);
        } else if (a == "--seed" && (v = value())) {
            if (!parseDigitsU64(v, seed0))
                return badCount(a, v);
        } else if (a == "--iters" && (v = value())) {
            if (!parseCount(v, iters))
                return badCount(a, v);
        } else if (a == "--threads" && (v = value())) {
            if (!parseCount(v, threads))
                return badCount(a, v);
        } else if (a == "--unchecked") {
            checked = false;
        } else if (a == "--json") {
            json = true;
        } else {
            std::fprintf(stderr, "lsqmcm: unknown argument '%s'\n%s",
                         a.c_str(), kUsage);
            return 2;
        }
    }
    if (seeds == 0 || iters == 0) {
        std::fprintf(stderr, "lsqmcm: --seeds/--iters must be > 0\n");
        return 2;
    }

    bool failed = false;
    for (const Design &d : designGrid()) {
        if (!designFilter.empty() && designFilter != d.name)
            continue;
        for (LitmusTest test : kAllLitmusTests) {
            if (!testFilter.empty() &&
                testFilter != litmusTestName(test))
                continue;
            LitmusConfig cfg;
            cfg.test = test;
            cfg.core = d.cfg.core;
            cfg.lsq = d.cfg.lsq;
            cfg.memory = d.cfg.memory;
            cfg.seed = seed0;
            cfg.iterations = iters;
            cfg.checked = checked;
            LitmusResult r = runLitmusSeeds(cfg, seeds, threads);
            bool bad = r.forbidden != 0 || r.checkMismatches != 0;
            failed = failed || bad;
            if (json) {
                std::printf(
                    "{\"design\":\"%s\",\"test\":\"%s\","
                    "\"runs\":%llu,\"iterations\":%llu,"
                    "\"forbidden\":%llu,\"probes\":%llu,"
                    "\"squashes\":%llu,\"mismatches\":%llu,"
                    "\"histogram\":%s}\n",
                    d.name, litmusTestName(test),
                    static_cast<unsigned long long>(r.runs),
                    static_cast<unsigned long long>(r.iterations),
                    static_cast<unsigned long long>(r.forbidden),
                    static_cast<unsigned long long>(r.probesDelivered),
                    static_cast<unsigned long long>(r.probeSquashes),
                    static_cast<unsigned long long>(r.checkMismatches),
                    jsonHistogram(r).c_str());
            } else {
                std::printf("%-14s %-4s %s%s\n", d.name,
                            litmusTestName(test), r.summary().c_str(),
                            bad ? "  [FORBIDDEN]" : "");
            }
        }
    }
    return failed ? 1 : 0;
}
