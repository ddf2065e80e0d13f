/**
 * @file
 * Command-line interface for the lsqsim driver binary.
 *
 * The parsing is a pure function over an argument vector so it is unit
 * testable; tools/lsqsim.cpp is a thin wrapper around parseCli() and
 * runCli().
 */
// lsqlint: layer(harness) -- sweep-driver CLI; consumed only by tools/ and tests/, sits on the harness job engine

#ifndef LSQSCALE_SIM_CLI_HH
#define LSQSCALE_SIM_CLI_HH

#include <string>
#include <vector>

#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace lsqscale {

/** Parsed command-line request. */
struct CliOptions
{
    SimConfig config;

    bool showHelp = false;
    bool listBenchmarks = false;
    bool jsonOutput = false;
    bool dumpStats = false;

    /**
     * --jobs: process-wide worker-thread override for the sweep
     * harness (0 = unset). Takes precedence over LSQSCALE_JOBS, which
     * in turn beats std::thread::hardware_concurrency(); the winner is
     * always capped by the number of jobs in a sweep. A single
     * `lsqsim` simulation is one job, so this only matters for code
     * paths that fan out sweeps (see docs/HARNESS.md).
     */
    unsigned jobs = 0;

    /**
     * --isolation: process-wide override for where sweep cells run
     * ("thread" or "process"; empty = unset). Like --jobs, a single
     * lsqsim run is unaffected — this parameterizes embedded sweeps
     * (docs/ROBUSTNESS.md).
     */
    std::string isolation;

    /** --journal: directory for sweep journals (empty = unset). */
    std::string journalDir;

    /** --resume: journal file to restore finished cells from. */
    std::string resumePath;

    /**
     * --inject: deterministic fault to arm, "kind:seed:cycle"
     * (docs/ROBUSTNESS.md). Empty = none. Beats LSQSCALE_INJECT.
     */
    std::string inject;

    /** Record a synthetic trace to this path and exit. */
    std::string recordPath;
    std::uint64_t recordCount = 1000000;

    /**
     * --host-profile: render the host wall-clock phase tree
     * (docs/OBSERVABILITY.md) to stderr after the run. Also enabled
     * by LSQSCALE_HOST_PROFILE=1. Never touches --json stdout.
     */
    bool hostProfile = false;
    /** --host-profile-json: write the lsqscale-hostprof-v1 tree. */
    std::string hostProfileJsonPath;
};

/**
 * Parse @p args (without argv[0]).
 * @return an empty string on success, else a user-facing error.
 */
std::string parseCli(const std::vector<std::string> &args,
                     CliOptions &opts);

/** The --help text. */
std::string cliUsage();

/**
 * Execute a parsed request; output goes to stdout.
 * @return process exit code.
 */
int runCli(const CliOptions &opts);

/** JSON rendering of a result (stable key order). */
std::string resultToJson(const SimResult &result,
                         const SimConfig &config);

} // namespace lsqscale

#endif // LSQSCALE_SIM_CLI_HH
