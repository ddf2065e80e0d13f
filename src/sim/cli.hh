/**
 * @file
 * Command-line interface for the lsqsim driver binary.
 *
 * The parsing is a pure function over an argument vector so it is unit
 * testable; tools/lsqsim.cpp is a thin wrapper around parseCli() and
 * runCli().
 */

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
    /** --warmup was given (warmupCapWarning checks only then). */
    bool warmupGiven = false;

    /**
     * --inject: deterministic fault to arm, "kind:seed:cycle"
     * (docs/ROBUSTNESS.md). Empty = none. Beats LSQSCALE_INJECT.
     */
    std::string inject;

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
 * Simulator::run warms up for at most a quarter of the measured
 * instructions. When an explicit --warmup exceeds that cap, the
 * warning lsqsim prints to stderr, naming the warm-up that runs;
 * else an empty string.
 */
std::string warmupCapWarning(const CliOptions &opts);

/**
 * Execute a parsed request; output goes to stdout.
 * @return process exit code.
 */
int runCli(const CliOptions &opts);

/** JSON rendering of a result (stable key order). */
std::string resultToJson(const SimResult &result);

} // namespace lsqscale

#endif // LSQSCALE_SIM_CLI_HH
