/**
 * @file
 * lsqsim — the command-line simulator driver. See --help.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/cli.hh"

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    lsqscale::CliOptions opts;
    std::string err = lsqscale::parseCli(args, opts);
    if (!err.empty()) {
        std::fprintf(stderr, "lsqsim: %s\n", err.c_str());
        return 2;
    }
    return lsqscale::runCli(opts);
}
