/**
 * @file
 * Memory-consistency study: how does external invalidation traffic
 * (Section 2.2's "scheme 2", MIPS R10000 style) interact with the
 * load-load ordering machinery?
 *
 * Sweeps the probe rate of an attached coherence agent (ProbeAgent
 * random mode, docs/CONSISTENCY.md) and compares the conventional
 * search-the-LQ design against the load buffer: invalidations contend
 * for the same LQ ports that conventional load-load checks occupy, so
 * the load buffer's bandwidth relief grows with coherence traffic.
 *
 * Usage: consistency_study [benchmark] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

using namespace lsqscale;

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "equake";
    std::uint64_t insts = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                   : 120000;

    std::printf("invalidation-rate sweep on %s (1-port LSQ)\n\n",
                bench.c_str());

    TextTable t;
    t.header({"inval/kcycle", "conventional IPC", "load buffer IPC",
              "LB advantage", "inval squashes"});

    for (double rate : {0.0, 1.0, 5.0, 20.0, 50.0}) {
        SimConfig conv = configs::withPorts(configs::base(bench), 1);
        conv.probes.enabled = rate > 0.0;
        conv.probes.probesPerKCycle = rate;
        conv.instructions = insts;

        SimConfig lb = configs::withLoadBuffer(conv, 2);

        SimResult rc = Simulator(conv).run();
        SimResult rl = Simulator(lb).run();
        t.row({TextTable::num(rate, 1), TextTable::num(rc.ipc(), 3),
               TextTable::num(rl.ipc(), 3),
               TextTable::pct(rl.ipc() / rc.ipc() - 1.0),
               std::to_string(
                   rl.stats.value("squash.invalidation"))});
        std::fprintf(stderr, "[done] rate %.1f\n", rate);
    }
    std::printf("%s", t.render().c_str());
    return 0;
}
