/**
 * @file
 * Konata / gem5-O3PipeView export of lifecycle traces.
 *
 * The Konata pipeline viewer (and gem5's util/o3-pipeview.py) consume
 * gem5's O3PipeView text format: per retired instruction, one line per
 * pipeline stage
 *
 *   O3PipeView:fetch:<tick>:0x<pc>:0:<seq>:<disasm>
 *   O3PipeView:decode:<tick>
 *   O3PipeView:rename:<tick>
 *   O3PipeView:dispatch:<tick>
 *   O3PipeView:issue:<tick>
 *   O3PipeView:complete:<tick>
 *   O3PipeView:retire:<tick>:store:<store-completion-tick>
 *
 * with ticks = cycle * kTicksPerCycle (gem5 convention). Squashed
 * instructions never reach Retire and are omitted, matching gem5's
 * exporter. This module reconstructs per-instruction lifecycles from a
 * flat TraceRecord stream, emits the text form, and parses it back
 * (for round-trip tests and `lsqtrace konata --check`).
 */

#ifndef LSQSCALE_OBS_KONATA_HH
#define LSQSCALE_OBS_KONATA_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/trace.hh"

namespace lsqscale {

/** gem5 writes 500 ticks per cycle at 2GHz; viewers expect it. */
inline constexpr std::uint64_t kTicksPerCycle = 500;

/**
 * One dynamic instruction's stage timestamps, reconstructed from
 * Fetch/Dispatch/Issue/Complete/Retire records. kNoCycle marks stages
 * the trace never saw (e.g. single-cycle ops with no Complete record,
 * or a trace that started mid-flight).
 */
struct InstLifecycle
{
    SeqNum seq = kNoSeq;
    Pc pc = 0;
    std::uint8_t opclass = 0; ///< OpClass value from the Fetch record
    bool isStore = false;
    Cycle fetch = kNoCycle;
    Cycle dispatch = kNoCycle;
    Cycle issue = kNoCycle;
    Cycle complete = kNoCycle;
    Cycle retire = kNoCycle;

    bool retired() const { return retire != kNoCycle; }
};

/**
 * Fold a record stream into per-instruction lifecycles, in retirement
 * order. Only retired instructions are returned; when a sequence
 * number is re-fetched after a squash, the pre-squash lifecycle is
 * discarded and the replayed one wins (it is the one that retires).
 */
std::vector<InstLifecycle>
reconstructLifecycles(const std::vector<TraceRecord> &records);

/** Render lifecycles as O3PipeView text. */
std::string exportO3PipeView(const std::vector<InstLifecycle> &insts);

/**
 * Parse O3PipeView text back into lifecycles (round-trip validation).
 * Numbers are plain digits, ticks whole cycles (multiples of
 * kTicksPerCycle), and every retire line carries a nonzero tick and
 * its store field: anything the exporter cannot have written fails.
 * @return true on success; on failure @p err describes the first
 * malformed line.
 */
bool parseO3PipeView(const std::string &text,
                     std::vector<InstLifecycle> &out, std::string &err);

/** Reconstruct + export + write to @p path (fatal on I/O error). */
void writeKonataFile(const std::string &path,
                     const std::vector<TraceRecord> &records);

} // namespace lsqscale

#endif // LSQSCALE_OBS_KONATA_HH
