#include "obs/konata.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "common/env.hh"
#include "common/logging.hh"
#include "workload/op_class.hh"

namespace lsqscale {

namespace {

std::uint64_t
ticks(Cycle cycle)
{
    return cycle * kTicksPerCycle;
}

/**
 * O3PipeView uses tick 0 for "stage never happened"; our traces start
 * at cycle 0, so shift everything by one cycle on export (and back on
 * import) to keep 0 unambiguous.
 */
std::uint64_t
stageTick(Cycle cycle)
{
    return cycle == kNoCycle ? 0 : ticks(cycle + 1);
}

Cycle
stageCycle(std::uint64_t tick)
{
    return tick == 0 ? kNoCycle : tick / kTicksPerCycle - 1;
}

const char *
disasm(std::uint8_t opclass)
{
    if (opclass >= kNumOpClasses)
        return "?";
    return opName(static_cast<OpClass>(opclass));
}

} // namespace

std::vector<InstLifecycle>
reconstructLifecycles(const std::vector<TraceRecord> &records)
{
    // In-flight lifecycles keyed by seq. A re-Fetch of a live seq means
    // the earlier incarnation was squashed: start over.
    std::unordered_map<SeqNum, InstLifecycle> live;
    std::vector<InstLifecycle> retired;

    for (const TraceRecord &rec : records) {
        switch (rec.ev()) {
          case TraceEvent::Fetch: {
            InstLifecycle inst;
            inst.seq = rec.seq;
            inst.pc = rec.payload;
            inst.opclass = rec.a;
            inst.fetch = rec.cycle;
            live[rec.seq] = inst;
            break;
          }
          case TraceEvent::Dispatch: {
            auto it = live.find(rec.seq);
            if (it != live.end())
                it->second.dispatch = rec.cycle;
            break;
          }
          case TraceEvent::Issue: {
            auto it = live.find(rec.seq);
            if (it != live.end())
                it->second.issue = rec.cycle;
            break;
          }
          case TraceEvent::Complete: {
            auto it = live.find(rec.seq);
            if (it != live.end())
                it->second.complete = rec.cycle;
            break;
          }
          case TraceEvent::Retire: {
            auto it = live.find(rec.seq);
            if (it == live.end())
                break; // fetched before the trace window started
            it->second.retire = rec.cycle;
            it->second.isStore = rec.a != 0;
            retired.push_back(it->second);
            live.erase(it);
            break;
          }
          // LSQ/predictor events don't shape the lifecycle.
          case TraceEvent::SqSearch:
          case TraceEvent::SqSearchSkip:
          case TraceEvent::SqSearchContention:
          case TraceEvent::ForwardHit:
          case TraceEvent::PredFalseDep:
          case TraceEvent::PredWaitCycle:
          case TraceEvent::LqSearch:
          case TraceEvent::StoreSearch:
          case TraceEvent::StoreCommitSearch:
          case TraceEvent::StoreCommitDelay:
          case TraceEvent::InvalSearch:
          case TraceEvent::LbInsert:
          case TraceEvent::LbRelease:
          case TraceEvent::LbFullStall:
          case TraceEvent::ViolationSquash:
          case TraceEvent::ProbeDeliver:
          case TraceEvent::LbProbe:
            break;
        }
    }
    return retired;
}

std::string
exportO3PipeView(const std::vector<InstLifecycle> &insts)
{
    std::ostringstream os;
    for (const InstLifecycle &inst : insts) {
        if (!inst.retired())
            continue;
        os << "O3PipeView:fetch:" << stageTick(inst.fetch) << ":0x"
           << std::hex << inst.pc << std::dec << ":0:" << inst.seq
           << ":" << disasm(inst.opclass) << "\n";
        // The simulator has no separate decode/rename stages; gem5's
        // format requires the lines, so they carry the dispatch tick.
        os << "O3PipeView:decode:" << stageTick(inst.dispatch) << "\n";
        os << "O3PipeView:rename:" << stageTick(inst.dispatch) << "\n";
        os << "O3PipeView:dispatch:" << stageTick(inst.dispatch) << "\n";
        os << "O3PipeView:issue:" << stageTick(inst.issue) << "\n";
        os << "O3PipeView:complete:" << stageTick(inst.complete) << "\n";
        os << "O3PipeView:retire:" << stageTick(inst.retire);
        if (inst.isStore)
            os << ":store:" << stageTick(inst.retire);
        else
            os << ":store:0";
        os << "\n";
    }
    return os.str();
}

namespace {

/** Split on ':' (O3PipeView field separator). */
std::vector<std::string>
splitFields(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= line.size()) {
        std::size_t colon = line.find(':', pos);
        if (colon == std::string::npos)
            colon = line.size();
        out.push_back(line.substr(pos, colon - pos));
        pos = colon + 1;
    }
    return out;
}

/**
 * A tick the exporter could have written: plain decimal digits (no
 * sign, space or trailing byte) and a whole number of cycles, so that
 * stageCycle() never maps a nonzero tick to "stage never happened".
 */
bool
parseTick(const std::string &s, std::uint64_t &tick)
{
    return parseDigitsU64(s, tick) && tick % kTicksPerCycle == 0;
}

/** A pc: 1 to 16 hex digits, nothing else. */
bool
parseHexPc(const std::string &s, std::uint64_t &pc)
{
    if (s.empty() || s.size() > 16)
        return false;
    for (char c : s)
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            return false;
    pc = std::strtoull(s.c_str(), nullptr, 16);
    return true;
}

} // namespace

bool
parseO3PipeView(const std::string &text, std::vector<InstLifecycle> &out,
                std::string &err)
{
    out.clear();
    err.clear();
    std::istringstream is(text);
    std::string line;
    InstLifecycle cur;
    bool open = false;
    unsigned lineNo = 0;

    auto fail = [&](const std::string &what) {
        err = strfmt("line %u: %s", lineNo, what.c_str());
        return false;
    };

    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::vector<std::string> f = splitFields(line);
        if (f.size() < 2 || f[0] != "O3PipeView")
            return fail("not an O3PipeView line: " + line);
        const std::string &stage = f[1];
        std::uint64_t tick = 0;
        if (f.size() < 3 || !parseTick(f[2], tick))
            return fail("bad tick in: " + line);

        if (stage == "fetch") {
            if (open)
                return fail("fetch before previous retire");
            if (f.size() < 7)
                return fail("short fetch line: " + line);
            cur = InstLifecycle();
            std::uint64_t pc = 0, seq = 0;
            std::string pcField = f[3];
            if (pcField.rfind("0x", 0) == 0)
                pcField = pcField.substr(2);
            if (!parseHexPc(pcField, pc))
                return fail("bad pc in: " + line);
            if (!parseDigitsU64(f[5], seq))
                return fail("bad seq in: " + line);
            cur.pc = pc;
            cur.seq = seq;
            cur.fetch = stageCycle(tick);
            for (unsigned c = 0; c < kNumOpClasses; ++c) {
                if (f[6] == opName(static_cast<OpClass>(c)))
                    cur.opclass = static_cast<std::uint8_t>(c);
            }
            open = true;
        } else if (!open) {
            return fail("stage line before fetch: " + line);
        } else if (stage == "decode" || stage == "rename" ||
                   stage == "dispatch") {
            cur.dispatch = stageCycle(tick);
        } else if (stage == "issue") {
            cur.issue = stageCycle(tick);
        } else if (stage == "complete") {
            cur.complete = stageCycle(tick);
        } else if (stage == "retire") {
            if (tick == 0)
                return fail("retire without a tick: " + line);
            std::uint64_t storeTick = 0;
            if (f.size() < 5 || f[3] != "store" ||
                !parseTick(f[4], storeTick))
                return fail("bad store field in: " + line);
            cur.retire = stageCycle(tick);
            cur.isStore = storeTick != 0;
            out.push_back(cur);
            open = false;
        } else {
            return fail("unknown stage '" + stage + "'");
        }
    }
    if (open)
        return fail("trace ends mid-instruction");
    return true;
}

void
writeKonataFile(const std::string &path,
                const std::vector<TraceRecord> &records)
{
    std::string text = exportO3PipeView(reconstructLifecycles(records));
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        LSQ_FATAL("cannot open Konata output %s: %s", path.c_str(),
                  std::strerror(errno));
    }
    if (std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
        std::fclose(f);
        LSQ_FATAL("short write to Konata output %s", path.c_str());
    }
    std::fclose(f);
}

} // namespace lsqscale
