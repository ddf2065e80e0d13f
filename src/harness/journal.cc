#include "harness/journal.hh"

#include <cstring>
#include <map>
#include <utility>

#include "common/logging.hh"
#include "metrics/hostprof.hh"
#include "sample/serialize.hh"

namespace lsqscale {

namespace {

constexpr std::uint8_t kRecSweepBegin = 1;
constexpr std::uint8_t kRecCellDone = 2;

/** JobStatus <-> stable on-disk byte. */
std::uint8_t
statusToByte(JobStatus s)
{
    switch (s) {
      case JobStatus::Ok:
        return 0;
      case JobStatus::Failed:
        return 1;
      case JobStatus::TimedOut:
        return 2;
      case JobStatus::Crashed:
        return 3;
    }
    return 1;
}

bool
statusFromByte(std::uint8_t b, JobStatus &out)
{
    switch (b) {
      case 0:
        out = JobStatus::Ok;
        return true;
      case 1:
        out = JobStatus::Failed;
        return true;
      case 2:
        out = JobStatus::TimedOut;
        return true;
      case 3:
        out = JobStatus::Crashed;
        return true;
      default:
        return false;
    }
}

std::string g_journalDir;
std::string g_resumePath;

} // namespace

// ----------------------------------------------------------- codecs --

std::string
encodeSweepBeginRecord(const std::string &name,
                       const std::vector<std::string> &configLabels,
                       const std::vector<std::string> &benchmarks)
{
    SerialWriter w;
    w.u8(kRecSweepBegin);
    w.str(name);
    w.u64(configLabels.size());
    w.u64(benchmarks.size());
    for (const auto &label : configLabels)
        w.str(label);
    for (const auto &bench : benchmarks)
        w.str(bench);
    return w.buffer();
}

std::string
encodeCellRecord(const JournalCell &cell)
{
    SerialWriter w;
    w.u8(kRecCellDone);
    w.u64(cell.row);
    w.u64(cell.col);
    w.u8(statusToByte(cell.status));
    w.u32(cell.attempts);
    w.u64(cell.seed);
    w.str(cell.error);
    w.u32(static_cast<std::uint32_t>(cell.termSignal));
    w.u32(static_cast<std::uint32_t>(cell.exitStatus));
    w.str(cell.stderrTail);
    w.f64(cell.seconds);
    bool hasResult = cell.hasResult && cell.status == JobStatus::Ok;
    w.b(hasResult);
    if (hasResult)
        cell.result.saveState(w);
    return w.buffer();
}

JournalCell
journalCellFrom(const SweepCell &cell)
{
    JournalCell jc;
    jc.row = cell.row;
    jc.col = cell.col;
    jc.status = cell.status;
    jc.attempts = cell.attempts;
    jc.seed = cell.seed;
    jc.error = cell.error;
    jc.termSignal = cell.termSignal;
    jc.exitStatus = cell.exitStatus;
    jc.stderrTail = cell.stderrTail;
    jc.seconds = cell.seconds;
    jc.hasResult = cell.status == JobStatus::Ok;
    if (jc.hasResult)
        jc.result = cell.result;
    return jc;
}

std::string
frameJournalRecord(const std::string &payload)
{
    SerialWriter head;
    head.u32(static_cast<std::uint32_t>(payload.size()));
    head.u32(crc32(payload.data(), payload.size()));
    return head.buffer() + payload;
}

bool
JournalAccumulator::add(const char *payload, std::size_t len,
                        std::string &error)
{
    try {
        SerialReader r(payload, len);
        std::uint8_t type = r.u8();
        if (type == kRecSweepBegin) {
            meta_.name = r.str();
            meta_.rows = static_cast<std::size_t>(r.u64());
            meta_.cols = static_cast<std::size_t>(r.u64());
            meta_.configLabels.clear();
            meta_.benchmarks.clear();
            for (std::size_t i = 0; i < meta_.rows; ++i)
                meta_.configLabels.push_back(r.str());
            for (std::size_t i = 0; i < meta_.cols; ++i)
                meta_.benchmarks.push_back(r.str());
            r.expectEnd("journal sweep-begin record");
        } else if (type == kRecCellDone) {
            JournalCell cell;
            cell.row = static_cast<std::size_t>(r.u64());
            cell.col = static_cast<std::size_t>(r.u64());
            std::uint8_t sb = r.u8();
            if (!statusFromByte(sb, cell.status))
                throw SerialError(strfmt("unknown cell status %u", sb));
            cell.attempts = r.u32();
            cell.seed = r.u64();
            cell.error = r.str();
            cell.termSignal = static_cast<int>(r.u32());
            cell.exitStatus = static_cast<int>(r.u32());
            cell.stderrTail = r.str();
            cell.seconds = r.f64();
            cell.hasResult = r.b();
            if (cell.hasResult)
                cell.result.loadState(r);
            r.expectEnd("journal cell record");
            ++meta_.records;
            cells_[{cell.row, cell.col}] = std::move(cell);
        }
        // Unknown record types: skip (the frame CRC already vouched
        // for the bytes), so old readers tolerate newer writers.
    } catch (const SerialError &e) {
        error = e.what();
        return false;
    }
    return true;
}

bool
JournalAccumulator::add(const std::string &payload, std::string &error)
{
    return add(payload.data(), payload.size(), error);
}

JournalContents
JournalAccumulator::contents() const
{
    JournalContents out = meta_;
    out.cells.clear();
    out.cells.reserve(cells_.size());
    for (const auto &kv : cells_)
        out.cells.push_back(kv.second);
    return out;
}

// ----------------------------------------------------------- reader --

namespace {

/** Slurp a journal file and check its magic. */
bool
loadJournalBytes(const std::string &path, std::string &bytes,
                 std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        error = strfmt("cannot open journal %s", path.c_str());
        return false;
    }
    bytes.clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    bool readErr = std::ferror(f) != 0;
    std::fclose(f);
    if (readErr) {
        error = strfmt("error reading journal %s", path.c_str());
        return false;
    }
    if (bytes.size() < sizeof(kJournalMagic) ||
        std::memcmp(bytes.data(), kJournalMagic,
                    sizeof(kJournalMagic)) != 0) {
        error = strfmt("%s is not an lsqscale-journal-v1 file",
                       path.c_str());
        return false;
    }
    return true;
}

} // namespace

bool
readJournal(const std::string &path, JournalContents &out,
            std::string &error)
{
    ScopedHostPhase prof(HostPhase::JournalIo);
    std::string bytes;
    if (!loadJournalBytes(path, bytes, error))
        return false;

    // Walk the records; stop (not fail) at the first torn one. The
    // accumulator implements later-record-wins for duplicates.
    bool truncated = false;
    JournalAccumulator acc;
    std::size_t pos = sizeof(kJournalMagic);
    while (pos < bytes.size()) {
        if (bytes.size() - pos < 8) {
            truncated = true;
            break;
        }
        SerialReader head(bytes.data() + pos, 8);
        std::uint32_t len = head.u32();
        std::uint32_t crc = head.u32();
        if (len > kMaxJournalRecordBytes ||
            bytes.size() - pos - 8 < len) {
            truncated = true;
            break;
        }
        const char *payload = bytes.data() + pos + 8;
        if (crc32(payload, len) != crc) {
            truncated = true;
            break;
        }
        pos += 8 + len;

        std::string recErr;
        if (!acc.add(payload, len, recErr)) {
            // A CRC-valid but undecodable record: treat like a torn
            // tail — keep what parsed, stop trusting the rest.
            LSQ_WARN("journal %s: bad record (%s); ignoring the rest",
                     path.c_str(), recErr.c_str());
            truncated = true;
            break;
        }
    }

    out = acc.contents();
    out.truncatedTail = truncated;
    return true;
}

// ----------------------------------------------------------- writer --

JournalWriter::JournalWriter(std::string path, bool append)
    : path_(std::move(path))
{
    f_ = std::fopen(path_.c_str(), append ? "ab" : "wb");
    if (f_ == nullptr) {
        LSQ_WARN("cannot open journal %s; journaling disabled",
                 path_.c_str());
        return;
    }
    bool needMagic = !append;
    if (append) {
        // An empty pre-existing file still needs the magic. ftell()
        // right after an "ab" open is implementation-defined, so seek
        // to the end explicitly before asking.
        if (std::fseek(f_, 0, SEEK_END) != 0) {
            LSQ_WARN("cannot seek journal %s; journaling disabled",
                     path_.c_str());
            std::fclose(f_);
            f_ = nullptr;
            return;
        }
        needMagic = std::ftell(f_) <= 0;
    }
    if (needMagic) {
        if (std::fwrite(kJournalMagic, 1, sizeof(kJournalMagic), f_) !=
                sizeof(kJournalMagic) ||
            std::fflush(f_) != 0) {
            LSQ_WARN("cannot write journal %s; journaling disabled",
                     path_.c_str());
            std::fclose(f_);
            f_ = nullptr;
        }
    }
}

JournalWriter::~JournalWriter()
{
    if (f_ != nullptr)
        std::fclose(f_);
}

void
JournalWriter::writeRecord(const std::string &payload)
{
    if (f_ == nullptr)
        return;
    ScopedHostPhase prof(HostPhase::JournalIo);
    std::string frame = frameJournalRecord(payload);
    // Flush after every record: the journal's whole point is surviving
    // the process dying at an arbitrary moment.
    if (std::fwrite(frame.data(), 1, frame.size(), f_) !=
            frame.size() ||
        std::fflush(f_) != 0) {
        LSQ_WARN("short write to journal %s; journaling disabled",
                 path_.c_str());
        std::fclose(f_);
        f_ = nullptr;
    }
}

void
JournalWriter::sweepBegin(const SweepOutcome &planned)
{
    std::vector<std::string> labels;
    std::vector<std::string> benchmarks;
    for (const auto &row : planned.grid)
        labels.push_back(row.empty() ? std::string()
                                     : row.front().configLabel);
    if (!planned.grid.empty())
        for (const auto &cell : planned.grid.front())
            benchmarks.push_back(cell.benchmark);
    writeRecord(
        encodeSweepBeginRecord(planned.name, labels, benchmarks));
}

void
JournalWriter::cellDone(const SweepCell &cell)
{
    writeRecord(encodeCellRecord(journalCellFrom(cell)));
}

// -------------------------------------------------------- overrides --

void
setJournalDirOverride(const std::string &dir)
{
    g_journalDir = dir;
}

std::string
journalDirOverride()
{
    return g_journalDir;
}

void
setResumeJournalOverride(const std::string &path)
{
    g_resumePath = path;
}

std::string
resumeJournalOverride()
{
    return g_resumePath;
}

} // namespace lsqscale
