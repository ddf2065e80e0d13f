#include "obs/trace.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace lsqscale {

namespace {

struct EventInfo
{
    TraceEvent ev;
    const char *name;
};

/// Stable names, indexable by event value; the order must match the
/// TraceEvent enum (checked in eventTable()).
constexpr std::array<EventInfo, kNumTraceEvents> kEventTable = {{
    {TraceEvent::Fetch, "fetch"},
    {TraceEvent::Dispatch, "dispatch"},
    {TraceEvent::Issue, "issue"},
    {TraceEvent::Complete, "complete"},
    {TraceEvent::Retire, "retire"},
    {TraceEvent::SqSearch, "sq.search"},
    {TraceEvent::SqSearchSkip, "sq.search.skip"},
    {TraceEvent::SqSearchContention, "sq.search.contention"},
    {TraceEvent::ForwardHit, "forward.hit"},
    {TraceEvent::PredFalseDep, "pred.falsedep"},
    {TraceEvent::PredWaitCycle, "pred.wait"},
    {TraceEvent::LqSearch, "lq.search"},
    {TraceEvent::StoreSearch, "store.search"},
    {TraceEvent::StoreCommitSearch, "store.commit.search"},
    {TraceEvent::StoreCommitDelay, "store.commit.delay"},
    {TraceEvent::InvalSearch, "inval.search"},
    {TraceEvent::LbInsert, "lb.insert"},
    {TraceEvent::LbRelease, "lb.release"},
    {TraceEvent::LbFullStall, "lb.full"},
    {TraceEvent::ViolationSquash, "squash.violation"},
    {TraceEvent::ProbeDeliver, "probe.deliver"},
    {TraceEvent::LbProbe, "lb.probe"},
}};

const std::array<EventInfo, kNumTraceEvents> &
eventTable()
{
    for (unsigned i = 0; i < kNumTraceEvents; ++i) {
        LSQ_DCHECK(static_cast<unsigned>(kEventTable[i].ev) == i,
                   "event table out of order at %u", i);
    }
    return kEventTable;
}

std::uint32_t
eventsMask(std::initializer_list<TraceEvent> evs)
{
    std::uint32_t mask = 0;
    for (TraceEvent ev : evs)
        mask |= traceEventBit(ev);
    return mask;
}

struct CategoryInfo
{
    const char *name;
    std::uint32_t mask;
};

/// --trace-events category shorthands (docs/OBSERVABILITY.md).
const std::array<CategoryInfo, 5> &
categoryTable()
{
    static const std::array<CategoryInfo, 5> table = {{
        {"all", kTraceAllEvents},
        {"pipe",
         eventsMask({TraceEvent::Fetch, TraceEvent::Dispatch,
                     TraceEvent::Issue, TraceEvent::Complete,
                     TraceEvent::Retire})},
        {"lsq",
         eventsMask({TraceEvent::SqSearch, TraceEvent::SqSearchSkip,
                     TraceEvent::SqSearchContention,
                     TraceEvent::ForwardHit, TraceEvent::LqSearch,
                     TraceEvent::StoreSearch,
                     TraceEvent::StoreCommitSearch,
                     TraceEvent::StoreCommitDelay,
                     TraceEvent::InvalSearch, TraceEvent::LbInsert,
                     TraceEvent::LbRelease, TraceEvent::LbFullStall,
                     TraceEvent::ProbeDeliver, TraceEvent::LbProbe})},
        {"pred",
         eventsMask({TraceEvent::SqSearchSkip, TraceEvent::PredFalseDep,
                     TraceEvent::PredWaitCycle})},
        {"squash",
         eventsMask({TraceEvent::SqSearchContention,
                     TraceEvent::ViolationSquash})},
    }};
    return table;
}

/** On-disk header preceding the packed TraceRecord stream. */
struct TraceFileHeader
{
    std::uint64_t magic = kEventTraceMagic;
    std::uint32_t version = kEventTraceVersion;
    std::uint32_t recordSize = sizeof(TraceRecord);
    std::uint64_t reserved = 0;
};

static_assert(sizeof(TraceFileHeader) == 24, "stable on-disk header");

} // namespace

const char *
traceEventName(TraceEvent ev)
{
    unsigned idx = static_cast<unsigned>(ev);
    LSQ_ASSERT(idx < kNumTraceEvents, "bad TraceEvent %u", idx);
    return eventTable()[idx].name;
}

bool
parseTraceEvents(const std::string &spec, std::uint32_t &mask,
                 std::string &err)
{
    mask = 0;
    err.clear();
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string token = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty())
            continue;
        bool matched = false;
        for (const auto &cat : categoryTable()) {
            if (token == cat.name) {
                mask |= cat.mask;
                matched = true;
                break;
            }
        }
        if (!matched) {
            for (const auto &info : eventTable()) {
                if (token == info.name) {
                    mask |= traceEventBit(info.ev);
                    matched = true;
                    break;
                }
            }
        }
        if (!matched) {
            err = "unknown trace event '" + token + "'";
            return false;
        }
    }
    if (mask == 0) {
        err = "empty trace event list";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------- ring

TraceRing::TraceRing(std::size_t capacity)
    : storage_(std::max<std::size_t>(capacity, 1))
{
}

void
TraceRing::push(const TraceRecord &rec)
{
    if (size_ < storage_.size()) {
        storage_[(head_ + size_) % storage_.size()] = rec;
        ++size_;
    } else {
        storage_[head_] = rec;
        head_ = (head_ + 1) % storage_.size();
        ++wrapped_;
    }
}

const TraceRecord &
TraceRing::at(std::size_t i) const
{
    LSQ_ASSERT(i < size_, "TraceRing index %zu out of range %zu", i,
               size_);
    return storage_[(head_ + i) % storage_.size()];
}

std::vector<TraceRecord>
TraceRing::drain() const
{
    std::vector<TraceRecord> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(at(i));
    return out;
}

void
TraceRing::clear()
{
    head_ = 0;
    size_ = 0;
}

// -------------------------------------------------------------- tracer

Tracer::Tracer(const TraceConfig &config)
    : config_(config), ring_(config.ringCapacity)
{
    if (!config_.binaryPath.empty()) {
        file_ = std::fopen(config_.binaryPath.c_str(), "wb");
        if (file_ == nullptr) {
            LSQ_FATAL("cannot open trace file %s: %s",
                      config_.binaryPath.c_str(), std::strerror(errno));
        }
        TraceFileHeader hdr;
        if (std::fwrite(&hdr, sizeof(hdr), 1, file_) != 1)
            LSQ_FATAL("cannot write trace header to %s",
                      config_.binaryPath.c_str());
    }
}

Tracer::~Tracer()
{
    finish();
}

void
Tracer::push(const TraceRecord &rec)
{
    ++recorded_;
    if (file_ != nullptr && ring_.size() == ring_.capacity())
        drainToFile();
    ring_.push(rec);
}

void
Tracer::drainToFile()
{
    if (file_ == nullptr || ring_.empty())
        return;
    std::vector<TraceRecord> recs = ring_.drain();
    if (std::fwrite(recs.data(), sizeof(TraceRecord), recs.size(),
                    file_) != recs.size()) {
        LSQ_FATAL("short write to trace file %s",
                  config_.binaryPath.c_str());
    }
    ring_.clear();
}

void
Tracer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (file_ != nullptr) {
        drainToFile();
        std::fclose(file_);
        file_ = nullptr;
    }
}

std::vector<TraceRecord>
Tracer::collect()
{
    finish();
    if (!config_.binaryPath.empty())
        return readTraceFile(config_.binaryPath);
    return ring_.drain();
}

// ---------------------------------------------------------------- file

bool
readTraceStream(std::FILE *f, std::vector<TraceRecord> &out,
                std::string &err)
{
    out.clear();
    TraceFileHeader hdr;
    if (std::fread(&hdr, sizeof(hdr), 1, f) != 1) {
        err = "truncated header";
        return false;
    }
    if (hdr.magic != kEventTraceMagic || hdr.version != kEventTraceVersion ||
        hdr.recordSize != sizeof(TraceRecord)) {
        err = "bad header (not an lsqscale trace?)";
        return false;
    }
    TraceRecord rec;
    std::size_t got;
    while ((got = std::fread(&rec, 1, sizeof(rec), f)) == sizeof(rec))
        out.push_back(rec);
    if (std::ferror(f)) {
        err = strfmt("read error after %zu records", out.size());
        return false;
    }
    if (got != 0) {
        err = strfmt("record %zu truncated (%zu of %zu bytes)",
                     out.size(), got, sizeof(rec));
        return false;
    }
    return true;
}

std::vector<TraceRecord>
readTraceFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        LSQ_FATAL("cannot open trace file %s: %s", path.c_str(),
                  std::strerror(errno));
    }
    std::vector<TraceRecord> out;
    std::string err;
    bool ok = readTraceStream(f, out, err);
    std::fclose(f);
    if (!ok)
        LSQ_FATAL("corrupt trace: %s: %s", path.c_str(), err.c_str());
    return out;
}

std::string
traceRecordToString(const TraceRecord &rec)
{
    unsigned idx = rec.event;
    const char *name =
        idx < kNumTraceEvents ? traceEventName(rec.ev()) : "?";
    return strfmt("cycle=%llu seq=%llu %-20s payload=0x%llx a=%u b=%u",
                  static_cast<unsigned long long>(rec.cycle),
                  static_cast<unsigned long long>(rec.seq), name,
                  static_cast<unsigned long long>(rec.payload),
                  static_cast<unsigned>(rec.a),
                  static_cast<unsigned>(rec.b));
}

} // namespace lsqscale
