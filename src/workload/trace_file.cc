#include "workload/trace_file.hh"

#include <cstring>

#include "common/logging.hh"
#include "workload/benchmark_profile.hh"
#include "workload/trace_generator.hh"

namespace lsqscale {

namespace {

/** On-disk record, packed to 32 bytes. */
struct TraceRecord
{
    std::uint64_t pc;
    std::uint64_t addr;
    std::uint64_t target;
    std::uint8_t opClass;
    std::uint8_t src1;
    std::uint8_t src2;
    std::uint8_t dest;
    std::uint8_t size;
    std::uint8_t flags;
    std::uint16_t pad;
};

static_assert(sizeof(TraceRecord) == 32, "trace record layout");


constexpr std::uint8_t kFlagTaken = 1;

TraceRecord
pack(const MicroOp &op)
{
    TraceRecord r{};
    r.pc = op.pc;
    r.addr = op.addr;
    r.target = op.target;
    r.opClass = static_cast<std::uint8_t>(op.op);
    r.src1 = op.src1;
    r.src2 = op.src2;
    r.dest = op.dest;
    r.size = op.size;
    r.flags = op.taken ? kFlagTaken : 0;
    return r;
}

bool
validReg(std::uint8_t reg)
{
    return reg < kNumArchRegs || reg == kNoArchReg;
}

/** Decode record `index`; a field out of range is fatal. */
MicroOp
unpack(const TraceRecord &r, SeqNum seq, std::uint64_t index)
{
    if (r.opClass >= kNumOpClasses)
        LSQ_FATAL("corrupt trace: record %llu has op class %u",
                  static_cast<unsigned long long>(index), r.opClass);
    if (!validReg(r.src1) || !validReg(r.src2) || !validReg(r.dest))
        LSQ_FATAL("corrupt trace: record %llu has register "
                  "src1=%u src2=%u dest=%u (want < %u or %u)",
                  static_cast<unsigned long long>(index), r.src1,
                  r.src2, r.dest, kNumArchRegs, kNoArchReg);
    MicroOp op;
    op.seq = seq;
    op.pc = r.pc;
    op.addr = r.addr;
    op.target = r.target;
    op.op = static_cast<OpClass>(r.opClass);
    op.src1 = r.src1;
    op.src2 = r.src2;
    op.dest = r.dest;
    op.size = r.size;
    op.taken = (r.flags & kFlagTaken) != 0;
    return op;
}

struct TraceHeader
{
    char magic[4];
    std::uint32_t version;
    std::uint64_t count;
};

static_assert(sizeof(TraceHeader) == 16, "trace header layout");

} // namespace

// ------------------------------------------------------- writer -------

TraceFileWriter::TraceFileWriter(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        LSQ_FATAL("cannot open trace file '%s' for writing",
                  path.c_str());
    TraceHeader h{};
    std::memcpy(h.magic, kTraceMagic, 4);
    h.version = kTraceVersion;
    h.count = 0;   // fixed up in close()
    if (std::fwrite(&h, sizeof(h), 1, file_) != 1)
        LSQ_FATAL("cannot write trace header to '%s'", path.c_str());
}

TraceFileWriter::~TraceFileWriter()
{
    close();
}

void
TraceFileWriter::append(const MicroOp &op)
{
    LSQ_ASSERT(file_ != nullptr, "append to a closed trace writer");
    TraceRecord r = pack(op);
    if (std::fwrite(&r, sizeof(r), 1, file_) != 1)
        LSQ_FATAL("short write while recording trace");
    ++count_;
}

void
TraceFileWriter::close()
{
    if (!file_)
        return;
    // Fix up the count in the header.
    TraceHeader h{};
    std::memcpy(h.magic, kTraceMagic, 4);
    h.version = kTraceVersion;
    h.count = count_;
    std::fseek(file_, 0, SEEK_SET);
    if (std::fwrite(&h, sizeof(h), 1, file_) != 1)
        LSQ_FATAL("cannot finalize trace header");
    std::fclose(file_);
    file_ = nullptr;
}

// ------------------------------------------------------- reader -------

TraceFileReader::TraceFileReader(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        LSQ_FATAL("cannot open trace file '%s'", path.c_str());
    readHeader(path);
}

TraceFileReader::~TraceFileReader()
{
    if (file_)
        std::fclose(file_);
}

void
TraceFileReader::readHeader(const std::string &path)
{
    TraceHeader h{};
    if (std::fread(&h, sizeof(h), 1, file_) != 1)
        LSQ_FATAL("'%s' is too short to be a trace file", path.c_str());
    if (std::memcmp(h.magic, kTraceMagic, 4) != 0)
        LSQ_FATAL("'%s' is not a lsqscale trace (bad magic)",
                  path.c_str());
    if (h.version != kTraceVersion)
        LSQ_FATAL("'%s': unsupported trace version %u", path.c_str(),
                  h.version);
    if (h.count == 0)
        LSQ_FATAL("'%s': empty trace", path.c_str());
    count_ = h.count;
}

void
TraceFileReader::seekToRecords()
{
    std::fseek(file_, sizeof(TraceHeader), SEEK_SET);
    cursor_ = 0;
}

MicroOp
TraceFileReader::next()
{
    if (cursor_ >= count_)
        seekToRecords();   // wrap
    TraceRecord r{};
    if (std::fread(&r, sizeof(r), 1, file_) != 1)
        LSQ_FATAL("short read in trace (record %llu of %llu)",
                  static_cast<unsigned long long>(cursor_),
                  static_cast<unsigned long long>(count_));
    return unpack(r, nextSeq_++, cursor_++);
}

// ------------------------------------------------ checkpointing -----

void
TraceFileReader::saveState(SerialWriter &w) const
{
    w.u64(count_);
    w.u64(cursor_);
    w.u64(nextSeq_);
}

void
TraceFileReader::loadState(SerialReader &r)
{
    std::uint64_t count = r.u64();
    if (count != count_)
        throw SerialError("trace length mismatch "
                          "(checkpoint from a different trace file?)");
    std::uint64_t cursor = r.u64();
    if (cursor > count_)
        throw SerialError("trace cursor out of range");
    nextSeq_ = r.u64();
    seekToRecords();
    std::fseek(file_,
               static_cast<long>(cursor * sizeof(TraceRecord)),
               SEEK_CUR);
    cursor_ = cursor;
}

// ------------------------------------------------------ helpers -------

void
recordSyntheticTrace(const std::string &benchmark, std::uint64_t seed,
                     std::uint64_t n, const std::string &path)
{
    TraceGenerator gen(profileFor(benchmark), seed);
    TraceFileWriter writer(path);
    for (std::uint64_t i = 0; i < n; ++i)
        writer.append(gen.next());
    writer.close();
}

} // namespace lsqscale
