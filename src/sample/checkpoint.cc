#include "sample/checkpoint.hh"

#include <cstdio>
#include <cstring>

#include <sys/stat.h>

#include "core/core.hh"
#include "metrics/hostprof.hh"
#include "sim/sim_config.hh"

namespace lsqscale {

namespace {

constexpr std::uint32_t
fourcc(const char (&s)[5])
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(s[1]))
            << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(s[2]))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(s[3]))
            << 24);
}

/** Payload sections, in file order. */
constexpr std::uint32_t kSecCore = fourcc("CORE");
constexpr std::uint32_t kSecStream = fourcc("STRM");
constexpr std::uint32_t kSecMemory = fourcc("MEM ");
constexpr std::uint32_t kSecBp = fourcc("BP  ");

std::string
tagName(std::uint32_t tag)
{
    std::string s;
    for (unsigned i = 0; i < 4; ++i)
        s.push_back(static_cast<char>((tag >> (8 * i)) & 0xff));
    return s;
}

/** FNV-1a over 8 bytes at a time. */
class Fingerprint
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ULL;
        }
    }

    void
    mix(const std::string &s)
    {
        mix(s.size());
        for (char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 1099511628211ULL;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

void
mixCache(Fingerprint &fp, const CacheParams &c)
{
    fp.mix(c.sizeBytes);
    fp.mix(c.assoc);
    fp.mix(c.blockBytes);
}

/**
 * Read one tag+len section header, checking the tag against
 * @p expectTag, and return a view of the section's bytes.
 */
SerialReader
openSection(SerialReader &payload, std::uint32_t expectTag)
{
    std::uint32_t tag = payload.u32();
    if (tag != expectTag)
        throw SerialError("checkpoint section order mismatch: "
                          "expected " + tagName(expectTag) + ", found " +
                          tagName(tag));
    std::uint64_t len = payload.u64();
    if (len > payload.remaining())
        throw SerialError("checkpoint section " + tagName(tag) +
                          " truncated");
    auto n = static_cast<std::size_t>(len);
    return SerialReader(payload.take(n), n);
}

/** Restore @p part from one section, which it must consume whole. */
template <typename Part>
void
loadSection(SerialReader &payload, std::uint32_t tag, const char *what,
            Part &part)
{
    SerialReader body = openSection(payload, tag);
    part.loadState(body);
    body.expectEnd(what);
}

/** Append @p part's state as one tag+len section. */
template <typename Part>
void
saveSection(SerialWriter &payload, std::uint32_t tag, const Part &part)
{
    payload.u32(tag);
    std::size_t lenAt = payload.size();
    payload.u64(0);
    part.saveState(payload);
    payload.patchU64(lenAt, payload.size() - (lenAt + 8));
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw SerialError("cannot open checkpoint file: " + path);
    struct stat st;
    if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
        std::fclose(f);
        throw SerialError("not a regular checkpoint file: " + path);
    }
    std::string data(static_cast<std::size_t>(st.st_size), '\0');
    bool bad = std::fread(data.data(), 1, data.size(), f) != data.size();
    std::fclose(f);
    if (bad)
        throw SerialError("error reading checkpoint file: " + path);
    return data;
}

/** Parse the fixed header; leaves @p r positioned at the payload. */
CheckpointMeta
readHeader(SerialReader &r)
{
    char magic[8];
    if (r.remaining() < sizeof(magic))
        throw SerialError("not an lsqscale checkpoint (too short)");
    r.raw(magic, sizeof(magic));
    if (std::memcmp(magic, kCkptMagic, sizeof(magic)) != 0)
        throw SerialError("not an lsqscale checkpoint (bad magic)");
    CheckpointMeta meta;
    meta.version = r.u32();
    if (meta.version != kCkptVersion)
        throw SerialError(
            "unsupported checkpoint version " +
            std::to_string(meta.version) + " (this build reads " +
            std::to_string(kCkptVersion) + ")");
    meta.benchmark = r.str();
    meta.seed = r.u64();
    meta.instCount = r.u64();
    meta.cycle = r.u64();
    meta.fingerprint = r.u64();
    meta.payloadBytes = r.u64();
    meta.crc = r.u32();
    if (meta.payloadBytes != r.remaining())
        throw SerialError("checkpoint payload truncated (header says " +
                          std::to_string(meta.payloadBytes) +
                          " bytes, file holds " +
                          std::to_string(r.remaining()) + ")");
    return meta;
}

} // namespace

std::uint64_t
functionalFingerprint(const SimConfig &config)
{
    ScopedHostPhase prof(HostPhase::Fingerprint);
    Fingerprint fp;
    fp.mix(config.benchmark);
    fp.mix(config.seed);

    mixCache(fp, config.memory.l1i);
    mixCache(fp, config.memory.l1d);
    mixCache(fp, config.memory.l2);

    const BranchPredictorParams &bp = config.core.branchPredictor;
    fp.mix(static_cast<std::uint64_t>(bp.kind));
    fp.mix(bp.tableEntries);
    fp.mix(bp.historyBits);
    fp.mix(bp.bhtEntries);
    return fp.value();
}

void
saveCheckpoint(Core &core, const SimConfig &config,
               const std::string &path)
{
    SerialWriter payload;
    saveSection(payload, kSecCore, core);
    saveSection(payload, kSecStream, core.stream());
    saveSection(payload, kSecMemory, core.memory());
    saveSection(payload, kSecBp, core.branchPredictorMut());

    SerialWriter header;
    header.raw(kCkptMagic, sizeof(kCkptMagic));
    header.u32(kCkptVersion);
    header.str(config.benchmark);
    header.u64(config.seed);
    header.u64(core.committed());
    header.u64(core.cycle());
    header.u64(functionalFingerprint(config));
    header.u64(payload.size());
    header.u32(crc32(payload.buffer().data(), payload.size()));
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw SerialError("cannot create checkpoint file: " + path);
    std::size_t wrote =
        std::fwrite(header.buffer().data(), 1, header.size(), f) +
        std::fwrite(payload.buffer().data(), 1, payload.size(), f);
    bool closed = std::fclose(f) == 0;
    if (wrote != header.size() + payload.size() || !closed)
        throw SerialError("error writing checkpoint file: " + path);
}

CheckpointMeta
loadCheckpoint(Core &core, const SimConfig &config,
               const std::string &path)
{
    std::string data = readFile(path);
    SerialReader r(data);
    CheckpointMeta meta = readHeader(r);

    std::uint32_t crc = crc32(data.data() + (data.size() -
                                             meta.payloadBytes),
                              static_cast<std::size_t>(
                                  meta.payloadBytes));
    if (crc != meta.crc)
        throw SerialError("checkpoint payload CRC mismatch "
                          "(corrupted file?)");

    if (meta.fingerprint != functionalFingerprint(config))
        throw SerialError(
            "checkpoint functional configuration mismatch: the file "
            "was taken for benchmark '" + meta.benchmark +
            "' seed " + std::to_string(meta.seed) +
            " with different functional parameters");

    loadSection(r, kSecCore, "CORE section", core);
    loadSection(r, kSecStream, "STRM section", core.stream());
    loadSection(r, kSecMemory, "MEM section", core.memory());
    loadSection(r, kSecBp, "BP section", core.branchPredictorMut());
    r.expectEnd("checkpoint payload");
    return meta;
}

CheckpointInfo
inspectCheckpoint(const std::string &path)
{
    std::string data = readFile(path);
    SerialReader r(data);
    CheckpointInfo info;
    info.meta = readHeader(r);
    info.crcOk =
        crc32(data.data() + (data.size() - info.meta.payloadBytes),
              static_cast<std::size_t>(info.meta.payloadBytes)) ==
        info.meta.crc;
    while (!r.done()) {
        std::uint32_t tag = r.u32();
        std::uint64_t len = r.u64();
        if (len > r.remaining())
            throw SerialError("checkpoint section " + tagName(tag) +
                              " truncated");
        r.take(static_cast<std::size_t>(len));
        info.sections.push_back({tagName(tag), len});
    }
    return info;
}

} // namespace lsqscale
