#include "sample/checkpoint.hh"

#include <cstdio>

#include "common/logging.hh"
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
constexpr std::uint32_t kSecSsp = fourcc("SSP ");
constexpr std::uint32_t kSecLsq = fourcc("LSQ ");

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
    fp.mix(c.hitLatency);
    fp.mix(c.ports);
}

void
appendSection(SerialWriter &payload, std::uint32_t tag,
              const SerialWriter &body)
{
    payload.u32(tag);
    payload.u64(body.size());
    payload.raw(body.buffer().data(), body.size());
}

/** One carved-out payload section (owns its bytes). */
struct Section
{
    std::string bytes;
    SerialReader reader() const { return SerialReader(bytes); }
};

/** Read one tag+len section, validating the expected tag. */
Section
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
    Section s;
    s.bytes.resize(static_cast<std::size_t>(len));
    if (len > 0)
        payload.raw(s.bytes.data(), static_cast<std::size_t>(len));
    return s;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw SerialError("cannot open checkpoint file: " + path);
    std::string data;
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    bool bad = std::ferror(f) != 0;
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
    meta.tracePath = r.str();
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
    fp.mix(config.tracePath);
    fp.mix(config.seed);

    mixCache(fp, config.memory.l1i);
    mixCache(fp, config.memory.l1d);
    mixCache(fp, config.memory.l2);
    fp.mix(config.memory.memLatency);
    fp.mix(config.memory.l1dMshrs);

    const BranchPredictorParams &bp = config.core.branchPredictor;
    fp.mix(static_cast<std::uint64_t>(bp.kind));
    fp.mix(bp.tableEntries);
    fp.mix(bp.historyBits);
    fp.mix(bp.bhtEntries);

    const StoreSetParams &ss = config.core.storeSet;
    fp.mix(ss.ssitEntries);
    fp.mix(ss.lfstEntries);
    fp.mix(ss.counterBits);
    fp.mix(ss.clearInterval);
    fp.mix(ss.aliasFree ? 1 : 0);
    return fp.value();
}

void
saveCheckpoint(Core &core, const SimConfig &config,
               const std::string &path)
{
    SerialWriter payload;
    {
        SerialWriter body;
        core.saveState(body);
        appendSection(payload, kSecCore, body);
    }
    {
        SerialWriter body;
        core.stream().saveState(body);
        appendSection(payload, kSecStream, body);
    }
    {
        SerialWriter body;
        core.memory().saveState(body);
        appendSection(payload, kSecMemory, body);
    }
    {
        SerialWriter body;
        core.branchPredictorMut().saveState(body);
        appendSection(payload, kSecBp, body);
    }
    {
        SerialWriter body;
        core.storeSets().saveState(body);
        appendSection(payload, kSecSsp, body);
    }
    {
        SerialWriter body;
        core.lsq().saveState(body);
        appendSection(payload, kSecLsq, body);
    }

    SerialWriter file;
    file.raw(kCkptMagic, sizeof(kCkptMagic));
    file.u32(kCkptVersion);
    file.str(config.benchmark);
    file.str(config.tracePath);
    file.u64(config.seed);
    file.u64(core.committed());
    file.u64(core.cycle());
    file.u64(functionalFingerprint(config));
    file.u64(payload.size());
    file.u32(crc32(payload.buffer().data(), payload.size()));
    file.raw(payload.buffer().data(), payload.size());
    const std::string &bytes = file.buffer();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    LSQ_ASSERT(f != nullptr, "cannot create checkpoint file %s",
               path.c_str());
    std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool flushed = std::fclose(f) == 0;
    LSQ_ASSERT(wrote == bytes.size() && flushed,
               "short write to checkpoint file %s", path.c_str());
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

    {
        Section sec = openSection(r, kSecCore);
        SerialReader body = sec.reader();
        core.loadState(body);
        body.expectEnd("CORE section");
    }
    {
        Section sec = openSection(r, kSecStream);
        SerialReader body = sec.reader();
        core.stream().loadState(body);
        body.expectEnd("STRM section");
    }
    {
        Section sec = openSection(r, kSecMemory);
        SerialReader body = sec.reader();
        core.memory().loadState(body);
        body.expectEnd("MEM section");
    }
    {
        Section sec = openSection(r, kSecBp);
        SerialReader body = sec.reader();
        core.branchPredictorMut().loadState(body);
        body.expectEnd("BP section");
    }
    {
        Section sec = openSection(r, kSecSsp);
        SerialReader body = sec.reader();
        core.storeSets().loadState(body);
        body.expectEnd("SSP section");
    }
    {
        Section sec = openSection(r, kSecLsq);
        SerialReader body = sec.reader();
        core.lsq().loadState(body);
        body.expectEnd("LSQ section");
    }
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
        std::string skip;
        skip.resize(static_cast<std::size_t>(len));
        if (len > 0)
            r.raw(skip.data(), static_cast<std::size_t>(len));
        info.sections.push_back({tagName(tag), len});
    }
    return info;
}

} // namespace lsqscale
