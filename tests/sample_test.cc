/**
 * @file
 * Unit tests for src/sample: restore equivalence over the paper's
 * design catalog, corrupted-file rejection, fast-forward determinism
 * under a thread pool, and the checkpoint CRC (docs/SAMPLING.md).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "catalog.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "harness/job_pool.hh"
#include "sample/checkpoint.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"

using namespace lsqscale;

namespace {

/**
 * The sample layer's behaviour must not depend on the harness
 * environment: these tests compare absolute instruction counts and
 * counter values, so an inherited LSQSCALE_INSTS would silently
 * change what "full" means.
 */
class SampleTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        unsetenv("LSQSCALE_INSTS");
    }
};

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * A checkpoint file carrying @p payload under @p meta's header, with
 * the payload length and CRC recomputed so the reader gets past the
 * header checks and into the section decoders.
 */
std::string
checkpointImage(const CheckpointMeta &meta, const std::string &payload)
{
    SerialWriter w;
    w.raw(kCkptMagic, sizeof(kCkptMagic));
    w.u32(meta.version);
    w.str(meta.benchmark);
    w.u64(meta.seed);
    w.u64(meta.instCount);
    w.u64(meta.cycle);
    w.u64(meta.fingerprint);
    w.u64(payload.size());
    w.u32(crc32(payload.data(), payload.size()));
    w.raw(payload.data(), payload.size());
    return w.buffer();
}

/** Save a checkpoint at @p ffInsts for @p cfg; returns its path. */
std::string
saveAt(SimConfig cfg, std::uint64_t ffInsts, const std::string &name)
{
    cfg.ffInsts = ffInsts;
    cfg.saveCkptPath = tmpPath(name);
    Simulator sim(cfg);
    sim.run();
    return cfg.saveCkptPath;
}

/** One design on one benchmark: a cell of the restore test. */
struct Cell
{
    std::string label;
    SimConfig cfg;
};

/** "label on benchmark", for failure messages. */
std::string
nameOf(const Cell &cell)
{
    return cell.label + " on " + cell.cfg.benchmark;
}

/** The first line where @p a and @p b differ, as "a-line | b-line". */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    while (true) {
        bool ga = static_cast<bool>(std::getline(sa, la));
        bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "";
        if (!ga || !gb || la != lb)
            return (ga ? la : "(end)") + " | " + (gb ? lb : "(end)");
    }
}

} // namespace

// ------------------------------------------- catalog-wide restore ----

TEST_F(SampleTest, CatalogRestoreEquivalence)
{
    // A restore must reproduce an uninterrupted run for every design
    // the paper's evaluation runs. A checkpoint is saved only after a
    // fast-forward (the CLI's --ff/--save-ckpt path), so one
    // checkpoint per functional fingerprint, restored into every
    // design that shares it, must measure the same run, to the byte
    // of stats.dump(), as that design's own fast-forward.
    const std::uint64_t kFf = 30000;
    const std::uint64_t kMeasure = 15000;

    std::vector<Cell> cells;
    for (const char *benchmark : {"gzip", "equake"})
        for (const NamedConfig &d : catalog())
            cells.push_back({d.label, d.make(benchmark)});
    // A segment size no catalog design uses.
    cells.push_back({"self-circular 4x8",
                     configs::withSegmentation(
                         configs::base("gcc"), 4, 8,
                         SegAllocPolicy::SelfCircular)});

    std::vector<std::string> diffs;
    std::map<std::uint64_t, std::string> shared;
    for (const Cell &cell : cells) {
        std::uint64_t fp = functionalFingerprint(cell.cfg);
        if (!shared.count(fp))
            shared[fp] = saveAt(cell.cfg, kFf,
                                "fp_" + std::to_string(shared.size()) +
                                    ".ckpt");

        SimConfig viaFf = cell.cfg;
        viaFf.ffInsts = kFf;
        viaFf.instructions = kMeasure;
        SimResult a = Simulator(viaFf).run();

        SimConfig viaLoad = cell.cfg;
        viaLoad.ffInsts = 0; // should benchBase ever fast-forward
        viaLoad.loadCkptPath = shared[fp];
        viaLoad.instructions = kMeasure;
        SimResult b = Simulator(viaLoad).run();

        std::string dumpA = a.stats.dump(), dumpB = b.stats.dump();
        if (a.cycles != b.cycles || dumpA != dumpB)
            diffs.push_back(nameOf(cell) + ": cycles " +
                            std::to_string(a.cycles) + " vs " +
                            std::to_string(b.cycles) + "; " +
                            firstDifference(dumpA, dumpB));
    }
    // gzip and equake each have three functional configurations (the
    // seeds 1, 2 and 3), gcc one.
    EXPECT_EQ(shared.size(), 7u);

    std::string list;
    for (const std::string &d : diffs)
        list += "\n  " + d;
    EXPECT_TRUE(diffs.empty())
        << diffs.size() << " of " << cells.size()
        << " cells differ after a fast-forward:" << list;
    for (const auto &entry : shared)
        std::remove(entry.second.c_str());
}

TEST_F(SampleTest, RestoreIgnoresPrewarm)
{
    // Simulator::run skips prewarmCaches under a restore because the
    // MEM section overwrites every cache field. So restoring into a
    // prewarmed core and into a fresh one must measure the same run,
    // cache counters included.
    const std::uint64_t kMeasure = 15000;
    std::string ckpt = saveAt(configs::base("mcf"), 30000,
                              "prewarm.ckpt");
    const SimConfig designs[] = {
        configs::base("mcf"),
        configs::withPorts(
            configs::withSegmentation(configs::base("mcf"), 4, 28,
                                      SegAllocPolicy::SelfCircular),
            1),
    };
    for (const SimConfig &cfg : designs) {
        std::string dumps[2];
        for (int prewarm = 0; prewarm < 2; ++prewarm) {
            StatSet stats;
            const BenchmarkProfile &profile = profileFor(cfg.benchmark);
            Core core(cfg.core, cfg.lsq, cfg.memory, profile, cfg.seed,
                      stats);
            if (prewarm) {
                prewarmCaches(core.memory(), profile);
                ASSERT_GT(core.memory().l2().misses(), 0u);
            }
            loadCheckpoint(core, cfg, ckpt);
            core.run(core.committed() + kMeasure);
            core.memory().exportStats(stats);
            dumps[prewarm] = stats.dump();
        }
        EXPECT_EQ(dumps[0], dumps[1]) << cfg.lsq.numSegments
                                      << " segment(s)";
    }
}

// ----------------------------------------------------- rejection ------

TEST_F(SampleTest, RejectsMissingFile)
{
    SimConfig cfg = configs::base("bzip");
    cfg.loadCkptPath = tmpPath("does_not_exist.ckpt");
    cfg.instructions = 1000;
    Simulator sim(cfg);
    EXPECT_THROW(sim.run(), SerialError);
}

TEST_F(SampleTest, RejectsDirectory)
{
    // The loader sizes its buffer from the file: a path that is not a
    // regular file has no size to trust and must be refused.
    SimConfig cfg = configs::base("bzip");
    cfg.loadCkptPath = ::testing::TempDir();
    cfg.instructions = 1000;
    Simulator sim(cfg);
    EXPECT_THROW(sim.run(), SerialError);
    EXPECT_THROW(inspectCheckpoint(cfg.loadCkptPath), SerialError);
}

TEST_F(SampleTest, RejectsZeroLengthFile)
{
    // A crashed --save-ckpt (or a full disk) can leave a zero-length
    // file behind; loading it must fail cleanly, not abort.
    SimConfig cfg = configs::base("bzip");
    cfg.loadCkptPath = tmpPath("empty.ckpt");
    writeBytes(cfg.loadCkptPath, "");
    cfg.instructions = 1000;
    Simulator sim(cfg);
    EXPECT_THROW(sim.run(), SerialError);
    EXPECT_THROW(inspectCheckpoint(cfg.loadCkptPath), SerialError);
}

TEST_F(SampleTest, RejectsTruncatedMidHeaderFile)
{
    // Cut inside the fixed header (after the magic + version but
    // before the metadata strings complete): both the loader and the
    // inspector must throw, not read past the end or abort.
    SimConfig cfg = configs::base("bzip");
    std::string ckpt = saveAt(cfg, 5000, "midheader.ckpt");
    std::string bytes = readBytes(ckpt);
    ASSERT_GT(bytes.size(), 16u);
    writeBytes(ckpt, bytes.substr(0, 16));

    cfg.loadCkptPath = ckpt;
    cfg.instructions = 1000;
    Simulator sim(cfg);
    EXPECT_THROW(sim.run(), SerialError);
    EXPECT_THROW(inspectCheckpoint(ckpt), SerialError);
}

TEST_F(SampleTest, RejectsTruncatedFile)
{
    SimConfig cfg = configs::base("bzip");
    std::string ckpt = saveAt(cfg, 5000, "trunc.ckpt");
    std::string bytes = readBytes(ckpt);
    ASSERT_GT(bytes.size(), 100u);
    writeBytes(ckpt, bytes.substr(0, bytes.size() / 2));

    cfg.loadCkptPath = ckpt;
    cfg.instructions = 1000;
    Simulator sim(cfg);
    EXPECT_THROW(sim.run(), SerialError);
}

TEST_F(SampleTest, RejectsCorruptedPayload)
{
    SimConfig cfg = configs::base("bzip");
    std::string ckpt = saveAt(cfg, 5000, "corrupt.ckpt");
    std::string bytes = readBytes(ckpt);
    // Flip one bit deep inside the payload: the CRC must catch it.
    bytes[bytes.size() - 40] ^= 0x01;
    writeBytes(ckpt, bytes);

    cfg.loadCkptPath = ckpt;
    cfg.instructions = 1000;
    Simulator sim(cfg);
    EXPECT_THROW(sim.run(), SerialError);
    EXPECT_FALSE(inspectCheckpoint(ckpt).crcOk);
}

TEST_F(SampleTest, RejectsWrongVersion)
{
    SimConfig cfg = configs::base("bzip");
    std::string ckpt = saveAt(cfg, 5000, "version.ckpt");
    std::string bytes = readBytes(ckpt);
    bytes[8] = 0x7f; // version field follows the 8-byte magic
    writeBytes(ckpt, bytes);

    cfg.loadCkptPath = ckpt;
    cfg.instructions = 1000;
    Simulator sim(cfg);
    EXPECT_THROW(sim.run(), SerialError);
}

TEST_F(SampleTest, RejectsVersionOneFile)
{
    // Older files must be stopped by the version check before any
    // field is read: a version-1 header also carried a trace path, so
    // its fields sit at other offsets, a version-2 payload also held
    // the SSP and LSQ sections, and a version-3 MEM section also held
    // each cache's port state. No payload byte is read before the
    // check, so the version-3 image carries today's payload.
    SimConfig cfg = configs::base("bzip");
    std::string ckpt = saveAt(cfg, 5000, "old.ckpt");
    CheckpointMeta meta = inspectCheckpoint(ckpt).meta;
    std::string bytes = readBytes(ckpt);
    std::string payload = bytes.substr(bytes.size() - meta.payloadBytes);

    SerialWriter v1;
    v1.raw(kCkptMagic, sizeof(kCkptMagic));
    v1.u32(1);
    v1.str(meta.benchmark);
    v1.str("");  // the version-1 trace path
    v1.u64(meta.seed);
    v1.u64(meta.instCount);
    v1.u64(meta.cycle);
    v1.u64(meta.fingerprint);
    v1.u64(payload.size());
    v1.u32(crc32(payload.data(), payload.size()));
    v1.raw(payload.data(), payload.size());

    SerialWriter v2Payload;
    v2Payload.raw(payload.data(), payload.size());
    for (const char *tag : {"SSP ", "LSQ "}) {
        v2Payload.raw(tag, 4);
        v2Payload.u64(8);
        v2Payload.u64(0);
    }
    CheckpointMeta v2Meta = meta;
    v2Meta.version = 2;
    CheckpointMeta v3Meta = meta;
    v3Meta.version = 3;

    const std::string images[] = {
        v1.buffer(), checkpointImage(v2Meta, v2Payload.buffer()),
        checkpointImage(v3Meta, payload)};
    for (unsigned version = 1; version <= 3; ++version) {
        writeBytes(ckpt, images[version - 1]);
        const std::string want = "unsupported checkpoint version " +
                                 std::to_string(version);
        cfg.loadCkptPath = ckpt;
        cfg.instructions = 1000;
        Simulator sim(cfg);
        try {
            sim.run();
            ADD_FAILURE() << "a version-" << version
                          << " checkpoint loaded";
        } catch (const SerialError &e) {
            EXPECT_NE(std::string(e.what()).find(want),
                      std::string::npos)
                << e.what();
        }
        try {
            inspectCheckpoint(ckpt);
            ADD_FAILURE() << "a version-" << version
                          << " checkpoint was inspected";
        } catch (const SerialError &e) {
            EXPECT_NE(std::string(e.what()).find(want),
                      std::string::npos)
                << e.what();
        }
    }
    std::remove(ckpt.c_str());
}

TEST_F(SampleTest, RejectsBadMagic)
{
    SimConfig cfg = configs::base("bzip");
    std::string ckpt = saveAt(cfg, 5000, "magic.ckpt");
    std::string bytes = readBytes(ckpt);
    bytes[0] = 'X';
    writeBytes(ckpt, bytes);

    cfg.loadCkptPath = ckpt;
    cfg.instructions = 1000;
    Simulator sim(cfg);
    EXPECT_THROW(sim.run(), SerialError);
}

TEST_F(SampleTest, RejectsFunctionalConfigMismatch)
{
    // The functional fingerprint must refuse a restore into any config
    // whose knobs the file's contents depend on: the benchmark (same
    // trace generator seed), the seed, the L1-D geometry and the
    // branch-predictor geometry.
    std::string ckpt = saveAt(configs::base("bzip"), 5000, "fp.ckpt");
    std::vector<Cell> others = {{"benchmark", configs::base("gcc")},
                                {"seed", configs::base("bzip")},
                                {"L1-D size", configs::base("bzip")},
                                {"BP table", configs::base("bzip")}};
    others[1].cfg.seed += 1;
    others[2].cfg.memory.l1d.sizeBytes *= 2;
    others[3].cfg.core.branchPredictor.tableEntries *= 2;
    for (Cell &other : others) {
        other.cfg.loadCkptPath = ckpt;
        other.cfg.instructions = 1000;
        Simulator sim(other.cfg);
        EXPECT_THROW(sim.run(), SerialError) << "another " << other.label;
    }
}

// ------------------------------------------------------ mutants -------

TEST_F(SampleTest, MutatedPayloadsLoadOrThrowSerialError)
{
    // Every count a section decoder reads is checked against the
    // core's geometry or bounded by the bytes behind it. So a forged
    // count, a flipped byte or a cut payload, behind a valid CRC,
    // either loads or throws SerialError: never bad_alloc, a crash or
    // a sanitizer report. Small caches and predictor tables keep the
    // payload to a few KB, so every byte offset can be forged.
    SimConfig cfg = configs::base("bzip");
    cfg.memory.l1i.sizeBytes = 1024;
    cfg.memory.l1d.sizeBytes = 1024;
    cfg.memory.l2.sizeBytes = 4096;
    cfg.core.branchPredictor.tableEntries = 64;
    cfg.core.branchPredictor.historyBits = 6;
    cfg.core.branchPredictor.bhtEntries = 64;
    const std::string ckpt = saveAt(cfg, 5000, "mutant.ckpt");
    const CheckpointInfo info = inspectCheckpoint(ckpt);
    const std::string bytes = readBytes(ckpt);
    const std::string payload =
        bytes.substr(bytes.size() - info.meta.payloadBytes);
    ASSERT_LT(payload.size(), 16384u);

    const std::string path = tmpPath("mutant_in.ckpt");
    std::size_t rejected = 0;
    auto load = [&](const std::string &mutant) {
        writeBytes(path, checkpointImage(info.meta, mutant));
        StatSet stats;
        Core core(cfg.core, cfg.lsq, cfg.memory,
                  profileFor(cfg.benchmark), cfg.seed, stats);
        loadCheckpoint(core, cfg, path);
    };
    auto check = [&](const std::string &mutant, const char *what,
                     std::size_t k) {
        try {
            load(mutant);
        } catch (const SerialError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << " " << k << " threw " << e.what();
        }
    };

    // The unmutated payload loads.
    EXPECT_NO_THROW(load(payload));

    // Fixed case: the PAg history table, after the GAg history and
    // pattern table in the BP section (the last), claiming 2^40
    // entries.
    {
        ASSERT_EQ(info.sections.back().tag, "BP  ");
        std::size_t at = payload.size() - info.sections.back().bytes;
        SerialReader r(payload.data() + at, payload.size() - at);
        r.u32();
        std::uint64_t phtEntries = r.u64();
        at += 4 + 8 + phtEntries;
        std::string m = payload;
        for (std::size_t i = 0; i < 8; ++i)
            m[at + i] = static_cast<char>((1ULL << 40) >> (8 * i));
        EXPECT_THROW(load(m), SerialError);
    }

    // Every byte offset forged to an 8-byte 2^40 and 2^64-1: this
    // covers every count, length and value field of every section.
    for (std::size_t at = 0; at + 8 <= payload.size(); ++at) {
        for (std::uint64_t v : {1ULL << 40, ~0ULL}) {
            std::string m = payload;
            for (std::size_t i = 0; i < 8; ++i)
                m[at + i] = static_cast<char>(v >> (8 * i));
            check(m, "forged offset", at);
        }
    }
    // Fixed-seed byte flips and truncations.
    Rng rng(18);
    for (std::size_t k = 0; k < 400; ++k) {
        std::string m = payload;
        if (k % 2 == 0)
            m[rng.below(m.size())] ^=
                static_cast<char>(1u << rng.below(8));
        else
            m.resize(rng.below(m.size()));
        check(m, "mutant", k);
    }
    EXPECT_GT(rejected, 0u);
    std::remove(ckpt.c_str());
    std::remove(path.c_str());
}

// ------------------------------------------------------- inspect ------

TEST_F(SampleTest, InspectReportsHeaderAndSections)
{
    SimConfig cfg = configs::base("mcf");
    cfg.seed = 77;
    std::string ckpt = saveAt(cfg, 12000, "inspect.ckpt");

    CheckpointInfo info = inspectCheckpoint(ckpt);
    EXPECT_TRUE(info.crcOk);
    EXPECT_EQ(info.meta.version, kCkptVersion);
    EXPECT_EQ(info.meta.benchmark, "mcf");
    EXPECT_EQ(info.meta.seed, 77u);
    EXPECT_EQ(info.meta.instCount, 12000u);
    EXPECT_EQ(info.meta.fingerprint, functionalFingerprint(cfg));

    ASSERT_EQ(info.sections.size(), 4u);
    EXPECT_EQ(info.sections[0].tag, "CORE");
    EXPECT_EQ(info.sections[1].tag, "STRM");
    EXPECT_EQ(info.sections[2].tag, "MEM ");
    EXPECT_EQ(info.sections[3].tag, "BP  ");
    for (const CheckpointSectionInfo &sec : info.sections)
        EXPECT_GT(sec.bytes, 0u) << sec.tag;
}

// ----------------------------------------- parallel determinism -------

TEST_F(SampleTest, FastForwardDeterministicUnderJobPool)
{
    // Checkpoints written by concurrent workers (the sweep harness
    // under LSQSCALE_JOBS>1) must be byte-identical to a serially
    // written one: fast-forward may not depend on thread schedule.
    std::string serial = saveAt(configs::base("twolf"), 25000,
                                "par_serial.ckpt");

    const unsigned kJobs = 4;
    std::vector<std::string> paths;
    for (unsigned i = 0; i < kJobs; ++i)
        paths.push_back(tmpPath("par_" + std::to_string(i) + ".ckpt"));
    JobPool pool(kJobs);
    for (unsigned i = 0; i < kJobs; ++i)
        pool.submit([i, &paths] {
            SimConfig cfg = configs::base("twolf");
            cfg.ffInsts = 25000;
            cfg.saveCkptPath = paths[i];
            Simulator sim(cfg);
            sim.run();
        });
    pool.wait();

    std::string ref = readBytes(serial);
    ASSERT_FALSE(ref.empty());
    for (const std::string &p : paths)
        EXPECT_EQ(readBytes(p), ref) << p;
}

// ------------------------------------------------------------ CRC ------

namespace {

/** Bit-at-a-time CRC-32 (IEEE, reflected): the reference. */
std::uint32_t
crc32Reference(const unsigned char *p, std::size_t n)
{
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

} // namespace

TEST(Crc32, KnownVector)
{
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment)
{
    Rng rng(25);
    std::vector<unsigned char> buf(1 << 20);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.below(256));

    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 1024; ++len)
            ASSERT_EQ(crc32(buf.data() + offset, len),
                      crc32Reference(buf.data() + offset, len))
                << "offset " << offset << " length " << len;
    EXPECT_EQ(crc32(buf.data(), buf.size()),
              crc32Reference(buf.data(), buf.size()));
}
