/**
 * @file
 * Unit tests for src/sample: checkpoint round-trip bit-identity,
 * corrupted-file rejection, fast-forward determinism under a thread
 * pool, and the interval sampler's error bound (docs/SAMPLING.md).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "harness/job_pool.hh"
#include "sample/checkpoint.hh"
#include "sample/sampler.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"

using namespace lsqscale;

namespace {

/**
 * The sample layer's behaviour must not depend on the harness
 * environment: these tests compare absolute instruction counts and
 * counter values, so an inherited LSQSCALE_INSTS / LSQSCALE_SAMPLE
 * would silently change what "full" means.
 */
class SampleTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        unsetenv("LSQSCALE_INSTS");
        unsetenv("LSQSCALE_SAMPLE");
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

/**
 * The core bit-identity contract: measuring M instructions after
 * restoring a checkpoint must equal measuring M instructions after
 * fast-forwarding to the same boundary in one process — cycle counts,
 * retired-op counts, and every architectural/search counter.
 */
void
expectRoundTripIdentity(const SimConfig &base, const std::string &tag)
{
    const std::uint64_t kFf = 30000;
    const std::uint64_t kMeasure = 15000;
    std::string ckpt = saveAt(base, kFf, "rt_" + tag + ".ckpt");

    SimConfig viaFf = base;
    viaFf.ffInsts = kFf;
    viaFf.instructions = kMeasure;
    SimResult a = Simulator(viaFf).run();

    SimConfig viaLoad = base;
    viaLoad.loadCkptPath = ckpt;
    viaLoad.instructions = kMeasure;
    SimResult b = Simulator(viaLoad).run();

    EXPECT_EQ(a.committed, b.committed) << tag;
    EXPECT_EQ(a.cycles, b.cycles) << tag;
    std::vector<std::string> namesA = a.stats.counterNames();
    std::vector<std::string> namesB = b.stats.counterNames();
    EXPECT_EQ(namesA, namesB) << tag;
    for (const std::string &name : namesA)
        EXPECT_EQ(a.stats.value(name), b.stats.value(name))
            << tag << ": counter " << name;
}

} // namespace

// ---------------------------------------------- round-trip (3 pts) ----

TEST_F(SampleTest, RoundTripBitIdentityBase)
{
    expectRoundTripIdentity(configs::base("bzip"), "base");
}

TEST_F(SampleTest, RoundTripBitIdentitySegmented)
{
    expectRoundTripIdentity(
        configs::withSegmentation(configs::base("gcc"), 4, 8,
                                  SegAllocPolicy::SelfCircular),
        "segmented");
}

TEST_F(SampleTest, RoundTripBitIdentityLoadBuffer)
{
    expectRoundTripIdentity(configs::withLoadBuffer(configs::base("art"),
                                                    2),
                            "load-buffer");
}

TEST_F(SampleTest, RoundTripBitIdentityPairPredictor)
{
    expectRoundTripIdentity(
        configs::withPairPredictor(configs::base("mcf")), "pair");
}

// ------------------------------------------- one ckpt, many designs ----

TEST_F(SampleTest, CheckpointServesDesignSweep)
{
    // The functional fingerprint deliberately excludes LsqParams and
    // core widths: one warmed image must serve every design point of
    // a sweep. Restoring the base-config checkpoint into a segmented
    // LSQ must load cleanly and still match its own ff-twin.
    SimConfig base = configs::base("gzip");
    std::string ckpt = saveAt(base, 30000, "sweep.ckpt");

    SimConfig seg = configs::withSegmentation(base, 4, 8,
                                              SegAllocPolicy::SelfCircular);
    seg.loadCkptPath = ckpt;
    seg.instructions = 15000;
    SimResult viaLoad = Simulator(seg).run();

    SimConfig segFf = configs::withSegmentation(base, 4, 8,
                                                SegAllocPolicy::SelfCircular);
    segFf.ffInsts = 30000;
    segFf.instructions = 15000;
    SimResult viaFf = Simulator(segFf).run();

    EXPECT_EQ(viaLoad.cycles, viaFf.cycles);
    EXPECT_EQ(viaLoad.committed, viaFf.committed);
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
    // Same trace generator seed, different benchmark: the functional
    // fingerprint must refuse the restore.
    std::string ckpt = saveAt(configs::base("bzip"), 5000, "fp.ckpt");
    SimConfig other = configs::base("gcc");
    other.loadCkptPath = ckpt;
    other.instructions = 1000;
    Simulator sim(other);
    EXPECT_THROW(sim.run(), SerialError);
}

// ------------------------------------------------------ mutants -------

namespace {

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
    w.str(meta.tracePath);
    w.u64(meta.seed);
    w.u64(meta.instCount);
    w.u64(meta.cycle);
    w.u64(meta.fingerprint);
    w.u64(payload.size());
    w.u32(crc32(payload.data(), payload.size()));
    w.raw(payload.data(), payload.size());
    return w.buffer();
}

} // namespace

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
    cfg.core.storeSet.ssitEntries = 64;
    cfg.core.storeSet.lfstEntries = 16;
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

    // Fixed case: the LQ allocator, first in the LSQ section, claiming
    // 2^40 live entries.
    {
        std::size_t at = payload.size() - info.sections.back().bytes;
        SerialReader r(payload.data() + at, payload.size() - at);
        std::uint64_t segs = r.u64();
        at += 8 + 4 * segs;
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

    ASSERT_EQ(info.sections.size(), 6u);
    EXPECT_EQ(info.sections[0].tag, "CORE");
    EXPECT_EQ(info.sections[1].tag, "STRM");
    EXPECT_EQ(info.sections[2].tag, "MEM ");
    EXPECT_EQ(info.sections[3].tag, "BP  ");
    EXPECT_EQ(info.sections[4].tag, "SSP ");
    EXPECT_EQ(info.sections[5].tag, "LSQ ");
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

// ------------------------------------------------- spec parsing -------

TEST_F(SampleTest, ParseSampleSpec)
{
    SampleSpec s;
    ASSERT_TRUE(parseSampleSpec("2000:500:500", s));
    EXPECT_EQ(s.ffInsts, 2000u);
    EXPECT_EQ(s.warmInsts, 500u);
    EXPECT_EQ(s.measureInsts, 500u);
    EXPECT_TRUE(s.enabled());
    EXPECT_EQ(formatSampleSpec(s), "2000:500:500");

    ASSERT_TRUE(parseSampleSpec("0:0:1", s));
    EXPECT_EQ(s.ffInsts, 0u);
    EXPECT_EQ(s.measureInsts, 1u);

    EXPECT_FALSE(parseSampleSpec("", s));
    EXPECT_FALSE(parseSampleSpec("2000", s));
    EXPECT_FALSE(parseSampleSpec("2000:500", s));
    EXPECT_FALSE(parseSampleSpec("2000:500:0", s));   // D must be > 0
    EXPECT_FALSE(parseSampleSpec("2000:500:500:1", s));
    EXPECT_FALSE(parseSampleSpec("2000:500:500x", s));
    EXPECT_FALSE(parseSampleSpec("-1:500:500", s));
    EXPECT_FALSE(parseSampleSpec("a:b:c", s));
}

TEST_F(SampleTest, SampleSpecDisabledByDefault)
{
    SampleSpec s;
    EXPECT_FALSE(s.enabled());
}

// --------------------------------------------------- sampled IPC ------

namespace {

/** Full-detail and sampled IPC for @p benchmark at @p insts. */
void
expectSampledIpcWithin(const std::string &benchmark, double boundPct)
{
    const std::uint64_t kInsts = 300000;
    SimConfig full = configs::base(benchmark);
    full.instructions = kInsts;
    SimResult f = Simulator(full).run();

    SimConfig sampled = configs::base(benchmark);
    sampled.instructions = kInsts;
    ASSERT_TRUE(parseSampleSpec("2000:500:500", sampled.sample));
    SimResult s = Simulator(sampled).run();

    EXPECT_TRUE(s.sampling.enabled);
    EXPECT_GT(s.sampling.intervals(), 50u);
    EXPECT_GT(s.sampling.ffInsts, 0u);
    // Only the measure windows are timed...
    EXPECT_LT(s.committed, kInsts / 2);
    EXPECT_EQ(s.committed, s.sampling.measuredInsts);
    EXPECT_EQ(s.cycles, s.sampling.measuredCycles);
    // ...yet the estimate lands near the full-detail IPC.
    double err = std::abs(s.ipc() - f.ipc()) / f.ipc() * 100.0;
    EXPECT_LT(err, boundPct)
        << benchmark << ": sampled " << s.ipc() << " vs full "
        << f.ipc();
    // And the reported confidence interval is self-consistent.
    EXPECT_GT(s.sampling.ipcMean, 0.0);
    EXPECT_GT(s.sampling.ipcErr95, 0.0);
}

} // namespace

TEST_F(SampleTest, SampledIpcTracksFullDetailBzip)
{
    expectSampledIpcWithin("bzip", 5.0);
}

TEST_F(SampleTest, SampledIpcTracksFullDetailMcf)
{
    expectSampledIpcWithin("mcf", 5.0);
}

TEST_F(SampleTest, SampledRunStillEmitsIntervalSeries)
{
    // Interval observability (PR 3) must survive sampling: a sampled
    // run with --interval-stats produces a non-empty series.
    SimConfig cfg = configs::base("bzip");
    cfg.instructions = 60000;
    cfg.intervalCycles = 2000;
    ASSERT_TRUE(parseSampleSpec("2000:500:500", cfg.sample));
    SimResult r = Simulator(cfg).run();
    EXPECT_TRUE(r.sampling.enabled);
    EXPECT_FALSE(r.intervals.empty());
}

TEST_F(SampleTest, SampledRunIsReproducible)
{
    SimConfig cfg = configs::base("equake");
    cfg.instructions = 60000;
    ASSERT_TRUE(parseSampleSpec("2000:500:500", cfg.sample));
    SimResult a = Simulator(cfg).run();
    SimResult b = Simulator(cfg).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.sampling.intervalIpc, b.sampling.intervalIpc);
}
