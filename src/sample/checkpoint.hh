/**
 * @file
 * The lsqscale-ckpt-v1 checkpoint format (docs/SAMPLING.md).
 *
 * A checkpoint captures the *functional* state of a run at a quiesced
 * pipeline boundary: workload generator (RNGs, program layout, replay
 * window), memory image (cache tags, LRU, in-flight fills), branch
 * predictor tables, store-set predictor tables, and the LSQ's segment
 * rotation state. Microarchitectural in-flight state is excluded by
 * construction — checkpoints are only taken when Core::quiescent()
 * holds — so one checkpoint restores into any LSQ design point that
 * shares the same functional configuration (the fingerprint below
 * deliberately excludes LsqParams and core widths).
 *
 * On-disk layout (little-endian, fixed-width):
 *
 *   magic     8 bytes  "LSQCKPT1"
 *   version   u32      kCkptVersion
 *   benchmark str      (u64 length + bytes)
 *   tracePath str
 *   seed      u64
 *   instCount u64      committed instructions at save time
 *   cycle     u64      core cycle at save time
 *   fprint    u64      functionalFingerprint() of the saving config
 *   paylen    u64      payload length in bytes
 *   crc       u32      CRC-32 (zlib polynomial) of the payload
 *   payload   paylen bytes: sections, each
 *               tag u32 (fourcc) + len u64 + len bytes
 *             in fixed order CORE, STRM, MEM, BP, SSP, LSQ
 */
// lsqlint: layer(sim) -- checkpoint container interface consumed by simulator.cc; includes only rehomed serialize.hh

#ifndef LSQSCALE_SAMPLE_CHECKPOINT_HH
#define LSQSCALE_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sample/serialize.hh"

namespace lsqscale {

class Core;
struct SimConfig;

/** File magic, first 8 bytes of every checkpoint. */
inline constexpr char kCkptMagic[8] = {'L', 'S', 'Q', 'C',
                                       'K', 'P', 'T', '1'};

/** Current format version. */
inline constexpr std::uint32_t kCkptVersion = 1;

/** Header metadata of a checkpoint file. */
struct CheckpointMeta
{
    std::uint32_t version = kCkptVersion;
    std::string benchmark;
    std::string tracePath;
    std::uint64_t seed = 0;
    std::uint64_t instCount = 0;  ///< committed instructions at save
    std::uint64_t cycle = 0;      ///< core cycle at save
    std::uint64_t fingerprint = 0;
    std::uint64_t payloadBytes = 0;
    std::uint32_t crc = 0;
};

/** One payload section, as listed by inspectCheckpoint(). */
struct CheckpointSectionInfo
{
    std::string tag;   ///< fourcc, e.g. "CORE"
    std::uint64_t bytes = 0;
};

/** Everything lsqckpt reports about a file. */
struct CheckpointInfo
{
    CheckpointMeta meta;
    std::vector<CheckpointSectionInfo> sections;
    bool crcOk = false;
};

/**
 * Hash of the configuration knobs that determine *functional*
 * behavior: benchmark/trace identity, seed, memory-hierarchy geometry
 * and latencies, and branch-predictor and store-set geometry. LSQ
 * design-point knobs (ports, segments, queue sizes, policies) are
 * excluded so one checkpoint serves a whole design-space sweep.
 */
std::uint64_t functionalFingerprint(const SimConfig &config);

/**
 * Serialize @p core (which must be quiescent) to @p path.
 * Throws SerialError on unserializable state, LSQ_PANICs on I/O
 * failure.
 */
void saveCheckpoint(Core &core, const SimConfig &config,
                    const std::string &path);

/**
 * Restore @p core from @p path. The core must be freshly constructed
 * from a config whose functionalFingerprint matches the checkpoint's.
 * Throws SerialError on any malformed, corrupted, truncated,
 * wrong-version, or configuration-mismatched file.
 */
CheckpointMeta loadCheckpoint(Core &core, const SimConfig &config,
                              const std::string &path);

/**
 * Parse the header and section table of @p path without a Core;
 * verifies the payload CRC. Throws SerialError on malformed files.
 */
CheckpointInfo inspectCheckpoint(const std::string &path);

} // namespace lsqscale

#endif // LSQSCALE_SAMPLE_CHECKPOINT_HH
