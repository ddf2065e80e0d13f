/**
 * @file
 * The lsqscale-ckpt checkpoint format, version 4 (docs/SAMPLING.md).
 *
 * A checkpoint holds what a functional fast-forward
 * (Core::fastForward) changes: the core's scalar state (clock,
 * commit count, fetch and branch-training position), the workload
 * generator (RNGs, program layout), the memory image (cache tags and
 * LRU state) and the branch predictor tables. Files are saved only
 * after a fast-forward or a restore (Simulator::run), from a
 * quiescent core (Core::quiescent()), so the store-set predictor, the
 * LSQ and the stream's replay window hold their constructor state and
 * are not written. One checkpoint restores into any design point that
 * shares its functional fingerprint (below), which excludes
 * LsqParams, core widths, store-set geometry, cache ports and
 * latencies.
 *
 * On-disk layout (little-endian, fixed-width):
 *
 *   magic     8 bytes  "LSQCKPT1"
 *   version   u32      kCkptVersion
 *   benchmark str      (u64 length + bytes)
 *   seed      u64
 *   instCount u64      committed instructions at save time
 *   cycle     u64      core cycle at save time
 *   fprint    u64      functionalFingerprint() of the saving config
 *   paylen    u64      payload length in bytes
 *   crc       u32      CRC-32 (zlib polynomial) of the payload
 *   payload   paylen bytes: sections, each
 *               tag u32 (fourcc) + len u64 + len bytes
 *             in fixed order CORE, STRM, MEM, BP
 */

#ifndef LSQSCALE_SAMPLE_CHECKPOINT_HH
#define LSQSCALE_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"

namespace lsqscale {

class Core;
struct SimConfig;

/** File magic, first 8 bytes of every checkpoint. */
inline constexpr char kCkptMagic[8] = {'L', 'S', 'Q', 'C',
                                       'K', 'P', 'T', '1'};

/**
 * Current format version. Bump it with any layout change, so that an
 * older file is rejected by version instead of misparsed.
 */
inline constexpr std::uint32_t kCkptVersion = 4;

/** Header metadata of a checkpoint file. */
struct CheckpointMeta
{
    std::uint32_t version = kCkptVersion;
    std::string benchmark;
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
 * Hash of the configuration knobs that a checkpoint's contents depend
 * on: benchmark, seed, cache geometry and branch-predictor geometry.
 * Everything else is excluded so one checkpoint serves every design
 * point that shares these: the LSQ and the core (a fast-forward
 * touches neither), the store-set predictor (never trained by a
 * fast-forward), the cache ports (a fast-forward never arbitrates for
 * one) and the cache and memory latencies (a fast-forward discards
 * the ready cycle they compute).
 */
std::uint64_t functionalFingerprint(const SimConfig &config);

/**
 * Serialize @p core (which must be quiescent) to @p path.
 * Throws SerialError on unserializable state or when the file cannot
 * be created or fully written.
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
