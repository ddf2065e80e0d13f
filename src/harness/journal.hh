/**
 * @file
 * Append-only sweep journal (lsqscale-journal-v1, docs/ROBUSTNESS.md).
 *
 * A JournalWriter sink records each finished cell — status, attempts,
 * crash provenance, and the full SimResult for healthy cells — as a
 * CRC-framed record the moment it completes. If the whole sweep
 * process later dies (OOM kill, power, a crash that even process
 * isolation cannot contain), `LSQSCALE_RESUME=<journal>` replays it:
 * cells recorded Ok are restored without re-running, and only
 * crashed/poisoned/missing cells execute again. The restored grid is
 * byte-identical to an uninterrupted run (same SimResult bytes, same
 * stable-order sink rendering).
 *
 * On-disk format:
 *   8-byte magic "LSQJRNL1", then records of
 *     u32 payloadLength, u32 crc32(payload), payload
 *   where payload is
 *     u8 type 1 (SweepBegin): str name, u64 rows, u64 cols,
 *        rows x str configLabel, cols x str benchmark
 *     u8 type 2 (CellDone): u64 row, u64 col, u8 status, u32 attempts,
 *        u64 seed, str error, u32 termSignal, u32 exitStatus,
 *        str stderrTail, f64 seconds, bool hasResult,
 *        [SimResult::saveState bytes]
 *
 * Torn-tail tolerance: a process killed mid-fwrite leaves a partial
 * final frame; the reader stops at the first short or CRC-failing
 * record and keeps everything before it. Duplicate (row, col) records
 * — from a resumed run appending over a prior one — resolve
 * later-record-wins.
 */

#ifndef LSQSCALE_HARNESS_JOURNAL_HH
#define LSQSCALE_HARNESS_JOURNAL_HH

#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/sink.hh"

namespace lsqscale {

/** File magic, first 8 bytes of every journal. */
inline constexpr char kJournalMagic[8] = {'L', 'S', 'Q', 'J',
                                          'R', 'N', 'L', '1'};

/**
 * Upper bound on one record payload, far above any real record. The
 * reader treats a larger declared length as a torn tail even when the
 * file happens to be big enough to hold it — a crafted or corrupted
 * u32 len must never drive a multi-gigabyte allocation.
 */
inline constexpr std::uint32_t kMaxJournalRecordBytes = 64u << 20;

/** One CellDone record, decoded. */
struct JournalCell
{
    std::size_t row = 0;
    std::size_t col = 0;
    JobStatus status = JobStatus::Ok;
    unsigned attempts = 0;
    std::uint64_t seed = 0;
    std::string error;
    int termSignal = 0;
    int exitStatus = 0;
    std::string stderrTail;
    double seconds = 0.0;
    bool hasResult = false;
    SimResult result; ///< valid only when hasResult
};

/** Everything a journal file held, deduplicated later-record-wins. */
struct JournalContents
{
    std::string name;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<std::string> configLabels;
    std::vector<std::string> benchmarks;
    std::vector<JournalCell> cells;
    std::size_t records = 0;    ///< raw CellDone records, pre-dedup
    bool truncatedTail = false; ///< file ended in a torn record
};

/**
 * Parse @p path. Returns false (with @p error set) only for files that
 * are unusable outright — unreadable, too short for the magic, or the
 * wrong magic; a torn tail is NOT an error (truncatedTail flags it).
 */
bool readJournal(const std::string &path, JournalContents &out,
                 std::string &error);

// ------------------------------------------------- record codecs ----

/** Encode a SweepBegin payload (record type 1). */
std::string encodeSweepBeginRecord(
    const std::string &name,
    const std::vector<std::string> &configLabels,
    const std::vector<std::string> &benchmarks);

/** Encode a CellDone payload (record type 2). */
std::string encodeCellRecord(const JournalCell &cell);

/** A SweepCell reduced to its journal form (result kept when Ok). */
JournalCell journalCellFrom(const SweepCell &cell);

/** Wrap a record payload in the on-disk u32 len + u32 crc32 frame. */
std::string frameJournalRecord(const std::string &payload);

/**
 * Incremental record-payload decoder: feed CRC-verified payloads (in
 * stream order) and read back the deduplicated JournalContents.
 * Duplicate (row, col) records resolve later-record-wins, exactly like
 * readJournal(); unknown record types are skipped so old readers
 * tolerate newer writers.
 */
class JournalAccumulator
{
  public:
    /** Decode one payload. False (with @p error) on a malformed one. */
    bool add(const char *payload, std::size_t len, std::string &error);
    bool add(const std::string &payload, std::string &error);

    /** Everything fed so far, cells flattened in (row, col) order. */
    JournalContents contents() const;

  private:
    JournalContents meta_;
    std::map<std::pair<std::size_t, std::size_t>, JournalCell> cells_;
};

/**
 * ResultSink that appends one record per finished cell, flushed
 * immediately so the journal survives the process dying right after.
 * Restored cells (journal resume) never reach cellDone, so resuming
 * appends only the newly-executed cells.
 */
class JournalWriter : public ResultSink
{
  public:
    /**
     * Open @p path. @p append continues an existing journal (resume);
     * otherwise the file is truncated and a fresh magic written. An
     * open failure warns and turns the sink into a no-op (ok() false)
     * — journaling must never poison a healthy sweep.
     */
    explicit JournalWriter(std::string path, bool append = false);
    ~JournalWriter() override;

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    bool ok() const { return f_ != nullptr; }
    const std::string &path() const { return path_; }

    void sweepBegin(const SweepOutcome &planned) override;
    void cellDone(const SweepCell &cell) override;

  private:
    void writeRecord(const std::string &payload);

    std::string path_;
    std::FILE *f_ = nullptr;
};

} // namespace lsqscale

#endif // LSQSCALE_HARNESS_JOURNAL_HH
