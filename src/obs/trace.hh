/**
 * @file
 * Event tracing for the pipeline and the LSQ (docs/OBSERVABILITY.md).
 *
 * A Tracer is a pure observer: components attached to one append
 * fixed-size binary TraceRecords describing instruction-lifecycle and
 * LSQ events into a ring buffer, optionally draining to a binary trace
 * file. Nothing in the simulator ever reads a tracer, so traced runs
 * are timing-bit-identical to untraced runs.
 *
 * Cost discipline: every build compiles the hook sites in. A run with
 * no tracer attached pays one null-pointer test per hook site and
 * evaluates none of the hook's arguments; a traced run adds one event
 * mask test per record.
 *
 * The record format is versioned and stable (kEventTraceMagic /
 * kEventTraceVersion): tools/lsqtrace and the Konata exporter
 * (obs/konata.hh) consume the same files across builds.
 */

#ifndef LSQSCALE_OBS_TRACE_HH
#define LSQSCALE_OBS_TRACE_HH

#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace lsqscale {

/**
 * Everything a trace can record. Values are stable identifiers that
 * appear in binary trace files: append new events at the end, never
 * renumber.
 */
enum class TraceEvent : std::uint8_t {
    // ------------------------------------ instruction lifecycle ------
    Fetch,             ///< entered the fetch queue (payload=pc, a=OpClass)
    Dispatch,          ///< renamed + entered ROB/IQ (payload=pc)
    Issue,             ///< left the IQ for execution
    Complete,          ///< result written back
    Retire,            ///< committed (a=1 for stores)

    // ------------------------------------ SQ forwarding search -------
    SqSearch,          ///< forwarding search ran (b=segments, a=matched)
    SqSearchSkip,      ///< pair predictor bypassed the SQ search
    SqSearchContention,///< search squashed: future segment slot booked
                       ///< (b=replay delay charged)
    ForwardHit,        ///< load forwarded (payload=forwarding store seq)
    PredFalseDep,      ///< predicted-dependent load found no match
    PredWaitCycle,     ///< one cycle stalled on a predicted store dep

    // ------------------------------------ LQ ordering searches -------
    LqSearch,          ///< load's own load-load search (b=segments)
    StoreSearch,       ///< store execute-time search (b=segments)
    StoreCommitSearch, ///< store commit-time search (b=segments)
    StoreCommitDelay,  ///< store commit delayed a cycle (port shortfall)
    InvalSearch,       ///< external-invalidation search (b=segments)

    // ------------------------------------ load buffer ----------------
    LbInsert,          ///< out-of-order load entered the load buffer
    LbRelease,         ///< NILP passed the load; entry released
    LbFullStall,       ///< load could not issue: load buffer full

    // ------------------------------------ recovery -------------------
    ViolationSquash,   ///< memory-order squash (seq=victim, a=reason)

    // ------------------------------------ coherence probes -----------
    ProbeDeliver,      ///< external probe delivered (payload=addr,
                       ///< a=1 when it squashed a load)
    LbProbe,           ///< probe snooped the load buffer (payload=addr,
                       ///< seq=victim or kNoSeq, a=hit)
};

/** Number of TraceEvent values (mask bits / array sizing). */
inline constexpr unsigned kNumTraceEvents = 22;

/** Short stable name of an event ("fetch", "sq.search", ...). */
const char *traceEventName(TraceEvent ev);

/** Bit in an event mask. */
constexpr std::uint32_t
traceEventBit(TraceEvent ev)
{
    return 1u << static_cast<unsigned>(ev);
}

/** Mask with every event enabled. */
inline constexpr std::uint32_t kTraceAllEvents =
    (1u << kNumTraceEvents) - 1;

/**
 * Parse a --trace-events filter: a comma list of event names and/or
 * category names ("pipe", "lsq", "pred", "squash", "all").
 * @return true on success; on failure @p err names the bad token.
 */
bool parseTraceEvents(const std::string &spec, std::uint32_t &mask,
                      std::string &err);

/**
 * One traced event. Fixed 32-byte POD so binary traces are seekable
 * and mmap-friendly; field meaning per event is in the TraceEvent
 * comments (payload carries a pc, an address, or a partner seq).
 */
struct TraceRecord
{
    Cycle cycle = 0;
    SeqNum seq = 0;
    std::uint64_t payload = 0;
    std::uint8_t event = 0;   ///< a TraceEvent value
    std::uint8_t a = 0;       ///< small per-event argument
    std::uint16_t b = 0;      ///< per-event argument (e.g. segments)
    std::uint32_t pad = 0;    ///< reserved, always zero

    TraceEvent ev() const { return static_cast<TraceEvent>(event); }
};

static_assert(sizeof(TraceRecord) == 32,
              "TraceRecord is a stable 32-byte on-disk format");
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "TraceRecord must be memcpy-able");

/**
 * Binary event-trace file header constants (little-endian, host
 * order).
 */
inline constexpr std::uint64_t kEventTraceMagic =
    0x314352545153ULL; // "SQTRC1"
inline constexpr std::uint32_t kEventTraceVersion = 1;

/**
 * Fixed-capacity ring of TraceRecords: when full, the oldest record is
 * overwritten and wrapped() counts it. drain() returns the live
 * records oldest-first.
 */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t capacity);

    void push(const TraceRecord &rec);

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return storage_.size(); }
    bool empty() const { return size_ == 0; }
    /** Records overwritten because the ring was full. */
    std::uint64_t wrapped() const { return wrapped_; }

    /** The i-th live record, oldest first. */
    const TraceRecord &at(std::size_t i) const;

    /** Copy the live records out, oldest first. */
    std::vector<TraceRecord> drain() const;

    void clear();

  private:
    std::vector<TraceRecord> storage_;
    std::size_t head_ = 0; ///< index of the oldest live record
    std::size_t size_ = 0;
    std::uint64_t wrapped_ = 0;
};

/** Runtime tracing configuration (sim/sim_config.hh embeds one). */
struct TraceConfig
{
    /** Master switch; set by --trace-events (or --trace-out). */
    bool enabled = false;

    /** Which events to record (traceEventBit bits). */
    std::uint32_t eventMask = kTraceAllEvents;

    /**
     * Binary trace output file. When set the ring drains here every
     * time it fills, so the file holds the COMPLETE event stream;
     * when empty the ring keeps only the most recent records.
     */
    std::string binaryPath;

    /** Konata/O3PipeView text export written after the run. */
    std::string konataPath;

    /** In-memory ring capacity in records. */
    std::size_t ringCapacity = 1u << 16;
};

/**
 * The event recorder. Attach to a Core (which forwards to its Lsq);
 * record() is called from the LSQ_TRACE_HOOK sites only.
 */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig &config);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool
    wants(TraceEvent ev) const
    {
        return (config_.eventMask & traceEventBit(ev)) != 0;
    }

    /** Append one event (dropped when filtered by the mask). */
    void
    record(TraceEvent ev, Cycle cycle, SeqNum seq,
           std::uint64_t payload = 0, std::uint8_t a = 0,
           std::uint16_t b = 0)
    {
        if (!wants(ev))
            return;
        TraceRecord rec;
        rec.cycle = cycle;
        rec.seq = seq;
        rec.payload = payload;
        rec.event = static_cast<std::uint8_t>(ev);
        rec.a = a;
        rec.b = b;
        push(rec);
    }

    /** Flush the ring to the binary file (if any) and close it. */
    void finish();

    /**
     * All recorded events, oldest first: re-read from the binary file
     * when one was written (the complete stream), else the ring
     * contents (the most recent ringCapacity records). Implies
     * finish().
     */
    std::vector<TraceRecord> collect();

    const TraceRing &ring() const { return ring_; }
    const TraceConfig &config() const { return config_; }

    /** Events accepted past the mask filter. */
    std::uint64_t recorded() const { return recorded_; }

  private:
    void push(const TraceRecord &rec);
    void drainToFile();

    TraceConfig config_;
    TraceRing ring_;
    std::FILE *file_ = nullptr;
    std::uint64_t recorded_ = 0;
    bool finished_ = false;
};

/**
 * Read a binary trace written by a Tracer from @p f, positioned at its
 * start. Fails with @p err set on a short or foreign header, a read
 * error, or a body that is not a whole number of records. Field values
 * are not checked: consumers render events and arguments they do not
 * know.
 */
bool readTraceStream(std::FILE *f, std::vector<TraceRecord> &out,
                     std::string &err);

/**
 * Read a binary trace file. Calls LSQ_FATAL on a missing file, and
 * with "corrupt trace: " on anything readTraceStream rejects.
 */
std::vector<TraceRecord> readTraceFile(const std::string &path);

/** Render one record as a human-readable line (tools/lsqtrace dump). */
std::string traceRecordToString(const TraceRecord &rec);

} // namespace lsqscale

/**
 * Hook-site macro. @p tracer is a `Tracer *` (may be null); the
 * remaining arguments are forwarded to Tracer::record() and evaluated
 * only when a tracer is attached.
 */
#define LSQ_TRACE_HOOK(tracer, ...)                                       \
    do {                                                                  \
        if ((tracer) != nullptr)                                          \
            (tracer)->record(__VA_ARGS__);                                \
    } while (0)

#endif // LSQSCALE_OBS_TRACE_HH
