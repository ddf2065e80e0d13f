/**
 * @file
 * Replayable instruction stream.
 *
 * The pipeline fetches from an InstStream rather than the raw
 * TraceGenerator: InstStream keeps every fetched-but-uncommitted
 * MicroOp in a window so a memory-order-violation squash can rewind
 * fetch to the offending instruction and replay it *identically*
 * (same address, same registers, same branch outcome) — exactly what a
 * real refetch of the committed path does.
 */

#ifndef LSQSCALE_WORKLOAD_INST_STREAM_HH
#define LSQSCALE_WORKLOAD_INST_STREAM_HH

#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/ring.hh"
#include "workload/inst_source.hh"
#include "workload/trace_generator.hh"

namespace lsqscale {

/** Fetch window over an InstSource with squash/replay support. */
class InstStream
{
  public:
    /** Convenience: drive from the synthetic generator. */
    InstStream(const BenchmarkProfile &profile, std::uint64_t seed)
        : source_(std::make_unique<TraceGenerator>(profile, seed))
    {}

    /** Drive from any InstSource (e.g. a litmus thread's program). */
    explicit InstStream(std::unique_ptr<InstSource> source)
        : source_(std::move(source))
    {
        LSQ_ASSERT(source_ != nullptr, "null instruction source");
    }

    /**
     * Fetch the next dynamic instruction (advances the cursor). The
     * reference is valid until the next fetch(): a full window grows.
     */
    const MicroOp &
    fetch()
    {
        if (cursor_ == window_.size()) {
            window_.push_back(source_->next());
            // Dense sequence numbers let the ROB index by seq.
            LSQ_ASSERT(window_.back().seq == generated_,
                       "instruction source skipped a sequence number");
            ++generated_;
        }
        return window_[cursor_++];
    }

    /**
     * fetch() and retireUpTo() the fetched op in one step, for
     * fast-forward, which runs only with nothing held for replay: the
     * op never enters the window.
     */
    MicroOp
    fetchAndRetire()
    {
        LSQ_DCHECK(window_.empty(),
                   "fast-forward past a non-empty replay window");
        MicroOp op = source_->next();
        LSQ_ASSERT(op.seq == generated_,
                   "instruction source skipped a sequence number");
        ++generated_;
        return op;
    }

    /** Sequence number the next fetch() will return. */
    SeqNum
    nextSeq() const
    {
        if (cursor_ < window_.size())
            return window_[cursor_].seq;
        return frontSeq() + window_.size();
    }

    /**
     * Rewind so the next fetch() re-delivers @p seq. All instructions
     * with sequence number >= seq must be (or be being) squashed by
     * the caller.
     */
    void
    squashTo(SeqNum seq)
    {
        SeqNum front = frontSeq();
        LSQ_ASSERT(seq >= front, "squash past the commit point");
        LSQ_ASSERT(seq <= front + window_.size(),
                   "squash target not yet fetched");
        cursor_ = static_cast<std::size_t>(seq - front);
    }

    /** Drop committed instructions (seq <= @p seq) from the window. */
    void
    retireUpTo(SeqNum seq)
    {
        while (!window_.empty() && window_.front().seq <= seq) {
            LSQ_ASSERT(cursor_ > 0, "retiring an unfetched instruction");
            window_.pop_front();
            --cursor_;
        }
    }

    /** Number of instructions held in the replay window. */
    std::size_t windowSize() const { return window_.size(); }

    // ------------------------------------------- checkpointing -------
    /**
     * Serialize the source and the generated count. Only an empty
     * replay window is saved (a quiescent core's). Throws SerialError
     * if the underlying InstSource is not checkpointable.
     */
    void
    saveState(SerialWriter &w) const
    {
        LSQ_ASSERT(window_.empty(),
                   "checkpointing a non-empty replay window");
        std::uint32_t kind = source_->checkpointKind();
        if (kind == 0)
            throw SerialError(
                "instruction source is not checkpointable");
        w.u32(kind);
        source_->saveState(w);
        w.u64(generated_);
    }

    /** Restore state written by saveState into an empty window. */
    void
    loadState(SerialReader &r)
    {
        LSQ_ASSERT(window_.empty(),
                   "restoring into a non-empty replay window");
        std::uint32_t kind = r.u32();
        if (kind != source_->checkpointKind() || kind == 0)
            throw SerialError(
                "checkpoint instruction-source kind mismatch");
        source_->loadState(r);
        generated_ = r.u64();
    }

  private:
    SeqNum
    frontSeq() const
    {
        return window_.empty() ? nextGenSeq() : window_.front().seq;
    }

    SeqNum
    nextGenSeq() const
    {
        // The generator's next seq equals the count generated so far;
        // with an empty window that is exactly what fetch() returns.
        return generated_;
    }

    /** Initial window ring size; it doubles while warm-up fills it. */
    static constexpr std::size_t kInitialWindow = 256;

    std::unique_ptr<InstSource> source_;
    Ring<MicroOp> window_{kInitialWindow};
    std::size_t cursor_ = 0;
    SeqNum generated_ = 0;
};

} // namespace lsqscale

#endif // LSQSCALE_WORKLOAD_INST_STREAM_HH
