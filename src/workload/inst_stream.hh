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

#include <deque>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "workload/inst_source.hh"
#include "workload/trace_generator.hh"

namespace lsqscale {

/** Serialize one MicroOp (fixed-width, checkpoint format). */
inline void
serializeMicroOp(SerialWriter &w, const MicroOp &op)
{
    w.u64(op.seq);
    w.u64(op.pc);
    w.u8(static_cast<std::uint8_t>(op.op));
    w.u8(op.src1);
    w.u8(op.src2);
    w.u8(op.dest);
    w.u64(op.addr);
    w.u8(op.size);
    w.b(op.taken);
    w.u64(op.target);
}

/** Inverse of serializeMicroOp. */
inline MicroOp
deserializeMicroOp(SerialReader &r)
{
    MicroOp op;
    op.seq = r.u64();
    op.pc = r.u64();
    std::uint8_t cls = r.u8();
    if (cls >= kNumOpClasses)
        throw SerialError("MicroOp op class out of range");
    op.op = static_cast<OpClass>(cls);
    op.src1 = r.u8();
    op.src2 = r.u8();
    op.dest = r.u8();
    op.addr = r.u64();
    op.size = r.u8();
    op.taken = r.b();
    op.target = r.u64();
    return op;
}

/** Fetch window over an InstSource with squash/replay support. */
class InstStream
{
  public:
    /** Convenience: drive from the synthetic generator. */
    InstStream(const BenchmarkProfile &profile, std::uint64_t seed)
        : source_(std::make_unique<TraceGenerator>(profile, seed))
    {}

    /** Drive from any InstSource (e.g. a TraceFileReader). */
    explicit InstStream(std::unique_ptr<InstSource> source)
        : source_(std::move(source))
    {
        LSQ_ASSERT(source_ != nullptr, "null instruction source");
    }

    /** Fetch the next dynamic instruction (advances the cursor). */
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
     * Serialize the source plus the replay window. Throws SerialError
     * if the underlying InstSource is not checkpointable.
     */
    void
    saveState(SerialWriter &w) const
    {
        std::uint32_t kind = source_->checkpointKind();
        if (kind == 0)
            throw SerialError(
                "instruction source is not checkpointable");
        w.u32(kind);
        source_->saveState(w);
        w.u64(generated_);
        w.u64(cursor_);
        w.u64(window_.size());
        for (const MicroOp &op : window_)
            serializeMicroOp(w, op);
    }

    /** Restore state written by saveState. */
    void
    loadState(SerialReader &r)
    {
        std::uint32_t kind = r.u32();
        if (kind != source_->checkpointKind() || kind == 0)
            throw SerialError(
                "checkpoint instruction-source kind mismatch");
        source_->loadState(r);
        generated_ = r.u64();
        std::uint64_t cursor = r.u64();
        std::uint64_t n = r.u64();
        window_.clear();
        for (std::uint64_t i = 0; i < n; ++i)
            window_.push_back(deserializeMicroOp(r));
        if (cursor > window_.size())
            throw SerialError("instruction window cursor out of range");
        cursor_ = static_cast<std::size_t>(cursor);
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

    std::unique_ptr<InstSource> source_;
    std::deque<MicroOp> window_;
    std::size_t cursor_ = 0;
    SeqNum generated_ = 0;
};

} // namespace lsqscale

#endif // LSQSCALE_WORKLOAD_INST_STREAM_HH
