/**
 * @file
 * Abstract instruction source.
 *
 * The pipeline consumes MicroOps from an InstSource through the
 * replayable InstStream window. There are two implementations: the
 * synthetic TraceGenerator that every benchmark run uses, and the
 * litmus engine's LitmusSource (mcm/litmus.cc), which feeds one
 * thread's fixed test program and is not checkpointable.
 */

#ifndef LSQSCALE_WORKLOAD_INST_SOURCE_HH
#define LSQSCALE_WORKLOAD_INST_SOURCE_HH

#include "common/serialize.hh"
#include "workload/micro_op.hh"

namespace lsqscale {

/** Produces the committed-path dynamic instruction stream. */
class InstSource
{
  public:
    virtual ~InstSource() = default;

    /**
     * The next dynamic instruction. Sequence numbers must be dense,
     * starting at 0. Called exactly once per instruction — replay
     * after squashes is handled by the InstStream window above.
     */
    virtual MicroOp next() = 0;

    // ------------------------------------------- checkpointing -------
    /**
     * Four-character tag identifying this source's serialized state
     * format in a checkpoint, or 0 if the source cannot be
     * checkpointed (docs/SAMPLING.md). A loaded checkpoint must have
     * been saved from a source with the same tag.
     */
    virtual std::uint32_t checkpointKind() const { return 0; }

    /**
     * Serialize the full mutable state so a fresh instance constructed
     * with the same parameters resumes the identical stream.
     */
    virtual void
    saveState(SerialWriter & /* w */) const
    {
        throw SerialError("instruction source is not checkpointable");
    }

    /** Restore state written by saveState. */
    virtual void
    loadState(SerialReader & /* r */)
    {
        throw SerialError("instruction source is not checkpointable");
    }
};

} // namespace lsqscale

#endif // LSQSCALE_WORKLOAD_INST_SOURCE_HH
