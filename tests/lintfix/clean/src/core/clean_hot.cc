// A pure hot function: arithmetic, a cold trace hook (whose argument
// list may allocate — it runs only when a tracer is attached), and a
// call into an equally pure helper.

#include "common/clean_base.hh"

#include <string>

namespace lsqscale {

Cycle
advance(Cycle now)
{
    return now + 1;
}

// lsqlint: hot
Cycle
cleanTick(Cycle now, std::uint64_t seq)
{
    LSQ_TRACE_HOOK(tracer_, std::to_string(seq), seq);
    return advance(now);
}

} // namespace lsqscale
