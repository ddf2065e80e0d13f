// Layer-0 header for the clean fixture's downward include.

#ifndef LINTFIX_CLEAN_BASE_HH
#define LINTFIX_CLEAN_BASE_HH

#include <cstdint>

namespace lsqscale {

using Cycle = std::uint64_t;

#define LSQ_ASSERT(cond, msg) ((void)(cond))

} // namespace lsqscale

#endif // LINTFIX_CLEAN_BASE_HH
