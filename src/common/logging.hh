/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - an internal invariant was violated (simulator bug);
 *            aborts so the failure is loud in tests.
 * fatal()  - the user asked for something unsatisfiable (bad config);
 *            exits with an error code.
 * warn()   - something is modeled approximately; simulation continues.
 */

#ifndef LSQSCALE_COMMON_LOGGING_HH
#define LSQSCALE_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace lsqscale {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);

/**
 * Mutex-guarded whole-line writer.
 *
 * Writes @p msg (a trailing newline is appended if missing) to
 * @p stream as one atomic unit: concurrent harness workers calling
 * logLine() never interleave partial lines. warn()/panic()/fatal()
 * route through the same mutex, so diagnostics stay whole under the
 * parallel sweep engine too. All harness/experiment progress output
 * must go through this instead of raw fprintf.
 */
void logLine(std::FILE *stream, const std::string &msg);

/**
 * Cold, out-of-line assertion-failure sink. Keeping the string
 * concatenation and the panic plumbing out of the macro expansion
 * means an LSQ_ASSERT in a hot loop costs exactly one predicted
 * branch; the failure path (formatting, abort) is never inlined at
 * the call site.
 */
[[noreturn]] __attribute__((cold, noinline)) void
assertFailImpl(const char *file, int line, const char *condition,
               const std::string &msg);

/**
 * Fork-safety bracket for the logging mutex (docs/ROBUSTNESS.md).
 *
 * The process-isolated sweep engine forks from worker threads; if
 * another worker holds the log mutex at that instant, the child
 * inherits it locked and deadlocks on its first diagnostic. The
 * forking code takes the mutex before fork() and releases it on BOTH
 * sides afterwards, so each side starts with a consistent, unlocked
 * logger.
 */
void lockLogForFork();
void unlockLogForFork();

/** Format helper: tiny printf-style wrapper returning std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace lsqscale

#define LSQ_PANIC(...) \
    ::lsqscale::panicImpl(__FILE__, __LINE__, ::lsqscale::strfmt(__VA_ARGS__))

#define LSQ_FATAL(...) \
    ::lsqscale::fatalImpl(__FILE__, __LINE__, ::lsqscale::strfmt(__VA_ARGS__))

#define LSQ_WARN(...) \
    ::lsqscale::warnImpl(__FILE__, __LINE__, ::lsqscale::strfmt(__VA_ARGS__))

/**
 * Invariant check that survives NDEBUG builds.
 *
 * The success path is a single `if` with the failure branch marked
 * unlikely; message formatting and the string concatenation happen in
 * the cold out-of-line assertFailImpl(), so the arguments are never
 * evaluated (and no formatting code is emitted inline) unless the
 * condition actually fails.
 */
#define LSQ_ASSERT(cond, ...)                                             \
    do {                                                                  \
        if (__builtin_expect(!(cond), 0)) [[unlikely]] {                  \
            ::lsqscale::assertFailImpl(__FILE__, __LINE__, #cond,         \
                ::lsqscale::strfmt(__VA_ARGS__));                         \
        }                                                                 \
    } while (0)

/**
 * Debug-only invariant check for per-operation hot paths.
 *
 * In release builds (NDEBUG) it compiles to nothing: the condition and
 * the message arguments sit in an unevaluated sizeof, so they are
 * still type-checked but generate zero code. Sanitizer/debug builds
 * (see CMakePresets.json) define LSQSCALE_ENABLE_DCHECK and get the
 * full LSQ_ASSERT behavior.
 */
#if defined(LSQSCALE_ENABLE_DCHECK) || !defined(NDEBUG)
#define LSQ_DCHECK(cond, ...) LSQ_ASSERT(cond, __VA_ARGS__)
#else
#define LSQ_DCHECK(cond, ...)                                             \
    do {                                                                  \
        (void)sizeof(!(cond));                                            \
    } while (0)
#endif

namespace lsqscale {
/** True in the builds where LSQ_DCHECK checks: gates whole-structure
 *  invariant sweeps that are too costly for release builds. */
#if defined(LSQSCALE_ENABLE_DCHECK) || !defined(NDEBUG)
inline constexpr bool kDchecksEnabled = true;
#else
inline constexpr bool kDchecksEnabled = false;
#endif
} // namespace lsqscale

#endif // LSQSCALE_COMMON_LOGGING_HH
