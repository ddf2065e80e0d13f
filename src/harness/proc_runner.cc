#include "harness/proc_runner.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <mutex>

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "inject/inject.hh"

namespace lsqscale {

namespace {

/** Result-pipe payload markers. */
constexpr std::uint8_t kPayloadOk = 'R';
constexpr std::uint8_t kPayloadErr = 'E';

/** Child exit codes with fixed meaning (anything else is the job's). */
constexpr int kExitThrew = 3;     ///< job threw; 'E' payload shipped
constexpr int kExitPipeBroke = 97; ///< could not ship the payload

/** How much of the child's stderr the parent keeps. */
constexpr std::size_t kStderrTailMax = 2048;

/** write() everything, retrying on EINTR; false on any other error. */
bool
writeAll(int fd, const char *data, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/**
 * The child side: run the job, frame the outcome (u64 length + u32
 * CRC + marker byte + body), ship it, and leave via std::_Exit so no
 * parent-owned atexit hook or static destructor runs twice.
 */
[[noreturn]] void
childMain(int resultFd, int stderrFd, int hbFd,
          const std::function<SimResult()> &body,
          std::uint64_t heartbeatCycles)
{
    // Diagnostics (LSQ_ASSERT provenance, checker panics, WARNs) go to
    // the capture pipe so the parent can attach a stderr tail to the
    // poisoned cell instead of interleaving it with other workers.
    while (::dup2(stderrFd, 2) < 0) {
        if (errno != EINTR)
            std::_Exit(kExitPipeBroke);
    }
    inject::armHeartbeat(hbFd, heartbeatCycles);

    SerialWriter payload;
    int exitCode = 0;
    try {
        SimResult res = body();
        payload.u8(kPayloadOk);
        res.saveState(payload);
    } catch (const std::exception &e) {
        payload = SerialWriter();
        payload.u8(kPayloadErr);
        payload.str(e.what());
        exitCode = kExitThrew;
    } catch (...) {
        payload = SerialWriter();
        payload.u8(kPayloadErr);
        payload.str("unknown exception");
        exitCode = kExitThrew;
    }

    SerialWriter frame;
    frame.u64(payload.size());
    frame.u32(crc32(payload.buffer().data(), payload.size()));
    bool shipped =
        writeAll(resultFd, frame.buffer().data(), frame.size()) &&
        writeAll(resultFd, payload.buffer().data(), payload.size());
    std::_Exit(shipped ? exitCode : kExitPipeBroke);
}

/** A pipe pair that closes whatever is still open on destruction. */
struct Pipe
{
    int r = -1;
    int w = -1;

    bool
    open()
    {
        int fds[2];
        if (::pipe(fds) != 0)
            return false;
        r = fds[0];
        w = fds[1];
        return true;
    }

    void
    closeEnd(int &fd)
    {
        if (fd >= 0 && ::close(fd) != 0 && errno != EINTR)
            LSQ_WARN("close() failed: %s", std::strerror(errno));
        fd = -1;
    }

    ~Pipe()
    {
        closeEnd(r);
        closeEnd(w);
    }
};

/** Parse a framed result-pipe payload into @p out; false if torn. */
bool
parsePayload(const std::string &raw, SimResult &result,
             std::string &jobError, bool &jobThrew)
{
    try {
        SerialReader r(raw);
        std::uint64_t len = r.u64();
        std::uint32_t crc = r.u32();
        if (len != r.remaining())
            return false; // child died mid-write
        if (crc32(raw.data() + (raw.size() - len), len) != crc)
            return false;
        std::uint8_t marker = r.u8();
        if (marker == kPayloadOk) {
            result.loadState(r);
            r.expectEnd("cell result");
            jobThrew = false;
            return true;
        }
        if (marker == kPayloadErr) {
            jobError = r.str();
            r.expectEnd("cell error");
            jobThrew = true;
            return true;
        }
        return false;
    } catch (const SerialError &) {
        return false;
    }
}

} // namespace

ProcOutcome
runCellInProcess(const std::function<SimResult()> &body,
                 const ProcOptions &opts)
{
    ProcOutcome out;

    Pipe result, errp, hb;
    pid_t pid;
    {
        // pipe() through the parent-side close of the write ends must
        // be atomic with respect to every other worker's fork: a child
        // forked in between would inherit this cell's write ends,
        // keeping them open until that unrelated child exits — the
        // parent never sees EOF, the watchdog kills a zombie, and a
        // healthy cell is misclassified as TimedOut.
        static std::mutex forkMutex;
        std::lock_guard<std::mutex> forkLock(forkMutex);

        if (!result.open() || !errp.open() || !hb.open()) {
            out.status = ProcStatus::Failed;
            out.error = strfmt("pipe() failed: %s",
                               std::strerror(errno));
            return out;
        }

        // Fork under the logging lock: another worker thread may hold
        // it mid-logLine, and the child would inherit it locked
        // forever.
        lockLogForFork();
        pid = ::fork();
        if (pid == 0) {
            unlockLogForFork();
            result.closeEnd(result.r);
            errp.closeEnd(errp.r);
            hb.closeEnd(hb.r);
            childMain(result.w, errp.w, hb.w, body,
                      opts.heartbeatCycles);
        }
        unlockLogForFork();
        if (pid < 0) {
            out.status = ProcStatus::Failed;
            out.error = strfmt("fork() failed: %s",
                               std::strerror(errno));
            return out;
        }
        result.closeEnd(result.w);
        errp.closeEnd(errp.w);
        hb.closeEnd(hb.w);
    }

    // Drain all three pipes until the child closes them (by exiting or
    // being killed). The watchdog clock restarts on every heartbeat
    // byte.
    std::string payload;
    std::string stderrBuf;
    auto lastBeat = std::chrono::steady_clock::now();
    bool killedByWatchdog = false;

    while (result.r >= 0 || errp.r >= 0 || hb.r >= 0) {
        struct pollfd fds[3];
        int *ends[3];
        nfds_t nfds = 0;
        for (int *end : {&result.r, &errp.r, &hb.r}) {
            if (*end < 0)
                continue;
            fds[nfds].fd = *end;
            fds[nfds].events = POLLIN;
            fds[nfds].revents = 0;
            ends[nfds] = end;
            ++nfds;
        }
        int ready = ::poll(fds, nfds, 50);
        if (ready < 0 && errno != EINTR) {
            LSQ_WARN("poll() failed: %s", std::strerror(errno));
            // No more draining or watchdog checks happen after this
            // break; a live child blocked on a full pipe would
            // deadlock the waitpid below, so it dies here.
            if (::kill(pid, SIGKILL) != 0 && errno != ESRCH)
                LSQ_WARN("kill() failed: %s", std::strerror(errno));
            break;
        }
        for (nfds_t i = 0; ready > 0 && i < nfds; ++i) {
            if (fds[i].revents == 0)
                continue;
            char buf[4096];
            ssize_t n = ::read(fds[i].fd, buf, sizeof(buf));
            if (n < 0 && errno == EINTR)
                continue;
            if (n > 0) {
                if (ends[i] == &result.r) {
                    payload.append(buf, static_cast<std::size_t>(n));
                } else if (ends[i] == &errp.r) {
                    stderrBuf.append(buf, static_cast<std::size_t>(n));
                    if (stderrBuf.size() > kStderrTailMax)
                        stderrBuf.erase(0, stderrBuf.size() -
                                               kStderrTailMax);
                } else {
                    lastBeat = std::chrono::steady_clock::now();
                }
            } else {
                // EOF (or error): this pipe is done.
                result.closeEnd(*ends[i]);
            }
        }

        if (!killedByWatchdog && opts.watchdog.count() > 0 &&
            std::chrono::steady_clock::now() - lastBeat >=
                opts.watchdog) {
            killedByWatchdog = true;
            if (::kill(pid, SIGKILL) != 0 && errno != ESRCH)
                LSQ_WARN("kill() failed: %s", std::strerror(errno));
        }
    }

    int wstatus = 0;
    pid_t waited;
    do {
        waited = ::waitpid(pid, &wstatus, 0);
    } while (waited < 0 && errno == EINTR);
    if (waited != pid) {
        out.status = ProcStatus::Failed;
        out.error = strfmt("waitpid() failed: %s", std::strerror(errno));
        return out;
    }

    out.stderrTail = stderrBuf;
    if (WIFSIGNALED(wstatus))
        out.termSignal = WTERMSIG(wstatus);
    else if (WIFEXITED(wstatus))
        out.exitStatus = WEXITSTATUS(wstatus);

    // A payload that survived intact is trusted even if classification
    // below decides the cell is poisoned; a torn one is ignored.
    std::string jobError;
    bool jobThrew = false;
    bool parsed = !payload.empty() &&
                  parsePayload(payload, out.result, jobError, jobThrew);

    if (parsed && !jobThrew && out.termSignal == 0 &&
        out.exitStatus == 0) {
        // An intact, CRC-valid Ok payload from a child that exited 0
        // beats a late watchdog kill: the result had already
        // shipped, so the SIGKILL hit a zombie (EOF merely arrived
        // late), not a hung job.
        out.status = ProcStatus::Ok;
    } else if (killedByWatchdog) {
        out.status = ProcStatus::TimedOut;
        out.error = strfmt("no heartbeat for %lld ms; killed as hung",
                           static_cast<long long>(opts.watchdog.count()));
    } else if (out.termSignal != 0) {
        out.status = ProcStatus::Crashed;
        out.error = strfmt("killed by signal %d (%s)", out.termSignal,
                           strsignal(out.termSignal));
    } else if (parsed && jobThrew) {
        out.status = ProcStatus::Failed;
        out.error = jobError;
    } else {
        out.status = ProcStatus::Crashed;
        out.error = strfmt("exit status %d with %s result payload",
                           out.exitStatus,
                           payload.empty() ? "no" : "a torn");
    }
    return out;
}

} // namespace lsqscale
