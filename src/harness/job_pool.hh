/**
 * @file
 * Fixed-size thread pool for independent simulation jobs.
 *
 * This is the only place in the repository allowed to construct
 * threads (enforced by tools/lsqlint, rule raw-thread): everything
 * that wants concurrency goes through JobPool so there is exactly one
 * queue, one shutdown protocol, and one set of invariants to audit.
 *
 * The pool is a plain shared-queue design rather than per-worker
 * work-stealing deques: sweep jobs are whole simulations (milliseconds
 * to minutes each), so queue contention is unmeasurable and the
 * simpler structure is much easier to reason about under TSan.
 */

#ifndef LSQSCALE_HARNESS_JOB_POOL_HH
#define LSQSCALE_HARNESS_JOB_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lsqscale {

/**
 * A fixed set of worker threads draining a shared FIFO job queue.
 *
 * Jobs are void() callables and MUST NOT throw: the harness layers
 * above (Sweep) catch and classify failures per cell; an exception
 * reaching the pool is a harness bug and panics. Destruction joins all
 * workers after the queue drains.
 */
class JobPool
{
  public:
    /** Spawn @p threads workers (clamped to at least 1). */
    explicit JobPool(unsigned threads);

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /** Drains remaining jobs, then joins every worker. */
    ~JobPool();

    /** Enqueue a job. Safe from any thread, including workers. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable workCv_;  ///< signals queued work / stop
    std::condition_variable doneCv_;  ///< signals full drain for wait()
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_; // lsqlint: allow(raw-thread)
    std::size_t running_ = 0;          ///< jobs currently executing
    bool stopping_ = false;
};

} // namespace lsqscale

#endif // LSQSCALE_HARNESS_JOB_POOL_HH
