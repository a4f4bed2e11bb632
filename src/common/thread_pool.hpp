/**
 * @file
 * Minimal fixed-size thread pool for fan-out over independent work items
 * (batched candidate evaluation in the CAFQA warm-up phase, exhaustive
 * Clifford enumeration, SPSA's probes) and for the dense kernels'
 * slices (Lanczos matvec, statevector expectation). Workers are
 * long-lived; `parallel_for` blocks the caller until every index has
 * been processed, and a nested call from a worker runs inline.
 */
#ifndef CAFQA_COMMON_THREAD_POOL_HPP
#define CAFQA_COMMON_THREAD_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_safety.hpp"

namespace cafqa {

/** Long-lived worker pool with an indexed parallel-for primitive. */
class ThreadPool
{
  public:
    /** @param threads  worker count; 0 picks the hardware concurrency. */
    explicit ThreadPool(std::size_t threads = 0);

    /**
     * Joins the workers. Must not run while a `parallel_for` is in
     * flight on another thread — asserted: shutdown never drops a task
     * silently, a pool with unfinished work aborts loudly instead.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of workers. */
    std::size_t size() const { return workers_.size(); }

    /**
     * Run `fn(worker, index)` for every index in [0, count), distributing
     * indices dynamically across the pool. `worker` is a stable id in
     * [0, size()) so callers can keep per-worker scratch state (e.g. one
     * backend clone per worker). Blocks until all indices are done; the
     * first exception thrown by any invocation is rethrown here.
     *
     * Safe to call from several threads at once — concurrent jobs are
     * serialized, one at a time (the arms of a portfolio search share
     * their pipeline's pool this way). A call from one
     * of this pool's own workers (a job that reaches a pooled kernel)
     * runs every index inline on that worker, passing its own worker
     * id, and lets any exception propagate.
     */
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t worker,
                                               std::size_t index)>& fn)
        CAFQA_EXCLUDES(pool_mutex_);

  private:
    void worker_loop(std::size_t worker) CAFQA_EXCLUDES(pool_mutex_);

    std::vector<std::thread> workers_;
    /** Serializes concurrent parallel_for callers (held for the whole
     *  job, and ordered strictly before `pool_mutex_`). */
    Mutex caller_mutex_{"caller_mutex"};
    Mutex pool_mutex_{"pool_mutex"};
    CondVar work_ready_;
    CondVar work_done_;

    // Current job state. The job pointer AND its pointee (the caller's
    // `fn`, alive until `work_done_` fires) are only touched under the
    // lock: workers take a per-generation copy instead of dereferencing
    // while unlocked.
    const std::function<void(std::size_t, std::size_t)>* job_
        CAFQA_GUARDED_BY(pool_mutex_) CAFQA_PT_GUARDED_BY(pool_mutex_) =
            nullptr;
    std::size_t job_count_ CAFQA_GUARDED_BY(pool_mutex_) = 0;
    std::size_t next_index_ CAFQA_GUARDED_BY(pool_mutex_) = 0;
    std::size_t active_workers_ CAFQA_GUARDED_BY(pool_mutex_) = 0;
    std::uint64_t generation_ CAFQA_GUARDED_BY(pool_mutex_) = 0;
    std::exception_ptr first_error_ CAFQA_GUARDED_BY(pool_mutex_);
    bool stopping_ CAFQA_GUARDED_BY(pool_mutex_) = false;
};

} // namespace cafqa

#endif // CAFQA_COMMON_THREAD_POOL_HPP
