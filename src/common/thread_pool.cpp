#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace cafqa {

namespace {

/** Registry references, fetched lazily on the first `parallel_for` —
 *  before any pool lock is taken in that call, per the telemetry
 *  registration rule. */
struct PoolTelemetry
{
    telemetry::Counter& tasks;
    telemetry::Histogram& dispatch_wait_ms;

    static PoolTelemetry&
    get()
    {
        static PoolTelemetry instance{
            telemetry::MetricsRegistry::instance().counter(
                "cafqa_pool_tasks_total", {},
                "Tasks executed by parallel_for (inline or pooled)"),
            telemetry::MetricsRegistry::instance().histogram(
                "cafqa_pool_dispatch_wait_ms", {},
                "Milliseconds a parallel_for call waited to own the "
                "pool (contention with concurrent callers)"),
        };
        return instance;
    }
};

/** The pool and worker id of the calling thread, when it is a pool
 *  worker: a nested `parallel_for` on that pool runs inline. */
struct CurrentWorker
{
    const ThreadPool* pool = nullptr;
    std::size_t worker = 0;
};

thread_local CurrentWorker current_worker;

} // namespace

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0) {
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
        workers_.emplace_back([this, w] { worker_loop(w); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(pool_mutex_);
        // Shutdown audit: a pool may only be destroyed between jobs.
        // `parallel_for` is synchronous, so in correct usage `job_` is
        // always null here; if a caller races destruction against a
        // running job, abort loudly instead of silently dropping the
        // indices in [next_index_, job_count_).
        CAFQA_ASSERT(job_ == nullptr,
                     "ThreadPool destroyed while a parallel_for is in "
                     "flight (tasks would be dropped)");
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void
ThreadPool::worker_loop(std::size_t worker)
{
    current_worker = {this, worker};
    std::uint64_t seen_generation = 0;
    for (;;) {
        MutexLock lock(pool_mutex_);
        while (!stopping_ &&
               (job_ == nullptr || generation_ == seen_generation)) {
            work_ready_.wait(lock);
        }
        if (stopping_) {
            // Shutdown audit, worker side: the stop flag is only set
            // with no job posted (see the destructor), so a worker can
            // never exit while unclaimed indices remain.
            CAFQA_ASSERT(job_ == nullptr || next_index_ >= job_count_,
                         "ThreadPool worker stopping with tasks pending");
            return;
        }
        seen_generation = generation_;
        // Per-generation copy taken under the lock: the pointee is
        // `CAFQA_PT_GUARDED_BY(pool_mutex_)`, so invocations run on the
        // copy instead of dereferencing `job_` while unlocked.
        const std::function<void(std::size_t, std::size_t)> job = *job_;
        ++active_workers_;
        while (next_index_ < job_count_ && !first_error_) {
            const std::size_t index = next_index_++;
            lock.unlock();
            try {
                job(worker, index);
            } catch (...) {
                lock.lock();
                if (!first_error_) {
                    first_error_ = std::current_exception();
                }
                break;
            }
            lock.lock();
        }
        --active_workers_;
        if (active_workers_ == 0) {
            work_done_.notify_all();
        }
    }
}

void
ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t worker, std::size_t index)>& fn)
{
    if (count == 0) {
        return;
    }
    PoolTelemetry& pool_metrics = PoolTelemetry::get();
    // A nested call from one of this pool's workers, a single worker or
    // a single item: run inline, no synchronization.
    if (current_worker.pool == this || workers_.size() == 1 || count == 1) {
        const std::size_t worker =
            current_worker.pool == this ? current_worker.worker : 0;
        for (std::size_t i = 0; i < count; ++i) {
            fn(worker, i);
        }
        pool_metrics.tasks.add(count);
        return;
    }
    const auto enter = std::chrono::steady_clock::now();
    MutexLock caller_lock(caller_mutex_);
    MutexLock lock(pool_mutex_);
    pool_metrics.dispatch_wait_ms.observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - enter)
            .count());
    pool_metrics.tasks.add(count);
    CAFQA_ASSERT(job_ == nullptr, "parallel_for re-entered from a job");
    job_ = &fn;
    job_count_ = count;
    next_index_ = 0;
    first_error_ = nullptr;
    ++generation_;
    work_ready_.notify_all();
    while (!(active_workers_ == 0 &&
             (next_index_ >= job_count_ || first_error_))) {
        // lint:allow(blocking-under-lock) caller_mutex_ exists to park
        // concurrent parallel_for callers across exactly this wait;
        // workers only ever take pool_mutex_, so holding caller_mutex_
        // here cannot stall them.
        work_done_.wait(lock);
    }
    job_ = nullptr;
    if (first_error_) {
        std::exception_ptr error = first_error_;
        first_error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

} // namespace cafqa
