/**
 * @file
 * Bounded, client-fair job queue between the server's I/O thread and
 * its worker pool.
 *
 * Admission control: capacity is a hard bound — a push over it returns
 * `Admit::QueueFull` (the caller replies "rejected" with the reason)
 * instead of growing without limit, and a queue that has been closed
 * for draining returns `Admit::Draining`.
 *
 * Fairness: one deque per client plus a round-robin rotation over the
 * clients with pending work, so a client that dumps a thousand specs
 * cannot starve one that submits a single job — with A holding a1,a2,a3
 * and B holding b1,b2 the pop order is a1, b1, a2, b2, a3. Per-client
 * order is FIFO.
 *
 * Socket-free and worker-agnostic: unit tests drive push/pop directly.
 */
#ifndef CAFQA_SERVER_JOB_QUEUE_HPP
#define CAFQA_SERVER_JOB_QUEUE_HPP

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.hpp"
#include "core/run_spec.hpp"
#include "telemetry/metrics.hpp"

namespace cafqa::server {

/** One queued unit of work. */
struct Job
{
    /** Fairness key — one rotation slot per distinct client. */
    std::string client;
    /** Server-unique job id (echoed in every event about this job). */
    std::string id;
    RunSpec spec;
    /** Raised to cancel (shared with the server's cancel index; checked
     *  both while queued and inside the run's stopping criteria). */
    std::shared_ptr<std::atomic<bool>> cancel;
    /** Delivers one response line to the submitting connection (safe to
     *  call after the connection dropped — it just discards). */
    std::function<void(const std::string& line)> respond;
    /** Admission time, stamped by `JobQueue::push` (queue-wait and
     *  end-to-end latency attribution). */
    std::chrono::steady_clock::time_point submitted{};
};

/** Admission verdict. */
enum class Admit {
    Accepted,
    /** The capacity bound is reached; the job was NOT queued. */
    QueueFull,
    /** The queue is closed (server draining); the job was NOT queued. */
    Draining,
};

const char* to_string(Admit admit);

class JobQueue
{
  public:
    /** Throws std::invalid_argument on zero capacity. */
    explicit JobQueue(std::size_t capacity);
    /** Takes the jobs still queued off `cafqa_server_queue_depth`. */
    ~JobQueue();

    /** Admit `job` under the capacity bound. Never blocks. */
    Admit push(Job job);

    /** Next job in client-fair order; blocks while empty. Returns
     *  nullopt once the queue is closed AND drained — the workers'
     *  exit signal. */
    std::optional<Job> pop();

    /** Close admission: pushes fail with `Draining`, pops drain what is
     *  queued, then report exhaustion. Idempotent. */
    void close();

    /** Remove and return every queued job at once (immediate-shutdown
     *  path: the caller flushes cancelled records for them). */
    std::vector<Job> drain_now();

    bool closed() const;
    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }

  private:
    /** The next client slot with work (from the cursor); npos when
     *  idle. */
    std::size_t next_slot_locked() CAFQA_REQUIRES(queue_mutex_);

    /** Move the cursor past `slot` after serving it, retiring the
     *  client when its FIFO is exhausted. */
    void advance_cursor_locked(std::size_t slot, bool exhausted)
        CAFQA_REQUIRES(queue_mutex_);

    /** Pop the fair-order head (pre: at least one job queued). */
    Job pop_locked() CAFQA_REQUIRES(queue_mutex_);

    std::size_t capacity_;
    /** Registry references fetched once at construction (no lock held
     *  there); the hot-path add/observe calls are lock-free, so queue
     *  operations take no lock beyond `queue_mutex_`. */
    telemetry::Counter& pushed_metric_;
    telemetry::Counter& popped_metric_;
    /** `cafqa_server_queue_depth`: +1 per admitted push, -1 per
     *  `pop_locked`, minus what is left when the queue dies, so the
     *  process-wide gauge sums the depths of the live queues. */
    telemetry::Gauge& depth_metric_;
    telemetry::Histogram& queue_wait_metric_;
    mutable Mutex queue_mutex_{"queue_mutex"};
    CondVar ready_;
    /** Per-client FIFOs ("shards" of the fair schedule). */
    std::unordered_map<std::string, std::deque<Job>> clients_
        CAFQA_GUARDED_BY(queue_mutex_);
    /** Round-robin rotation: client keys in first-seen order. */
    std::vector<std::string> rotation_ CAFQA_GUARDED_BY(queue_mutex_);
    std::size_t cursor_ CAFQA_GUARDED_BY(queue_mutex_) = 0;
    std::size_t size_ CAFQA_GUARDED_BY(queue_mutex_) = 0;
    bool closed_ CAFQA_GUARDED_BY(queue_mutex_) = false;
};

} // namespace cafqa::server

#endif // CAFQA_SERVER_JOB_QUEUE_HPP
