#include "server/job_queue.hpp"

#include "common/error.hpp"

namespace cafqa::server {

const char*
to_string(Admit admit)
{
    switch (admit) {
      case Admit::Accepted: return "accepted";
      case Admit::QueueFull: return "queue full";
      case Admit::Draining: return "server draining";
    }
    return "?";
}

JobQueue::JobQueue(std::size_t capacity)
    : capacity_(capacity),
      // Registered here, before any named lock exists in this object —
      // the registering accessors must never run under another lock.
      pushed_metric_(telemetry::MetricsRegistry::instance().counter(
          "cafqa_server_jobs_pushed_total", {},
          "Jobs admitted into the server queue")),
      popped_metric_(telemetry::MetricsRegistry::instance().counter(
          "cafqa_server_jobs_popped_total", {},
          "Jobs handed to a worker from the server queue")),
      depth_metric_(telemetry::MetricsRegistry::instance().gauge(
          "cafqa_server_queue_depth", {},
          "Jobs admitted but not yet handed to a worker")),
      queue_wait_metric_(telemetry::MetricsRegistry::instance().histogram(
          "cafqa_server_queue_wait_ms", {},
          "Milliseconds a job spent queued before a worker picked it up"))
{
    CAFQA_REQUIRE(capacity_ > 0, "job queue capacity must be positive");
}

JobQueue::~JobQueue()
{
    // No lock: nothing else may touch a queue that is being destroyed.
    depth_metric_.add(-static_cast<double>(size_));
}

Admit
JobQueue::push(Job job)
{
    job.submitted = std::chrono::steady_clock::now();
    {
        MutexLock lock(queue_mutex_);
        if (closed_) {
            return Admit::Draining;
        }
        if (size_ >= capacity_) {
            return Admit::QueueFull;
        }
        auto [it, inserted] = clients_.try_emplace(job.client);
        if (inserted) {
            rotation_.push_back(job.client);
        }
        it->second.push_back(std::move(job));
        ++size_;
        // Under the lock, so a racing pop's -1 never lands first.
        depth_metric_.add(1.0);
    }
    pushed_metric_.add();
    ready_.notify_one();
    return Admit::Accepted;
}

std::size_t
JobQueue::next_slot_locked()
{
    if (rotation_.empty()) {
        return std::string::npos;
    }
    for (std::size_t probe = 0; probe < rotation_.size(); ++probe) {
        const std::size_t slot = (cursor_ + probe) % rotation_.size();
        if (!clients_[rotation_[slot]].empty()) {
            return slot;
        }
    }
    return std::string::npos;
}

void
JobQueue::advance_cursor_locked(std::size_t slot, bool exhausted)
{
    if (exhausted) {
        // Retire the drained client so thousands of short-lived
        // connections don't accumulate dead rotation slots; the erase
        // shifts the next client INTO `slot`, which is exactly where
        // the round-robin should look next.
        clients_.erase(rotation_[slot]);
        rotation_.erase(rotation_.begin() +
                        static_cast<std::ptrdiff_t>(slot));
        cursor_ = rotation_.empty() ? 0 : slot % rotation_.size();
    } else {
        // Advance PAST the client just served so the next pop looks at
        // the following one — that is the round-robin interleave.
        cursor_ = (slot + 1) % rotation_.size();
    }
}

Job
JobQueue::pop_locked()
{
    const std::size_t slot = next_slot_locked();
    CAFQA_ASSERT(slot != std::string::npos,
                 "job queue size and rotation disagree");
    std::deque<Job>& fifo = clients_[rotation_[slot]];
    Job job = std::move(fifo.front());
    fifo.pop_front();
    --size_;
    depth_metric_.add(-1.0);
    advance_cursor_locked(slot, fifo.empty());
    return job;
}

std::optional<Job>
JobQueue::pop()
{
    std::optional<Job> job;
    {
        MutexLock lock(queue_mutex_);
        while (size_ == 0 && !closed_) {
            ready_.wait(lock);
        }
        if (size_ == 0) {
            return std::nullopt;
        }
        job = pop_locked();
    }
    popped_metric_.add();
    queue_wait_metric_.observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - job->submitted)
            .count());
    return job;
}

void
JobQueue::close()
{
    {
        MutexLock lock(queue_mutex_);
        closed_ = true;
    }
    ready_.notify_all();
}

std::vector<Job>
JobQueue::drain_now()
{
    std::vector<Job> jobs;
    MutexLock lock(queue_mutex_);
    // Fair order for the flush too, so cancelled-record order matches
    // what the workers would have run.
    while (size_ > 0) {
        jobs.push_back(pop_locked());
    }
    return jobs;
}

bool
JobQueue::closed() const
{
    MutexLock lock(queue_mutex_);
    return closed_;
}

std::size_t
JobQueue::size() const
{
    MutexLock lock(queue_mutex_);
    return size_;
}

} // namespace cafqa::server
