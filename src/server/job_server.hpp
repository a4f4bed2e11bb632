/**
 * @file
 * The CAFQA job server — the north-star serving daemon. One process
 * owns a listening socket (TCP loopback or Unix-domain), a bounded
 * client-fair job queue, a pool of worker threads executing `RunSpec`s
 * through `execute_run_spec`, and ONE process-wide evaluation cache
 * that every job shares (config-hash-salted keys, so distinct problems
 * never alias while repeated problems hit each other's entries).
 *
 *   ServerOptions options;
 *   options.unix_path = "/tmp/cafqa.sock";   // or options.port = 0 (TCP)
 *   JobServer server(options);
 *   server.start();
 *   ...
 *   server.shutdown(true);                    // drain; e.g. SIGTERM hook
 *   server.wait();                            // joins everything
 *
 * Lifecycle contract:
 *  - `submit` past capacity is rejected with a reason, never queued.
 *  - `cancel` raises the job's cooperative token: a queued job yields a
 *    cancelled record without running; an in-flight job stops at its
 *    next recorded evaluation and its record keeps the best-so-far.
 *  - `shutdown drain` stops admission, finishes every queued and
 *    in-flight job, streams all remaining records, then says bye.
 *  - `shutdown now` additionally cancels everything: queued jobs flush
 *    cancelled records immediately, in-flight jobs stop cooperatively.
 *  - Records for uncancelled jobs are byte-identical to a solo
 *    `execute_run_spec` of the same spec, except `wall_ms` (wall time
 *    is not deterministic).
 *
 * Wire protocol: `server/protocol.hpp`. Queue semantics:
 * `server/job_queue.hpp`.
 */
#ifndef CAFQA_SERVER_JOB_SERVER_HPP
#define CAFQA_SERVER_JOB_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.hpp"
#include "core/caching_backend.hpp"
#include "server/job_queue.hpp"
#include "server/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace cafqa::server {

/** Daemon configuration. */
struct ServerOptions
{
    /** Non-empty: listen on this Unix-domain socket path (the path is
     *  removed again on shutdown). A pre-existing path is only
     *  unlinked when it is a *stale* socket — a non-socket file or a
     *  socket another live server answers on makes `start()` throw
     *  instead of silently hijacking it. */
    std::string unix_path;
    /** TCP listen address when `unix_path` is empty. Port 0 binds an
     *  ephemeral port; read it back with `JobServer::port()`. */
    std::string host = "127.0.0.1";
    int port = 0;
    /** Concurrent job executors. */
    std::size_t workers = 2;
    /** Admission bound: queued (not yet started) jobs. */
    std::size_t queue_capacity = 1024;
    /** Protocol line bound; longer request lines drop the connection. */
    std::size_t max_line_bytes = kDefaultMaxLineBytes;
    /** Threads per run for specs that leave `threads` at 0 (same
     *  rationale as `BatchOptions::run_threads`: the workers already
     *  fan jobs out side by side). */
    std::size_t run_threads = 1;
    /** Per-write send timeout. A client that stops reading (full
     *  socket buffer) for longer than this is dropped so a worker
     *  blocked in its `respond` cannot stall job processing for other
     *  clients or wedge drain shutdown. 0 disables the bound (writes
     *  may then block indefinitely on a stalled peer). */
    std::size_t send_timeout_ms = 10'000;
    /** Process-wide shared evaluation cache. `enabled` here means
     *  "give the server one cross-job cache"; capacity/shards bound its
     *  residency. Disabled, each job falls back to whatever its own
     *  spec asked for. */
    CacheOptions cache{.enabled = true};
};

class JobServer
{
  public:
    /** Validates options; does not touch the network yet. */
    explicit JobServer(ServerOptions options);
    /** Implies `shutdown(false)` + `wait()` when still running. */
    ~JobServer();

    JobServer(const JobServer&) = delete;
    JobServer& operator=(const JobServer&) = delete;

    /** Bind, listen and spawn the accept + worker threads. Throws
     *  std::runtime_error on socket failures. */
    void start();

    /** Resolved TCP port (after `start`; 0 for a Unix-domain server). */
    int port() const { return port_; }
    const std::string& unix_path() const { return options_.unix_path; }

    /**
     * Initiate shutdown; non-blocking and callable from any thread,
     * including connection readers (the `shutdown` protocol op) —
     * teardown that must join threads happens in `wait()`. Idempotent;
     * the first call wins.
     */
    void shutdown(bool drain);

    /** Block until shutdown is initiated, then tear everything down:
     *  join workers (draining the queue per the shutdown mode), say bye
     *  on every connection, join readers, close sockets. */
    void wait();

    /** Snapshot of the server counters (stats verb / tests). */
    ServerCounters counters() const;

    /** The process-wide cache (null when `options.cache.enabled` is
     *  false). */
    const std::shared_ptr<EvaluationCache>& cache() const { return cache_; }

  private:
    struct Connection
    {
        int fd = -1;
        std::uint64_t id = 0;
        Mutex write_mutex{"write_mutex"};
        std::atomic<bool> open{true};

        ~Connection();

        /** Write `line` + '\n' whole; a failed or timed-out write
         *  (stalled peer past `ServerOptions::send_timeout_ms`) marks
         *  the connection closed — later sends discard silently and
         *  the reader is kicked loose so the connection reaps. */
        void send(const std::string& line) CAFQA_EXCLUDES(write_mutex);

        /** `send` body for a caller already holding `write_mutex`
         *  (used to order `accepted` ahead of the worker's
         *  `started`). */
        void send_locked(const std::string& line)
            CAFQA_REQUIRES(write_mutex);
    };

    void accept_loop();
    void reader_loop(std::shared_ptr<Connection> connection);
    void worker_loop();

    void handle_line(const std::shared_ptr<Connection>& connection,
                     const std::string& line);
    void handle_submit(const std::shared_ptr<Connection>& connection,
                       Request request);
    /** Execute (or flush as cancelled) one job and emit its result. */
    void process_job(Job& job);
    /** Emit the ok==false, cancelled==true record of a job that never
     *  ran. */
    void flush_cancelled(Job& job);

    void unregister_job(const std::string& id);

    /**
     * Registry references, fetched once in the constructor — before any
     * named lock can possibly be held — so every hot-path record below
     * is a lock-free atomic bump (safe under `write_mutex`,
     * `jobs_mutex`, anywhere).
     */
    struct Telemetry
    {
        /** `cafqa_server_requests_total{verb=...}` */
        telemetry::Counter& submit_requests;
        telemetry::Counter& cancel_requests;
        telemetry::Counter& stats_requests;
        telemetry::Counter& metrics_requests;
        telemetry::Counter& shutdown_requests;
        /** Lines that failed to parse as any request. */
        telemetry::Counter& bad_requests;
        /** `cafqa_server_rejects_total{reason=...}` — one series per
         *  admission-reject reason. */
        telemetry::Counter& reject_bad_spec;
        telemetry::Counter& reject_duplicate;
        telemetry::Counter& reject_queue_full;
        telemetry::Counter& reject_draining;
        telemetry::Counter& jobs_completed;
        telemetry::Counter& jobs_cancelled;
        telemetry::Gauge& busy_workers;
        /** Submit-to-result milliseconds for jobs that ran. */
        telemetry::Histogram& job_latency_ms;
    };
    static Telemetry make_telemetry();

    /** Register/clear the scrape-time callback gauges (queue depth,
     *  cache residency). Their lock acquisitions under `metrics_mutex`
     *  are the declared `metrics_mutex -> ...` manifest edges. */
    void register_callback_gauges();
    void clear_callback_gauges();

    /** Join reader threads whose loops have finished (their ids sit in
     *  `finished_readers_`), so short-lived connections don't leak
     *  joinable handles for the daemon's lifetime. */
    void reap_finished_readers();

    ServerOptions options_;
    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    int port_ = 0;
    bool started_ = false;

    JobQueue queue_;
    std::shared_ptr<EvaluationCache> cache_;
    Telemetry metrics_;

    std::thread accept_thread_;
    std::vector<std::thread> workers_;

    Mutex connections_mutex_{"connections_mutex"};
    /** The MAP is guarded; the pointed-to `Connection`s deliberately
     *  carry no `CAFQA_PT_GUARDED_BY` — each one is internally
     *  synchronized (its own `write_mutex` + atomic `open`) and is
     *  used by workers long after `connections_mutex_` is dropped. */
    std::unordered_map<std::uint64_t, std::shared_ptr<Connection>>
        connections_ CAFQA_GUARDED_BY(connections_mutex_);
    /** Live reader threads by connection id; a reader announces its
     *  exit in `finished_readers_` and is joined opportunistically by
     *  the accept loop (finally by `wait()`). */
    std::unordered_map<std::uint64_t, std::thread> readers_
        CAFQA_GUARDED_BY(connections_mutex_);
    std::vector<std::uint64_t> finished_readers_
        CAFQA_GUARDED_BY(connections_mutex_);
    std::uint64_t next_connection_id_
        CAFQA_GUARDED_BY(connections_mutex_) = 1;

    /** Active (queued or in-flight) job id -> cancel token. The MAP is
     *  guarded; the tokens are atomics flipped/read lock-free by
     *  cancel, workers, and stopping criteria, so no
     *  `CAFQA_PT_GUARDED_BY` applies. */
    Mutex jobs_mutex_{"jobs_mutex"};
    std::unordered_map<std::string,
                       std::shared_ptr<std::atomic<bool>>>
        jobs_ CAFQA_GUARDED_BY(jobs_mutex_);
    std::atomic<std::uint64_t> next_job_id_{1};

    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> cancelled_{0};
    std::atomic<std::uint64_t> rejected_{0};
    /** Workers currently inside `process_job` (stats verb occupancy). */
    std::atomic<std::uint64_t> busy_{0};

    Mutex shutdown_mutex_{"shutdown_mutex"};
    CondVar shutdown_cv_;
    std::atomic<bool> shutdown_requested_{false};
    bool drain_ CAFQA_GUARDED_BY(shutdown_mutex_) = true;
    /** Serializes teardown so concurrent `wait` calls are safe. */
    Mutex teardown_mutex_{"teardown_mutex"};
    bool finished_ CAFQA_GUARDED_BY(teardown_mutex_) = false;
};

} // namespace cafqa::server

#endif // CAFQA_SERVER_JOB_SERVER_HPP
