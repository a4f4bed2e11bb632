/**
 * @file
 * The CAFQA job server — the north-star serving daemon. One process
 * owns a listening socket (TCP loopback or Unix-domain), a bounded
 * client-fair job queue, a pool of worker threads executing `RunSpec`s
 * through `execute_run_spec`, and ONE exact-energy memo
 * (`core/exact_memo.hpp`), so each problem's exact reference is solved
 * once per process rather than once per job. The memo is the only state
 * jobs share: a job with `cache=1` gets its own run cache, exactly as
 * a solo run does.
 *
 * Threads: one I/O thread plus the workers, whatever the connection
 * count. The I/O thread polls the listen socket, a wake pipe and every
 * connection, handles requests inline, and alone calls `send`/`recv` on
 * client sockets. Workers and `shutdown` only append to a connection's
 * outbox, so a client that stops reading delays nobody but itself.
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
 *  - End of stream drops the connection: a client that closes (or
 *    half-closes) its sending side gets no further events. Its queued
 *    and running jobs still run, but their records are discarded.
 *
 * Wire protocol: `server/protocol.hpp`. Queue semantics:
 * `server/job_queue.hpp`.
 */
#ifndef CAFQA_SERVER_JOB_SERVER_HPP
#define CAFQA_SERVER_JOB_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.hpp"
#include "core/caching_backend.hpp"
#include "core/exact_memo.hpp"
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
    /** Protocol line bound; a longer line gets `error`, then a close. */
    std::size_t max_line_bytes = kDefaultMaxLineBytes;
    /** Threads per run for specs that leave `threads` at 0 (same
     *  rationale as `BatchOptions::run_threads`: the workers already
     *  fan jobs out side by side). */
    std::size_t run_threads = 1;
    /** Stall bound: a connection whose pending output has made no
     *  progress for this long (the client stopped reading) is dropped,
     *  so its unbounded backlog cannot wedge drain shutdown. 0 disables
     *  the bound (shutdown may then wait forever on a stalled peer). */
    std::size_t send_timeout_ms = 10'000;
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

    /** Bind, listen and spawn the I/O + worker threads. Throws
     *  std::runtime_error on socket failures. */
    void start();

    /** Resolved TCP port (after `start`; 0 for a Unix-domain server). */
    int port() const { return port_; }
    const std::string& unix_path() const { return options_.unix_path; }

    /**
     * Initiate shutdown; non-blocking and callable from any thread,
     * including the I/O thread (the `shutdown` protocol op). Stops
     * admission and, unless draining, cancels every job. Once the
     * workers have exited, the I/O thread says bye on every connection,
     * flushes, closes and exits. Idempotent; the first call wins.
     */
    void shutdown(bool drain);

    /** Block until shutdown is initiated, then join the workers
     *  (draining the queue per the shutdown mode) and the I/O thread
     *  (which says bye on every connection first), and close the listen
     *  socket. Safe to call from several threads. */
    void wait();

    /** Snapshot of the server counters (stats verb / tests). */
    ServerCounters counters() const;

  private:
    /** One client socket (defined in job_server.cpp). */
    struct Connection;

    void io_loop();
    /** One non-blocking read; queues its completed lines and handles
     *  them. */
    void read_from(const std::shared_ptr<Connection>& connection);
    /** Handle queued lines until the connection has unsent output. */
    void handle_lines(const std::shared_ptr<Connection>& connection);

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
        /** The process-wide `cafqa_cache_*_total` series: the `stats`
         *  verb's `cache` object. */
        CacheCounters cache;
    };
    static Telemetry make_telemetry();

    ServerOptions options_;
    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    int port_ = 0;
    bool started_ = false;

    JobQueue queue_;
    std::shared_ptr<ExactEnergyMemo> exact_memo_ =
        std::make_shared<ExactEnergyMemo>();
    Telemetry metrics_;

    /** The I/O thread and the workers. */
    std::vector<std::thread> threads_;
    /** Workers not yet exited; the last one out wakes the I/O thread. */
    std::atomic<std::size_t> live_workers_{0};

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
    /** The shutdown mode, set once `shutdown` has cancelled and flushed
     *  what it must; empty while serving. */
    std::optional<bool> drain_ CAFQA_GUARDED_BY(shutdown_mutex_);
    /** Serializes teardown so concurrent `wait` calls are safe. */
    Mutex teardown_mutex_{"teardown_mutex"};
    bool finished_ CAFQA_GUARDED_BY(teardown_mutex_) = false;
};

} // namespace cafqa::server

#endif // CAFQA_SERVER_JOB_SERVER_HPP
