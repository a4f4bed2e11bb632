#include "server/job_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"
#include "common/text.hpp"

namespace cafqa::server {

namespace {

[[noreturn]] void
fail_errno(const std::string& what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/** Every server socket is non-blocking: the I/O thread never waits. */
constexpr int kSocketFlags = SOCK_NONBLOCK | SOCK_CLOEXEC;

/** How long a failed `accept` (out of descriptors, ...) keeps the
 *  listen socket out of the poll set unless a connection closes first:
 *  the connection it could not take keeps that socket readable. */
constexpr std::chrono::milliseconds kAcceptRetry{100};

/** One byte down the (non-blocking) wake pipe; signal-safe. */
void
wake(int pipe_fd)
{
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(pipe_fd, &byte, 1);
}

void
close_fd(int& fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/**
 * Make `path` bindable without hijacking anything: nothing there is
 * fine, a stale socket (left by a crash; nobody answers) is unlinked,
 * and a non-socket file or a socket a live server answers on throws.
 */
void
remove_stale_unix_socket(const std::string& path)
{
    struct stat status {};
    if (::lstat(path.c_str(), &status) != 0) {
        if (errno == ENOENT) {
            return; // nothing to clear
        }
        fail_errno("stat(" + path + ")");
    }
    if (!S_ISSOCK(status.st_mode)) {
        throw std::runtime_error(path +
                                 " exists and is not a socket; refusing "
                                 "to unlink it");
    }
    int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) {
        fail_errno("socket(AF_UNIX)");
    }
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, path.c_str(),
                 sizeof(address.sun_path) - 1);
    const bool live =
        ::connect(probe, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) == 0;
    close_fd(probe);
    if (live) {
        throw std::runtime_error("another server is live on " + path);
    }
    ::unlink(path.c_str()); // stale socket from a crash
}

} // namespace

/** One client socket. The fields above `write_mutex` belong to the I/O
 *  thread; any thread may `post`. */
struct JobServer::Connection
{
    Connection(int socket, int wake, std::uint64_t number,
               std::size_t max_line_bytes)
        : fd(socket), wake_fd(wake), id(number), framer(max_line_bytes)
    {
    }

    int fd;
    int wake_fd; // written when the outbox stops being empty
    std::uint64_t id;
    LineFramer framer;
    /** Lines read but not yet handled: handling pauses while output is
     *  unsent. `overlong` posts the framing error after them. */
    std::deque<std::string> lines;
    bool overlong = false;
    /** Output taken from `outbox`; bytes from `sent` on are unsent. */
    std::string sending;
    std::size_t sent = 0;
    /** When unsent output last moved: the stall clock. */
    std::chrono::steady_clock::time_point progress;

    Mutex write_mutex{"write_mutex"};
    /** Whole lines posted but not yet taken by the I/O thread. */
    std::string outbox CAFQA_GUARDED_BY(write_mutex);
    /** False once closing or dropped: later posts are discarded, and
     *  the I/O thread closes the socket once the outbox is flushed. */
    bool open CAFQA_GUARDED_BY(write_mutex) = true;

    void post(const std::string& line) CAFQA_EXCLUDES(write_mutex)
    {
        MutexLock lock(write_mutex);
        post_locked(line);
    }

    /** `post` for a caller already holding `write_mutex` (used to order
     *  `accepted` ahead of the worker's `started`). */
    void post_locked(const std::string& line) CAFQA_REQUIRES(write_mutex)
    {
        if (!open) {
            return;
        }
        const bool was_idle = outbox.empty();
        outbox += line;
        outbox += '\n';
        if (was_idle) {
            wake(wake_fd);
        }
    }

    /** Post `line` as the connection's last output. */
    void post_last(const std::string& line) CAFQA_EXCLUDES(write_mutex)
    {
        MutexLock lock(write_mutex);
        post_locked(line);
        open = false;
    }

    /** True while posted or taken output is unsent (I/O thread only). */
    bool backlogged() CAFQA_EXCLUDES(write_mutex)
    {
        if (sent < sending.size()) {
            return true;
        }
        MutexLock lock(write_mutex);
        return !outbox.empty();
    }

    /** Discard pending output and close the socket (I/O thread only). */
    void drop() CAFQA_EXCLUDES(write_mutex)
    {
        {
            MutexLock lock(write_mutex);
            open = false;
            outbox.clear();
        }
        close_fd(fd);
    }

    /** Send posted output without blocking (I/O thread only). False
     *  means drop the connection: the peer is gone, it is closing and
     *  flushed, or its output has stalled for `stall_ms`. Otherwise
     *  `timeout_ms` falls to the time left before the stall bound. */
    bool flush(std::chrono::steady_clock::time_point now,
               std::size_t stall_ms, int& timeout_ms)
        CAFQA_EXCLUDES(write_mutex)
    {
        if (fd < 0) {
            return false;
        }
        for (;;) {
            if (sent == sending.size()) {
                sending.clear();
                sent = 0;
                bool still_open = false;
                {
                    MutexLock lock(write_mutex);
                    sending.swap(outbox);
                    still_open = open;
                }
                if (sending.empty()) {
                    return still_open; // a closing one closes once flushed
                }
                progress = now;
            }
            const ssize_t n = ::send(fd, sending.data() + sent,
                                     sending.size() - sent, MSG_NOSIGNAL);
            if (n > 0) {
                sent += static_cast<std::size_t>(n);
                progress = now;
            } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
                break;
            } else if (errno != EINTR) {
                return false; // peer gone (EPIPE, ECONNRESET, ...)
            }
        }
        if (stall_ms == 0) {
            return true;
        }
        const auto deadline = progress + std::chrono::milliseconds(stall_ms);
        if (now >= deadline) {
            return false; // the client stopped reading
        }
        const int left = static_cast<int>(
            std::chrono::ceil<std::chrono::milliseconds>(deadline - now)
                .count());
        timeout_ms = timeout_ms < 0 ? left : std::min(timeout_ms, left);
        return true;
    }
};

JobServer::Telemetry
JobServer::make_telemetry()
{
    auto& registry = telemetry::MetricsRegistry::instance();
    const std::string requests = "cafqa_server_requests_total";
    const std::string requests_help =
        "Protocol requests received, by verb";
    const std::string rejects = "cafqa_server_rejects_total";
    const std::string rejects_help =
        "Submissions rejected at admission, by reason";
    return Telemetry{
        registry.counter(requests, {{"verb", "submit"}}, requests_help),
        registry.counter(requests, {{"verb", "cancel"}}, requests_help),
        registry.counter(requests, {{"verb", "stats"}}, requests_help),
        registry.counter(requests, {{"verb", "metrics"}}, requests_help),
        registry.counter(requests, {{"verb", "shutdown"}}, requests_help),
        registry.counter("cafqa_server_bad_requests_total", {},
                         "Request lines that failed to parse"),
        registry.counter(rejects, {{"reason", "bad_spec"}}, rejects_help),
        registry.counter(rejects, {{"reason", "duplicate_id"}},
                         rejects_help),
        registry.counter(rejects, {{"reason", "queue_full"}},
                         rejects_help),
        registry.counter(rejects, {{"reason", "draining"}}, rejects_help),
        registry.counter("cafqa_server_jobs_completed_total", {},
                         "Jobs that emitted a result event (ran or "
                         "flushed cancelled)"),
        registry.counter("cafqa_server_jobs_cancelled_total", {},
                         "Jobs flushed as cancelled without running"),
        registry.gauge("cafqa_server_busy_workers", {},
                       "Workers currently executing a job"),
        registry.histogram("cafqa_server_job_latency_ms", {},
                           "Submit-to-result milliseconds for jobs "
                           "that ran"),
        CacheCounters::fetch(),
    };
}

JobServer::JobServer(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity),
      metrics_(make_telemetry())
{
    CAFQA_REQUIRE(options_.workers >= 1,
                  "job server needs at least one worker");
    CAFQA_REQUIRE(options_.run_threads >= 1,
                  "per-run thread count must be at least 1");
    CAFQA_REQUIRE(options_.unix_path.empty() || options_.port == 0,
                  "configure either unix_path or a TCP port, not both");
}

JobServer::~JobServer()
{
    if (started_) {
        shutdown(false);
        wait();
    }
    close_fd(listen_fd_);
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
}

void
JobServer::start()
{
    CAFQA_REQUIRE(!started_, "job server already started");
    if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
        fail_errno("pipe");
    }

    listen_fd_ = ::socket(options_.unix_path.empty() ? AF_INET : AF_UNIX,
                          SOCK_STREAM | kSocketFlags, 0);
    if (listen_fd_ < 0) {
        fail_errno("socket");
    }
    if (!options_.unix_path.empty()) {
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        CAFQA_REQUIRE(
            options_.unix_path.size() < sizeof(address.sun_path),
            "unix socket path too long: " + options_.unix_path);
        std::strncpy(address.sun_path, options_.unix_path.c_str(),
                     sizeof(address.sun_path) - 1);
        remove_stale_unix_socket(options_.unix_path);
        if (::bind(listen_fd_,
                   reinterpret_cast<const sockaddr*>(&address),
                   sizeof(address)) != 0) {
            fail_errno("bind(" + options_.unix_path + ")");
        }
    } else {
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port =
            htons(static_cast<std::uint16_t>(options_.port));
        if (::inet_pton(AF_INET, options_.host.c_str(),
                        &address.sin_addr) != 1) {
            throw std::runtime_error("bad listen address: " +
                                     options_.host);
        }
        const int yes = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes,
                     sizeof(yes));
        if (::bind(listen_fd_,
                   reinterpret_cast<const sockaddr*>(&address),
                   sizeof(address)) != 0) {
            fail_errno("bind(" + options_.host + ":" +
                       std::to_string(options_.port) + ")");
        }
        socklen_t bound_size = sizeof(address);
        if (::getsockname(listen_fd_,
                          reinterpret_cast<sockaddr*>(&address),
                          &bound_size) != 0) {
            fail_errno("getsockname");
        }
        port_ = ntohs(address.sin_port);
    }
    if (::listen(listen_fd_, 64) != 0) {
        fail_errno("listen");
    }

    started_ = true;
    live_workers_.store(options_.workers);
    threads_.reserve(options_.workers + 1);
    threads_.emplace_back([this] { io_loop(); });
    for (std::size_t i = 0; i < options_.workers; ++i) {
        threads_.emplace_back([this] { worker_loop(); });
    }
}

void
JobServer::io_loop()
{
    std::vector<std::shared_ptr<Connection>> connections;
    std::vector<pollfd> fds;
    std::uint64_t next_id = 1;
    bool said_bye = false;
    std::chrono::steady_clock::time_point accept_paused_until;
    for (;;) {
        if (!said_bye && live_workers_.load() == 0) {
            // Every record is posted once the workers and `shutdown` are done.
            std::optional<bool> drain;
            {
                MutexLock lock(shutdown_mutex_);
                drain = drain_;
            }
            if (drain) {
                for (const auto& connection : connections) {
                    connection->post_last(event_bye(*drain ? "drain" : "now"));
                }
                said_bye = true;
            }
        }
        const auto now = std::chrono::steady_clock::now();
        int timeout_ms = -1;
        std::erase_if(connections, [&](const auto& connection) {
            const bool keep =
                connection->flush(now, options_.send_timeout_ms, timeout_ms);
            if (!keep) {
                connection->drop();
                accept_paused_until = {}; // a descriptor came free
            }
            return !keep;
        });
        if (said_bye && connections.empty()) {
            return;
        }
        // Lines already read resume once their connection's output has
        // drained; poll will not report them again.
        bool resumed = false;
        for (const auto& connection : connections) {
            if (!connection->lines.empty() && !connection->backlogged()) {
                handle_lines(connection);
                resumed = true;
            }
        }
        if (resumed) {
            continue; // flush what they posted before polling
        }

        const bool accept_paused = now < accept_paused_until;
        if (accept_paused) {
            const int left = static_cast<int>(
                std::chrono::ceil<std::chrono::milliseconds>(
                    accept_paused_until - now)
                    .count());
            timeout_ms = timeout_ms < 0 ? left : std::min(timeout_ms, left);
        }
        // Backpressure: a connection with unsent output or unhandled
        // lines is polled for POLLOUT only, so a client that stops
        // reading stops being read.
        const int listening =
            shutdown_requested_.load() || accept_paused ? -1 : listen_fd_;
        fds.assign({{wake_pipe_[0], POLLIN, 0}, {listening, POLLIN, 0}});
        for (const auto& connection : connections) {
            const bool pending = connection->sent < connection->sending.size() ||
                                 !connection->lines.empty();
            fds.push_back({connection->fd,
                           static_cast<short>(pending ? POLLOUT : POLLIN), 0});
        }
        if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        if (fds[0].revents != 0) {
            char bytes[256];
            while (::read(wake_pipe_[0], bytes, sizeof(bytes)) > 0) {
            }
        }
        for (std::size_t i = 0; i < connections.size(); ++i) {
            if ((fds[i + 2].events & POLLIN) != 0 && fds[i + 2].revents != 0) {
                read_from(connections[i]);
            }
        }
        while ((fds[1].revents & POLLIN) != 0) {
            const int fd =
                ::accept4(listen_fd_, nullptr, nullptr, kSocketFlags);
            if (fd >= 0) {
                connections.push_back(std::make_shared<Connection>(
                    fd, wake_pipe_[1], next_id++, options_.max_line_bytes));
            } else if (errno != EINTR) {
                if (errno != EAGAIN && errno != EWOULDBLOCK) {
                    accept_paused_until =
                        std::chrono::steady_clock::now() + kAcceptRetry;
                }
                break; // backlog empty, or retry later
            }
        }
    }
    for (const auto& connection : connections) {
        connection->drop();
    }
}

void
JobServer::read_from(const std::shared_ptr<Connection>& connection)
{
    char buffer[4096];
    const ssize_t n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
    }
    if (n <= 0) {
        connection->drop(); // end of stream, or the peer is gone
        return;
    }
    std::vector<std::string> lines;
    connection->overlong = !connection->framer.feed(
        std::string_view(buffer, static_cast<std::size_t>(n)), lines);
    for (std::string& line : lines) {
        connection->lines.push_back(std::move(line));
    }
    handle_lines(connection);
}

void
JobServer::handle_lines(const std::shared_ptr<Connection>& connection)
{
    while (!connection->lines.empty() && !connection->backlogged()) {
        const std::string line = std::move(connection->lines.front());
        connection->lines.pop_front();
        if (!line.empty()) {
            handle_line(connection, line);
        }
    }
    if (connection->lines.empty() && connection->overlong) {
        connection->overlong = false;
        connection->post_last(event_error(
            "request line exceeds " +
            std::to_string(connection->framer.max_line_bytes()) + " bytes"));
    }
}

void
JobServer::handle_line(const std::shared_ptr<Connection>& connection,
                       const std::string& line)
{
    Request request;
    try {
        request = parse_request(line);
    } catch (const std::exception& error) {
        metrics_.bad_requests.add();
        // A submit whose spec failed to parse still deserves a per-job
        // rejection (clients correlate by id); salvage the id when the
        // envelope itself is readable.
        try {
            const auto fields = parse_flat_json_object(line);
            const JsonField* op = find_json_field(fields, "op");
            const JsonField* id = find_json_field(fields, "id");
            if (op != nullptr && op->value == "submit" && id != nullptr &&
                id->is_string) {
                rejected_.fetch_add(1, std::memory_order_relaxed);
                metrics_.reject_bad_spec.add();
                connection->post(event_rejected(id->value, error.what()));
                return;
            }
            // lint:allow(catch-swallow) best-effort probe: we only
            // tried to parse enough of the bad request to reject its
            // job id specifically; the error IS reported to the
            // client on the very next line either way.
        } catch (...) {
        }
        connection->post(event_error(error.what()));
        return;
    }
    switch (request.op) {
      case Op::Submit:
        metrics_.submit_requests.add();
        handle_submit(connection, std::move(request));
        break;
      case Op::Cancel: {
        metrics_.cancel_requests.add();
        std::shared_ptr<std::atomic<bool>> token;
        {
            MutexLock lock(jobs_mutex_);
            const auto it = jobs_.find(request.id);
            if (it != jobs_.end()) {
                token = it->second;
            }
        }
        if (token) {
            token->store(true, std::memory_order_relaxed);
            cancelled_.fetch_add(1, std::memory_order_relaxed);
            connection->post(event_cancelled(request.id));
        } else {
            connection->post(event_error("unknown or finished job id \"" +
                                         request.id + "\""));
        }
        break;
      }
      case Op::Stats:
        metrics_.stats_requests.add();
        connection->post(event_stats(counters(), metrics_.cache.totals()));
        break;
      case Op::Metrics: {
        metrics_.metrics_requests.add();
        // No named lock is held here (I/O thread); the scrape takes
        // only metrics_mutex, a leaf.
        auto& registry = telemetry::MetricsRegistry::instance();
        connection->post(
            event_metrics(telemetry::wall_timestamp_seconds(),
                          registry.prometheus(), registry.json()));
        break;
      }
      case Op::Shutdown:
        metrics_.shutdown_requests.add();
        shutdown(request.drain);
        break;
    }
}

void
JobServer::handle_submit(const std::shared_ptr<Connection>& connection,
                         Request request)
{
    std::string id = request.id.empty()
                         ? "job-" + std::to_string(next_job_id_.fetch_add(
                               1, std::memory_order_relaxed))
                         : request.id;
    try {
        request.spec.validate();
    } catch (const std::exception& error) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        metrics_.reject_bad_spec.add();
        connection->post(event_rejected(id, error.what()));
        return;
    }

    auto token = std::make_shared<std::atomic<bool>>(false);

    Job job;
    job.client = "conn-" + std::to_string(connection->id);
    job.id = id;
    job.spec = std::move(request.spec);
    job.cancel = token;
    job.respond = [connection](const std::string& line) {
        connection->post(line);
    };

    // Hold the connection's write lock ACROSS the push so `accepted`
    // is posted before the worker — which may pop the job immediately —
    // can post its `started` event.
    MutexLock lock(connection->write_mutex);
    bool fresh_id;
    Admit admit = Admit::Accepted;
    {
        // Registration and push are ONE critical section: a concurrent
        // cancel must never find (and "cancel") a job the queue then
        // rejects — the client would see `cancelled` followed by
        // `rejected` for an id that never existed.
        MutexLock jobs_lock(jobs_mutex_);
        fresh_id = jobs_.try_emplace(id, token).second;
        if (fresh_id) {
            admit = queue_.push(std::move(job));
            if (admit != Admit::Accepted) {
                jobs_.erase(id);
            }
        }
    }
    if (!fresh_id) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        metrics_.reject_duplicate.add();
        connection->post_locked(event_rejected(
            id, "duplicate job id (still queued or running)"));
        return;
    }
    if (admit != Admit::Accepted) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        (admit == Admit::QueueFull ? metrics_.reject_queue_full
                                   : metrics_.reject_draining)
            .add();
        connection->post_locked(event_rejected(id, to_string(admit)));
        return;
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    connection->post_locked(event_accepted(id, queue_.size()));
}

void
JobServer::worker_loop()
{
    while (auto job = queue_.pop()) {
        busy_.fetch_add(1, std::memory_order_relaxed);
        metrics_.busy_workers.add(1.0);
        process_job(*job);
        metrics_.busy_workers.add(-1.0);
        busy_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (live_workers_.fetch_sub(1) == 1) {
        wake(wake_pipe_[1]); // the I/O thread may now say bye
    }
}

void
JobServer::process_job(Job& job)
{
    if (job.cancel->load(std::memory_order_relaxed)) {
        flush_cancelled(job);
        return;
    }
    job.respond(event_started(job.id));

    RunSpec spec = job.spec;
    if (spec.threads == 0) {
        // Workers already run whole jobs side by side; a job with a
        // hardware-sized pool of its own would fight its siblings for
        // the cores (same rationale as BatchOptions::run_threads).
        spec.threads = options_.run_threads;
    }
    RunContext context;
    context.cancel = job.cancel;
    context.exact_memo = exact_memo_;

    RunRecord record;
    try {
        record = execute_run_spec(spec, context);
    } catch (const std::exception& error) {
        record = RunRecord{};
        record.ok = false;
        record.error = error.what();
    }
    // Report the spec as submitted, not the thread-count override.
    record.spec = job.spec;
    completed_.fetch_add(1, std::memory_order_relaxed);
    metrics_.jobs_completed.add();
    metrics_.job_latency_ms.observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - job.submitted)
            .count());
    job.respond(event_result(job.id, record));
    unregister_job(job.id);
}

void
JobServer::flush_cancelled(Job& job)
{
    RunRecord record;
    record.spec = job.spec;
    record.ok = false;
    record.cancelled = true;
    record.error = "cancelled before start";
    completed_.fetch_add(1, std::memory_order_relaxed);
    metrics_.jobs_completed.add();
    metrics_.jobs_cancelled.add();
    job.respond(event_result(job.id, record));
    unregister_job(job.id);
}

void
JobServer::unregister_job(const std::string& id)
{
    MutexLock lock(jobs_mutex_);
    jobs_.erase(id);
}

void
JobServer::shutdown(bool drain)
{
    bool expected = false;
    if (!shutdown_requested_.compare_exchange_strong(expected, true)) {
        return; // first call wins
    }
    queue_.close();
    if (!drain) {
        // Cancel everything: in-flight jobs stop at their next recorded
        // evaluation, queued jobs flush cancelled records right here
        // (a worker stuck in a long run must not delay them).
        {
            MutexLock lock(jobs_mutex_);
            // lint:allow(unordered-iter) raising every cancel token;
            // order-insensitive, nothing is serialized here.
            for (auto& [id, token] : jobs_) {
                token->store(true, std::memory_order_relaxed);
            }
        }
        for (Job& job : queue_.drain_now()) {
            flush_cancelled(job);
        }
    }
    {
        MutexLock lock(shutdown_mutex_);
        drain_ = drain;
    }
    shutdown_cv_.notify_all();
    wake(wake_pipe_[1]);
}

void
JobServer::wait()
{
    {
        MutexLock lock(shutdown_mutex_);
        while (!drain_.has_value()) {
            shutdown_cv_.wait(lock);
        }
    }
    MutexLock teardown(teardown_mutex_);
    if (finished_) {
        return;
    }
    // Workers exit once the (closed) queue is empty — in drain mode
    // that is after every queued job ran and posted its record. The I/O
    // thread then says bye, flushes and closes every connection.
    for (std::thread& thread : threads_) {
        // lint:allow(blocking-under-lock) teardown_mutex_ serializes
        // concurrent wait() callers; no joined thread ever takes it.
        thread.join();
    }
    close_fd(listen_fd_);
    if (!options_.unix_path.empty()) {
        ::unlink(options_.unix_path.c_str());
    }
    finished_ = true;
}

ServerCounters
JobServer::counters() const
{
    ServerCounters out;
    out.submitted = submitted_.load(std::memory_order_relaxed);
    out.completed = completed_.load(std::memory_order_relaxed);
    out.cancelled = cancelled_.load(std::memory_order_relaxed);
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.queued = queue_.size();
    out.workers = options_.workers;
    out.busy = busy_.load(std::memory_order_relaxed);
    return out;
}

} // namespace cafqa::server
