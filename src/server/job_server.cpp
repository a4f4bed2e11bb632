#include "server/job_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
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

JobServer::Connection::~Connection()
{
    close_fd(fd);
}

void
JobServer::Connection::send(const std::string& line)
{
    MutexLock lock(write_mutex);
    send_locked(line);
}

void
JobServer::Connection::send_locked(const std::string& line)
{
    if (!open.load(std::memory_order_relaxed)) {
        return;
    }
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
        // lint:allow(blocking-under-lock) write_mutex IS the per-socket
        // write serializer, so sending under it is the point; the
        // socket carries SO_SNDTIMEO, bounding how long a stalled peer
        // can hold the lock.
        const ssize_t n = ::send(fd, framed.data() + sent,
                                 framed.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            // EAGAIN/EWOULDBLOCK: the SO_SNDTIMEO bound expired — the
            // peer stopped reading and its socket buffer is full. Any
            // other errno: peer gone (EPIPE/ECONNRESET/...). Either
            // way, drop the connection so a worker blocked in
            // `respond` cannot stall job processing; the half-close
            // below kicks the reader out of recv so the connection
            // reaps instead of lingering.
            open.store(false, std::memory_order_relaxed);
            ::shutdown(fd, SHUT_RDWR);
            return;
        }
        sent += static_cast<std::size_t>(n);
    }
}

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
    if (options_.cache.enabled) {
        cache_ = std::make_shared<EvaluationCache>(options_.cache);
    }
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
    if (::pipe(wake_pipe_) != 0) {
        fail_errno("pipe");
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
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd_ < 0) {
            fail_errno("socket(AF_UNIX)");
        }
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
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0) {
            fail_errno("socket(AF_INET)");
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
        sockaddr_in bound{};
        socklen_t bound_size = sizeof(bound);
        if (::getsockname(listen_fd_,
                          reinterpret_cast<sockaddr*>(&bound),
                          &bound_size) != 0) {
            fail_errno("getsockname");
        }
        port_ = ntohs(bound.sin_port);
    }
    if (::listen(listen_fd_, 64) != 0) {
        fail_errno("listen");
    }

    register_callback_gauges();
    started_ = true;
    accept_thread_ = std::thread([this] { accept_loop(); });
    workers_.reserve(options_.workers);
    for (std::size_t i = 0; i < options_.workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

void
JobServer::accept_loop()
{
    for (;;) {
        pollfd fds[2] = {
            {listen_fd_, POLLIN, 0},
            {wake_pipe_[0], POLLIN, 0},
        };
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR) {
                continue;
            }
            return;
        }
        if (fds[1].revents != 0) {
            return; // shutdown
        }
        if ((fds[0].revents & POLLIN) == 0) {
            continue;
        }
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            continue;
        }
        if (options_.send_timeout_ms > 0) {
            // Bound every write so a client that stops reading cannot
            // park a worker inside `respond` forever (see
            // Connection::send_locked).
            timeval bound{};
            bound.tv_sec =
                static_cast<time_t>(options_.send_timeout_ms / 1000);
            bound.tv_usec = static_cast<suseconds_t>(
                (options_.send_timeout_ms % 1000) * 1000);
            ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &bound,
                         sizeof(bound));
        }
        auto connection = std::make_shared<Connection>();
        connection->fd = fd;
        {
            MutexLock lock(connections_mutex_);
            connection->id = next_connection_id_++;
            connections_[connection->id] = connection;
            readers_.emplace(
                connection->id,
                std::thread([this, connection] { reader_loop(connection); }));
        }
        reap_finished_readers();
    }
}

void
JobServer::register_callback_gauges()
{
    auto& registry = telemetry::MetricsRegistry::instance();
    // Each callback runs under `metrics_mutex` at scrape time and takes
    // its owner's lock — the `metrics_mutex -> queue_mutex` and
    // `metrics_mutex -> shard_mutex` edges in the lock-order manifest.
    registry.set_callback_gauge(
        "cafqa_server_queue_depth", {},
        [this] { return static_cast<double>(queue_.size()); },
        "Jobs admitted but not yet handed to a worker");
    if (cache_) {
        registry.set_callback_gauge(
            "cafqa_cache_entries", {},
            [this] { return static_cast<double>(cache_->stats().entries); },
            "Resident evaluation-cache entries");
        registry.set_callback_gauge(
            "cafqa_cache_resident_bytes", {},
            [this] { return static_cast<double>(cache_->stats().bytes); },
            "Approximate resident evaluation-cache payload bytes");
    }
}

void
JobServer::clear_callback_gauges()
{
    // The registry outlives this server (it is process-wide); a scrape
    // after teardown must not call into freed state.
    auto& registry = telemetry::MetricsRegistry::instance();
    registry.clear_callback_gauge("cafqa_server_queue_depth", {});
    if (cache_) {
        registry.clear_callback_gauge("cafqa_cache_entries", {});
        registry.clear_callback_gauge("cafqa_cache_resident_bytes", {});
    }
}

void
JobServer::reap_finished_readers()
{
    std::vector<std::thread> finished;
    {
        MutexLock lock(connections_mutex_);
        finished.reserve(finished_readers_.size());
        for (const std::uint64_t id : finished_readers_) {
            const auto it = readers_.find(id);
            if (it != readers_.end()) {
                finished.push_back(std::move(it->second));
                readers_.erase(it);
            }
        }
        finished_readers_.clear();
    }
    // Join outside the lock: a reader announces itself finished as its
    // very last locked action, so these joins only wait out a return.
    for (std::thread& reader : finished) {
        reader.join();
    }
}

void
JobServer::reader_loop(std::shared_ptr<Connection> connection)
{
    LineFramer framer(options_.max_line_bytes);
    std::vector<std::string> lines;
    char buffer[4096];
    for (;;) {
        const ssize_t n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            break;
        }
        lines.clear();
        const bool ok = framer.feed(
            std::string_view(buffer, static_cast<std::size_t>(n)), lines);
        for (const std::string& line : lines) {
            if (!line.empty()) {
                handle_line(connection, line);
            }
        }
        if (!ok) {
            connection->send(event_error(
                "request line exceeds " +
                std::to_string(framer.max_line_bytes()) + " bytes"));
            break;
        }
    }
    connection->open.store(false, std::memory_order_relaxed);
    MutexLock lock(connections_mutex_);
    connections_.erase(connection->id);
    // Announce exit LAST so whoever joins us (accept loop reap, or
    // wait()) only ever waits for this return statement.
    finished_readers_.push_back(connection->id);
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
                connection->send(event_rejected(id->value, error.what()));
                return;
            }
            // lint:allow(catch-swallow) best-effort probe: we only
            // tried to parse enough of the bad request to reject its
            // job id specifically; the error IS reported to the
            // client on the very next line either way.
        } catch (...) {
        }
        connection->send(event_error(error.what()));
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
            connection->send(event_cancelled(request.id));
        } else {
            connection->send(event_error("unknown or finished job id \"" +
                                         request.id + "\""));
        }
        break;
      }
      case Op::Stats:
        metrics_.stats_requests.add();
        connection->send(event_stats(
            counters(), cache_ ? cache_->stats() : CacheStats{}));
        break;
      case Op::Metrics: {
        metrics_.metrics_requests.add();
        // No named lock is held here (reader context): the scrape takes
        // metrics_mutex and, inside the callback gauges, queue_mutex /
        // shard_mutex — the declared manifest edges.
        auto& registry = telemetry::MetricsRegistry::instance();
        connection->send(
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
        connection->send(event_rejected(id, error.what()));
        return;
    }

    auto token = std::make_shared<std::atomic<bool>>(false);

    Job job;
    job.client = "conn-" + std::to_string(connection->id);
    job.id = id;
    job.spec = std::move(request.spec);
    job.cancel = token;
    job.respond = [connection](const std::string& line) {
        connection->send(line);
    };

    // Hold the connection's write lock ACROSS the push so `accepted`
    // hits the wire before the worker — which may pop the job
    // immediately — can interleave its `started` event. (No deadlock:
    // the queue lock is never held while writing to a connection.)
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
        connection->send_locked(event_rejected(
            id, "duplicate job id (still queued or running)"));
        return;
    }
    if (admit != Admit::Accepted) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        (admit == Admit::QueueFull ? metrics_.reject_queue_full
                                   : metrics_.reject_draining)
            .add();
        connection->send_locked(event_rejected(id, to_string(admit)));
        return;
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    connection->send_locked(event_accepted(id, queue_.size()));
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
        // Workers already run whole jobs side by side; a job leaning on
        // the process-shared pool would fight its siblings for it (same
        // rationale as BatchOptions::run_threads).
        spec.threads = options_.run_threads;
    }
    RunContext context;
    context.cancel = job.cancel;
    context.shared_cache = cache_;

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
    {
        MutexLock lock(shutdown_mutex_);
        drain_ = drain;
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
    // Wake the accept loop (signal-safe: one byte down a pipe).
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
    shutdown_cv_.notify_all();
}

void
JobServer::wait()
{
    {
        MutexLock lock(shutdown_mutex_);
        while (!shutdown_requested_.load()) {
            shutdown_cv_.wait(lock);
        }
    }
    // Unhook the scrape-time callbacks BEFORE teardown (and before
    // taking teardown_mutex_: clearing takes metrics_mutex, and a lock
    // edge out of teardown_mutex_ into it would be a new ordering
    // constraint for nothing). Idempotent, so concurrent waiters are
    // fine; the members the callbacks read outlive `wait` anyway.
    if (started_) {
        clear_callback_gauges();
    }
    MutexLock teardown(teardown_mutex_);
    if (finished_) {
        return;
    }

    // lint:allow(blocking-under-lock) teardown_mutex_ serializes
    // concurrent wait() callers across the whole teardown, including
    // these joins; none of the joined threads ever takes it.
    accept_thread_.join();
    close_fd(listen_fd_);
    if (!options_.unix_path.empty()) {
        ::unlink(options_.unix_path.c_str());
    }

    // Workers exit once the (closed) queue is empty — in drain mode
    // that is after every queued job ran and streamed its record.
    for (std::thread& worker : workers_) {
        // lint:allow(blocking-under-lock) under teardown_mutex_ by
        // design (see the accept_thread_ join above); workers never
        // take it.
        worker.join();
    }

    // Every record is out; say bye and wake the readers.
    bool drain;
    {
        MutexLock lock(shutdown_mutex_);
        drain = drain_;
    }
    std::vector<std::shared_ptr<Connection>> snapshot;
    {
        MutexLock lock(connections_mutex_);
        snapshot.reserve(connections_.size());
        // lint:allow(unordered-iter) bye goes to every connection;
        // each client only observes its own socket, so cross-client
        // order cannot leak into any output.
        for (const auto& [id, connection] : connections_) {
            snapshot.push_back(connection);
        }
    }
    for (const auto& connection : snapshot) {
        connection->send(event_bye(drain ? "drain" : "now"));
        connection->open.store(false, std::memory_order_relaxed);
        ::shutdown(connection->fd, SHUT_RDWR);
    }
    std::vector<std::thread> readers;
    {
        MutexLock lock(connections_mutex_);
        readers.reserve(readers_.size());
        // lint:allow(unordered-iter) collecting handles to join;
        // join order is immaterial and produces no output.
        for (auto& [id, reader] : readers_) {
            readers.push_back(std::move(reader));
        }
        readers_.clear();
        finished_readers_.clear();
    }
    for (std::thread& reader : readers) {
        // lint:allow(blocking-under-lock) under teardown_mutex_ by
        // design (see the accept_thread_ join above); readers observe
        // the closed socket and exit without taking it.
        reader.join();
    }
    {
        MutexLock lock(connections_mutex_);
        connections_.clear();
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
