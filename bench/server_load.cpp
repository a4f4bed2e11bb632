/**
 * Load bench for the job server: flood one in-process server with
 * thousands of queued specs over several client connections, then
 * report end-to-end latency percentiles (submit -> result) and
 * sustained throughput.
 *
 * Latency percentiles come from the telemetry subsystem's shared
 * `telemetry::Histogram` — the same log-bucketed estimator the server
 * exports — so the bench numbers and a production scrape read off one
 * implementation. Before shutting the server down the bench scrapes
 * the `metrics` protocol verb and cross-checks the server's own view
 * against the client side: completed-job count must match exactly, and
 * the server's p50 (queue wait + execution, observed before the result
 * is written to the socket) must not exceed the client's p50 (submit
 * to result read) beyond estimator slack.
 *
 * The spec mix cycles a handful of tiny problems, so jobs repeatedly
 * land on the same Hamiltonians. The bench re-executes each distinct
 * spec solo through `execute_run_spec` and asserts the last streamed
 * record of it is byte-identical apart from `wall_ms` (wall time is not
 * deterministic).
 *
 * Usage: server_load [--jobs N] [--clients N] [--workers N] [--json PATH]
 * Defaults: 1000 jobs, 4 connections, 2 workers.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_safety.hpp"

#include "common/text.hpp"
#include "core/batch_runner.hpp"
#include "server/client.hpp"
#include "server/job_server.hpp"
#include "telemetry/metrics.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

[[noreturn]] void
fail(const std::string& message)
{
    std::cerr << "server_load: " << message << '\n';
    std::exit(1);
}

double
ms_between(clock_type::time_point a, clock_type::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** `json` with one top-level scalar field removed (its name, value and
 *  separating comma) — how the bench ignores `wall_ms`. */
std::string
strip_scalar_field(const std::string& json, const std::string& name)
{
    const std::string needle = "\"" + name + "\":";
    const std::size_t start = json.find(needle);
    if (start == std::string::npos) {
        return json;
    }
    std::size_t end = start + needle.size();
    while (end < json.size() && json[end] != ',' && json[end] != '}') {
        ++end;
    }
    std::size_t from = start;
    if (end < json.size() && json[end] == ',') {
        ++end; // the field's own trailing comma
    } else if (start > 0 && json[start - 1] == ',') {
        --from; // last field: drop the preceding comma instead
    }
    return json.substr(0, from) + json.substr(end);
}

/** Numeric field `field` of the nested histogram object `series` in a
 *  registry JSON snapshot (`"series":{...,"field":V,...}`). */
double
snapshot_histogram_field(const std::string& snapshot,
                         const std::string& series,
                         const std::string& field)
{
    const std::string series_needle = "\"" + series + "\":{";
    const std::size_t at = snapshot.find(series_needle);
    if (at == std::string::npos) {
        fail("metrics snapshot is missing series \"" + series + "\"");
    }
    const std::size_t close = snapshot.find('}', at);
    const std::string object =
        snapshot.substr(at, close - at + 1);
    const std::string field_needle = "\"" + field + "\":";
    const std::size_t fat = object.find(field_needle);
    if (fat == std::string::npos) {
        fail("series \"" + series + "\" is missing field \"" + field +
             "\"");
    }
    return std::atof(object.c_str() + fat + field_needle.size());
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace cafqa;
    using namespace cafqa::server;

    std::size_t total_jobs = 1000;
    std::size_t num_clients = 4;
    std::size_t num_workers = 2;
    std::string json_path = "BENCH_server_load.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                fail(arg + " requires a value");
            }
            return argv[++i];
        };
        if (arg == "--jobs") {
            total_jobs = static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--clients") {
            num_clients = static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--workers") {
            num_workers = static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--quick") {
            total_jobs = 200;
        } else {
            fail("unknown option '" + arg + "'");
        }
    }
    if (total_jobs == 0 || num_clients == 0) {
        fail("--jobs and --clients must be positive");
    }

    // Tiny specs, deliberately repetitive: jobs re-hit the same
    // problem, and each must still match its solo run.
    const std::vector<std::string> mix = {
        "problem=maxcut:ring-6 warmup=4 iterations=4",
        "problem=maxcut:ring-8 warmup=4 iterations=4",
        "problem=tfim:chain-4?h=1 warmup=4 iterations=4",
    };

    ServerOptions options;
    options.workers = num_workers;
    options.queue_capacity = total_jobs + 16; // hold the full flood
    JobServer server(options);
    server.start();

    std::cout << "server_load: " << total_jobs << " jobs over "
              << num_clients << " connections, " << num_workers
              << " workers\n";

    std::vector<BlockingClient> clients;
    clients.reserve(num_clients);
    for (std::size_t i = 0; i < num_clients; ++i) {
        clients.push_back(
            BlockingClient::connect_tcp("127.0.0.1", server.port()));
    }

    // Flood phase: submit everything before reading a single result,
    // so the queue really holds ~total_jobs entries at once.
    std::map<std::string, clock_type::time_point> submitted_at;
    std::map<std::string, std::string> spec_of;
    const auto flood_start = clock_type::now();
    for (std::size_t j = 0; j < total_jobs; ++j) {
        const std::size_t c = j % num_clients;
        const std::string id = "load-" + std::to_string(j);
        const std::string& spec = mix[j % mix.size()];
        submitted_at[id] = clock_type::now();
        spec_of[id] = spec;
        clients[c].send_line("{\"op\":\"submit\",\"id\":\"" + id +
                             "\",\"spec\":" + json_quote(spec) + "}");
    }

    // Collect phase: one drainer thread per connection (a connection
    // left unread would fill its socket buffer and stall the workers'
    // sends). Latency = submit -> result, observed straight into the
    // shared lock-light histogram (thread-safe; no per-drainer merge).
    telemetry::Histogram client_latency;
    std::map<std::string, std::string> record_of; // spec -> record json
    std::size_t accepted = 0;
    std::size_t failed = 0;
    cafqa::Mutex merge_mutex{"merge_mutex"};
    // lint:allow(raw-thread) bench drainers must outpace the server's
    // worker sends; the pool's serialized parallel_for cannot.
    std::vector<std::thread> drainers;
    drainers.reserve(num_clients);
    for (std::size_t c = 0; c < num_clients; ++c) {
        drainers.emplace_back([&, c] {
            std::size_t outstanding =
                total_jobs / num_clients +
                (c < total_jobs % num_clients ? 1 : 0);
            std::map<std::string, std::string> local_records;
            std::size_t local_accepted = 0;
            std::size_t local_failed = 0;
            while (outstanding > 0) {
                const auto line = clients[c].read_line();
                if (!line) {
                    fail("connection closed with jobs outstanding");
                }
                const Event event = parse_event(*line);
                if (event.event == "accepted") {
                    ++local_accepted;
                } else if (event.event == "rejected") {
                    fail("job rejected: " + event.reason);
                } else if (event.event == "result") {
                    --outstanding;
                    client_latency.observe(ms_between(
                        submitted_at.at(event.id), clock_type::now()));
                    if (event.record_json.find("\"ok\":true") ==
                        std::string::npos) {
                        ++local_failed;
                    }
                    local_records[spec_of.at(event.id)] =
                        event.record_json;
                }
            }
            cafqa::MutexLock lock(merge_mutex);
            for (auto& [spec, record] : local_records) {
                record_of[spec] = std::move(record);
            }
            accepted += local_accepted;
            failed += local_failed;
        });
    }
    // lint:allow(raw-thread) joining the bench drainers above.
    for (std::thread& drainer : drainers) {
        drainer.join();
    }
    const double wall_ms = ms_between(flood_start, clock_type::now());

    if (failed > 0) {
        fail(std::to_string(failed) + " job(s) failed");
    }

    // Scrape phase: ask the still-running server for its own telemetry
    // and cross-check it against the client-side view.
    clients[0].send_line(metrics_line());
    const auto metrics_reply = clients[0].read_line();
    if (!metrics_reply) {
        fail("connection closed on the metrics scrape");
    }
    const Event scrape = parse_event(*metrics_reply);
    if (scrape.event != "metrics") {
        fail("expected a metrics event, got \"" + scrape.event + "\"");
    }
    const std::optional<double> served_jobs = telemetry::find_prometheus_sample(
        scrape.prometheus, "cafqa_server_jobs_completed_total");
    if (!served_jobs) {
        fail("scrape is missing cafqa_server_jobs_completed_total");
    }
    if (static_cast<std::size_t>(*served_jobs) != total_jobs) {
        fail("server counted " + std::to_string(
                 static_cast<std::size_t>(*served_jobs)) +
             " completed jobs, clients saw " + std::to_string(total_jobs));
    }
    const double server_latency_count = snapshot_histogram_field(
        scrape.snapshot_json, "cafqa_server_job_latency_ms", "count");
    if (static_cast<std::size_t>(server_latency_count) != total_jobs) {
        fail("server latency histogram holds " +
             std::to_string(static_cast<std::size_t>(
                 server_latency_count)) +
             " observations, expected " + std::to_string(total_jobs));
    }
    const double server_p50 = snapshot_histogram_field(
        scrape.snapshot_json, "cafqa_server_job_latency_ms", "p50");

    server.shutdown(true);
    server.wait();

    // Contract: a server record matches the solo run byte for byte,
    // `wall_ms` aside.
    for (const std::string& spec_text : mix) {
        const RunSpec spec = RunSpec::parse(spec_text);
        const std::string solo =
            strip_scalar_field(execute_run_spec(spec).to_json(),
                               "wall_ms");
        const std::string served =
            strip_scalar_field(record_of.at(spec_text), "wall_ms");
        if (solo != served) {
            fail("server record differs from solo run for \"" +
                 spec_text + "\":\n  solo:   " + solo +
                 "\n  served: " + served);
        }
    }

    const double p50 = client_latency.percentile(0.50);
    const double p95 = client_latency.percentile(0.95);
    const double p99 = client_latency.percentile(0.99);
    const double throughput =
        static_cast<double>(total_jobs) / (wall_ms / 1000.0);

    // The server measures submit -> result-written; the client adds
    // socket transit and drain scheduling on top, so the server's p50
    // must not exceed the client's beyond the histogram estimator
    // slack (~9% per side) plus a small absolute allowance.
    if (server_p50 > p50 * 1.25 + 2.0) {
        fail("server p50 " + format_real(server_p50) +
             " ms exceeds client p50 " + format_real(p50) + " ms");
    }

    std::cout << "  accepted      " << accepted << "/" << total_jobs
              << "\n  wall          " << format_real(wall_ms)
              << " ms\n  throughput    " << format_real(throughput)
              << " jobs/s\n  latency p50   " << format_real(p50)
              << " ms\n  latency p95   " << format_real(p95)
              << " ms\n  latency p99   " << format_real(p99)
              << " ms\n  server p50    " << format_real(server_p50)
              << " ms (" << static_cast<std::size_t>(served_jobs.value())
              << " jobs scraped)\n  solo-vs-served identical for "
              << mix.size() << " distinct specs\n";

    std::ofstream json(json_path);
    if (json) {
        json << "{\"jobs\":" << total_jobs
             << ",\"clients\":" << num_clients
             << ",\"workers\":" << num_workers
             << ",\"wall_ms\":" << format_real(wall_ms)
             << ",\"throughput_per_s\":" << format_real(throughput)
             << ",\"p50_ms\":" << format_real(p50)
             << ",\"p95_ms\":" << format_real(p95)
             << ",\"p99_ms\":" << format_real(p99) << "}\n";
    }
    return 0;
}
