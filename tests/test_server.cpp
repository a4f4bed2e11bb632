/**
 * Job-server subsystem tests: line framing (partial reads, batched
 * messages, oversized-line rejection), request/event codecs and a
 * seeded mutation fuzz of them, the client-fair bounded queue, and
 * end-to-end socket flows — submit / result round trips,
 * cancel-mid-run, queue-full rejection, drain-flushes-everything
 * shutdown, served records equal to solo runs, and the single I/O
 * thread's guarantees (idle connections cost no thread, a client that
 * stops reading delays nobody else and its sent lines wait, and the
 * descriptor limit does not make the loop spin).
 */
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/batch_runner.hpp"
#include "server/client.hpp"
#include "server/job_queue.hpp"
#include "server/job_server.hpp"
#include "server/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace cafqa::server {
namespace {

// ------------------------------------------------------------- framing

TEST(LineFramer, SplitsPartialReads)
{
    LineFramer framer;
    std::vector<std::string> lines;
    EXPECT_TRUE(framer.feed("{\"op\":\"st", lines));
    EXPECT_TRUE(lines.empty());
    EXPECT_GT(framer.buffered(), 0u);
    EXPECT_TRUE(framer.feed("ats\"}\n", lines));
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "{\"op\":\"stats\"}");
    EXPECT_EQ(framer.buffered(), 0u);
}

TEST(LineFramer, ManyMessagesInOneRead)
{
    LineFramer framer;
    std::vector<std::string> lines;
    EXPECT_TRUE(framer.feed("a\nb\r\nc\nd", lines));
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "a");
    EXPECT_EQ(lines[1], "b"); // '\r' stripped
    EXPECT_EQ(lines[2], "c");
    EXPECT_EQ(framer.buffered(), 1u); // "d" awaits its newline
}

TEST(LineFramer, RejectsOversizedLines)
{
    LineFramer framer(8);
    std::vector<std::string> lines;
    EXPECT_TRUE(framer.feed("12345678\n", lines)); // exactly at bound
    ASSERT_EQ(lines.size(), 1u);
    // One byte over, split across reads: poisoned even before the
    // newline arrives.
    EXPECT_TRUE(framer.feed("12345", lines));
    EXPECT_FALSE(framer.feed("6789", lines));
    EXPECT_TRUE(framer.overflowed());
    // Poisoned framers reject everything afterwards.
    EXPECT_FALSE(framer.feed("x\n", lines));
    EXPECT_EQ(lines.size(), 1u);
}

// -------------------------------------------------------------- codecs

TEST(Protocol, ParsesEnvelopeSubmit)
{
    const Request request = parse_request(
        "{\"op\":\"submit\",\"id\":\"j1\","
        "\"spec\":\"problem=maxcut:ring-6 warmup=8\"}");
    EXPECT_EQ(request.op, Op::Submit);
    EXPECT_EQ(request.id, "j1");
    EXPECT_EQ(request.spec.problem, "maxcut:ring-6");
    EXPECT_EQ(request.spec.warmup, 8u);
}

TEST(Protocol, ParsesImplicitSubmit)
{
    // No "op": the whole line is a flat RunSpec.
    const Request request =
        parse_request("{\"problem\":\"tfim:chain-4?h=1\",\"seed\":3}");
    EXPECT_EQ(request.op, Op::Submit);
    EXPECT_TRUE(request.id.empty());
    EXPECT_EQ(request.spec.problem, "tfim:chain-4?h=1");
    EXPECT_EQ(request.spec.seed, 3u);
}

TEST(Protocol, ParsesControlOps)
{
    EXPECT_EQ(parse_request("{\"op\":\"stats\"}").op, Op::Stats);
    const Request cancel =
        parse_request("{\"op\":\"cancel\",\"id\":\"j9\"}");
    EXPECT_EQ(cancel.op, Op::Cancel);
    EXPECT_EQ(cancel.id, "j9");
    EXPECT_TRUE(parse_request("{\"op\":\"shutdown\"}").drain);
    EXPECT_FALSE(
        parse_request("{\"op\":\"shutdown\",\"mode\":\"now\"}").drain);
}

TEST(Protocol, RejectsBadRequests)
{
    EXPECT_THROW(parse_request("not json"), std::invalid_argument);
    EXPECT_THROW(parse_request("{\"op\":\"nope\"}"),
                 std::invalid_argument);
    EXPECT_THROW(parse_request("{\"op\":\"submit\"}"), // no spec
                 std::invalid_argument);
    EXPECT_THROW(parse_request("{\"op\":\"cancel\"}"), // no id
                 std::invalid_argument);
    EXPECT_THROW(
        parse_request("{\"op\":\"shutdown\",\"mode\":\"later\"}"),
        std::invalid_argument);
    // Duplicate fields are a protocol violation, not last-wins.
    EXPECT_THROW(
        parse_request("{\"op\":\"cancel\",\"id\":\"a\",\"id\":\"b\"}"),
        std::invalid_argument);
}

TEST(Protocol, EventRoundTrip)
{
    const Event accepted = parse_event(event_accepted("j1", 7));
    EXPECT_EQ(accepted.event, "accepted");
    EXPECT_EQ(accepted.id, "j1");
    EXPECT_EQ(accepted.queued, 7u);

    RunRecord record;
    record.spec = RunSpec::parse("problem=maxcut:ring-6");
    record.ok = true;
    record.best_objective = -1.5;
    const Event result = parse_event(event_result("j1", record));
    EXPECT_EQ(result.event, "result");
    // The embedded record is passed through byte for byte.
    EXPECT_EQ(result.record_json, record.to_json());

    ServerCounters counters;
    counters.submitted = 4;
    counters.completed = 3;
    counters.queued = 2;
    counters.workers = 8;
    counters.busy = 5;
    const Event stats = parse_event(event_stats(counters, CacheStats{}));
    EXPECT_EQ(stats.event, "stats");
    EXPECT_EQ(stats.counters.submitted, 4u);
    EXPECT_EQ(stats.counters.completed, 3u);
    // The occupancy side of the reply: without queued/workers/busy a
    // drained server and a wedged one look identical from outside.
    EXPECT_EQ(stats.counters.queued, 2u);
    EXPECT_EQ(stats.counters.workers, 8u);
    EXPECT_EQ(stats.counters.busy, 5u);
    EXPECT_FALSE(stats.cache_json.empty());
}

TEST(Protocol, MetricsRoundTrip)
{
    const Event metrics = parse_event(event_metrics(
        1722000000.5, "# TYPE cafqa_x counter\ncafqa_x 1\n",
        "{\"cafqa_x\":1}"));
    EXPECT_EQ(metrics.event, "metrics");
    EXPECT_EQ(metrics.prometheus,
              "# TYPE cafqa_x counter\ncafqa_x 1\n");
    EXPECT_EQ(metrics.snapshot_json, "{\"cafqa_x\":1}");
}

/** Apply one random edit to `line`: overwrite, insert, delete or
 *  duplicate a byte, or truncate. */
void
mutate(std::string& line, Rng& rng)
{
    const auto pick = [&rng](std::size_t size) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size)));
    };
    const auto byte = [&rng, &pick] {
        // Bias toward the bytes the grammars care about.
        static const std::string special = "{}[]\":,\\=?+ \t\r\n0-.eE";
        return rng.bernoulli(0.5)
                   ? special[pick(special.size() - 1)]
                   : static_cast<char>(rng.uniform_int(0, 255));
    };
    const std::size_t at = pick(line.size());
    switch (rng.uniform_int(0, 4)) {
      case 0:
        if (at < line.size()) {
            line[at] = byte();
        }
        break;
      case 1:
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), byte());
        break;
      case 2:
        if (at < line.size()) {
            line.erase(at, 1);
        }
        break;
      case 3:
        if (at < line.size()) {
            line.insert(at, line.substr(at, pick(line.size() - at)));
        }
        break;
      default:
        line.resize(at);
        break;
    }
}

TEST(Protocol, MutatedLinesParseOrThrow)
{
    RunRecord record;
    record.spec = RunSpec::parse("problem=maxcut:ring-6 warmup=4");
    record.ok = true;
    record.best_steps = {0, 1, 2, 3};
    const std::vector<std::string> corpus = {
        submit_line("j1", RunSpec::parse("problem=molecule:H2?bond=0.74 "
                                         "search=anneal warmup=8 seed=3")),
        cancel_line("j1"),
        stats_line(),
        metrics_line(),
        shutdown_line(true),
        shutdown_line(false),
        "{\"problem\":\"maxcut:ring-6\",\"warmup\":8,\"iterations\":8}",
        event_accepted("j1", 3),
        event_rejected("j1", "queue full"),
        event_result("j1", record),
        event_stats(ServerCounters{}, CacheStats{}),
        event_metrics(1.5, "cafqa_x 1\n", "{\"cafqa_x\":1}"),
        event_error("bad"),
        event_bye("drain"),
        // RunSpec text forms and problem keys: mutated keys such as
        // `maxcut:er-99999` are only parsed here, never built.
        RunSpec::parse("problem=molecule:H2?bond=0.74 label=h2 warmup=8 "
                       "iterations=8 seed=3 search=portfolio:anneal+random "
                       "hf-seed=1 warm-start=0,1,2,3 max-t=1 tune=20 "
                       "tune-backend=sampled tuner=spsa budget=64 "
                       "target-energy=-1.1 threads=2 cache=1 "
                       "cache-capacity=128 exact=0")
            .to_string(),
        record.spec.to_string(),
        "molecule:H2?bond=0.74&charge=0&spin=0",
        "maxcut:er-8?p=0.4&seed=9",
        "maxcut:ring-6?ansatz=qaoa&layers=2",
        "tfim:chain-5?h=0.7&j=1",
        "xxz:chain-5?delta=0.3",
    };
    // Every mutated line must parse or throw a std::exception, whatever
    // the bytes: a crash or hang in these parsers would take the server's
    // one I/O thread, and with it every connection, down.
    std::size_t parsed = 0;
    std::size_t refused = 0;
    const auto parse_or_throw = [&](const auto& parse) {
        try {
            parse();
            ++parsed;
        } catch (const std::exception&) {
            ++refused;
        }
    };
    Rng rng(0x5eed);
    for (int round = 0; round < 20'000; ++round) {
        std::string line = corpus[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1))];
        const auto edits = rng.uniform_int(1, 4);
        for (std::int64_t i = 0; i < edits; ++i) {
            mutate(line, rng);
        }
        // Frame it in random pieces, as a socket would deliver it.
        LineFramer framer;
        std::vector<std::string> lines;
        const std::string stream = line + "\n";
        for (std::size_t at = 0; at < stream.size();) {
            const auto piece = static_cast<std::size_t>(rng.uniform_int(1, 64));
            ASSERT_TRUE(
                framer.feed(std::string_view(stream).substr(at, piece), lines));
            at += piece;
        }
        for (const std::string& framed : lines) {
            parse_or_throw([&] {
                Request request = parse_request(framed);
                if (request.op == Op::Submit) {
                    request.spec.validate();
                }
            });
            parse_or_throw([&] { parse_event(framed); });
            parse_or_throw([&] { parse_flat_json_object(framed); });
            parse_or_throw([&] { RunSpec::parse(framed); });
            parse_or_throw([&] { problems::ProblemKey::parse(framed); });
        }
    }
    // Both outcomes occur: the mutations neither all miss nor all break
    // the grammars.
    EXPECT_GT(parsed, 1'000u);
    EXPECT_GT(refused, 1'000u);
}

// --------------------------------------------------------------- queue

Job
make_job(const std::string& client, const std::string& id)
{
    Job job;
    job.client = client;
    job.id = id;
    return job;
}

TEST(JobQueue, RoundRobinAcrossClients)
{
    JobQueue queue(16);
    // A floods first; B's two jobs must interleave, not wait out A.
    for (const char* id : {"a1", "a2", "a3"}) {
        EXPECT_EQ(queue.push(make_job("A", id)), Admit::Accepted);
    }
    for (const char* id : {"b1", "b2"}) {
        EXPECT_EQ(queue.push(make_job("B", id)), Admit::Accepted);
    }
    std::vector<std::string> order;
    for (std::size_t i = 0; i < 5; ++i) {
        order.push_back(queue.pop()->id);
    }
    EXPECT_EQ(order,
              (std::vector<std::string>{"a1", "b1", "a2", "b2", "a3"}));
}

TEST(JobQueue, BoundedAdmission)
{
    JobQueue queue(2);
    EXPECT_EQ(queue.push(make_job("A", "a1")), Admit::Accepted);
    EXPECT_EQ(queue.push(make_job("B", "b1")), Admit::Accepted);
    EXPECT_EQ(queue.push(make_job("C", "c1")), Admit::QueueFull);
    EXPECT_EQ(queue.size(), 2u);
    queue.pop();
    EXPECT_EQ(queue.push(make_job("C", "c1")), Admit::Accepted);
}

TEST(JobQueue, CloseDrainsThenSignalsExhaustion)
{
    JobQueue queue(4);
    queue.push(make_job("A", "a1"));
    queue.close();
    EXPECT_EQ(queue.push(make_job("A", "a2")), Admit::Draining);
    EXPECT_EQ(queue.pop()->id, "a1"); // queued work still drains
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(JobQueue, DrainNowFlushesEverythingFairly)
{
    JobQueue queue(8);
    queue.push(make_job("A", "a1"));
    queue.push(make_job("A", "a2"));
    queue.push(make_job("B", "b1"));
    const std::vector<Job> flushed = queue.drain_now();
    ASSERT_EQ(flushed.size(), 3u);
    EXPECT_EQ(flushed[0].id, "a1");
    EXPECT_EQ(flushed[1].id, "b1");
    EXPECT_EQ(flushed[2].id, "a2");
    EXPECT_EQ(queue.size(), 0u);
}

TEST(JobQueue, DepthGaugeSumsTheLiveQueues)
{
    // `cafqa_server_queue_depth` is one process-wide gauge: the jobs of
    // every live queue add up in it, and each way a job leaves a queue
    // (pop, drain_now, the queue's destruction) takes it back off.
    const auto depth = [] {
        return telemetry::find_prometheus_sample(
            telemetry::MetricsRegistry::instance().prometheus(),
            "cafqa_server_queue_depth");
    };
    auto first = std::make_unique<JobQueue>(8);
    JobQueue second(2);
    const std::optional<double> start = depth();
    ASSERT_TRUE(start.has_value());
    first->push(make_job("A", "a1"));
    first->push(make_job("B", "b1"));
    first->push(make_job("A", "a2"));
    second.push(make_job("C", "c1"));
    second.push(make_job("C", "c2"));
    EXPECT_EQ(second.push(make_job("C", "c3")), Admit::QueueFull);
    EXPECT_EQ(depth(), *start + 5.0);

    first->pop();
    EXPECT_EQ(depth(), *start + 4.0);
    EXPECT_EQ(second.drain_now().size(), 2u);
    EXPECT_EQ(depth(), *start + 2.0);
    second.close();
    EXPECT_EQ(second.push(make_job("C", "c4")), Admit::Draining);
    EXPECT_EQ(depth(), *start + 2.0);
    first.reset(); // two jobs still queued
    EXPECT_EQ(depth(), *start);
}

// --------------------------------------------------- end-to-end socket

/** Read events until `predicate` consumes one; collects everything by
 *  kind along the way. */
Event
read_until(BlockingClient& client, const std::string& kind,
           const std::string& id = "")
{
    for (;;) {
        const auto line = client.read_line();
        if (!line) {
            ADD_FAILURE() << "connection closed waiting for " << kind;
            return Event{};
        }
        const Event event = parse_event(*line);
        if (event.event == kind && (id.empty() || event.id == id)) {
            return event;
        }
    }
}

TEST(JobServerEndToEnd, SubmitResultRoundTrip)
{
    ServerOptions options;
    options.workers = 1;
    JobServer server(options);
    server.start();

    auto client = BlockingClient::connect_tcp("127.0.0.1", server.port());
    const RunSpec spec =
        RunSpec::parse("problem=maxcut:ring-6 warmup=4 iterations=4");
    client.send_line(submit_line("j1", spec));

    const Event accepted = read_until(client, "accepted", "j1");
    EXPECT_EQ(accepted.id, "j1");
    read_until(client, "started", "j1");
    const Event result = read_until(client, "result", "j1");
    EXPECT_NE(result.record_json.find("\"ok\":true"), std::string::npos);
    EXPECT_EQ(result.record_json.find("\"cancelled\""),
              std::string::npos);

    // Malformed request: request-level error event, connection lives.
    client.send_line("{\"op\":\"warp\"}");
    const Event error = read_until(client, "error");
    EXPECT_NE(error.message.find("unknown op"), std::string::npos);

    // Stats verb reports the counters, the occupancy view and the
    // process-wide cache counters. The result event is written before
    // the worker marks itself idle again, so poll briefly for busy to
    // settle.
    Event stats;
    for (int attempt = 0;; ++attempt) {
        client.send_line(stats_line());
        stats = read_until(client, "stats");
        if (stats.counters.busy == 0 || attempt >= 50) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(stats.counters.submitted, 1u);
    EXPECT_EQ(stats.counters.completed, 1u);
    EXPECT_EQ(stats.counters.queued, 0u);
    EXPECT_EQ(stats.counters.workers, 1u);
    EXPECT_EQ(stats.counters.busy, 0u);
    EXPECT_FALSE(stats.cache_json.empty());

    // Metrics verb: a Prometheus body plus a JSON snapshot covering
    // the server, queue and cache series. The process registry
    // accumulates across tests in this binary, so assertions are
    // presence + lower bounds, never exact totals.
    client.send_line(metrics_line());
    const Event metrics = read_until(client, "metrics");
    EXPECT_FALSE(metrics.prometheus.empty());
    EXPECT_FALSE(metrics.snapshot_json.empty());
    const auto sample = [&metrics](const std::string& series) {
        return cafqa::telemetry::find_prometheus_sample(
            metrics.prometheus, series);
    };
    const auto completed =
        sample("cafqa_server_jobs_completed_total");
    ASSERT_TRUE(completed.has_value());
    EXPECT_GE(*completed, 1.0);
    const auto submits =
        sample("cafqa_server_requests_total{verb=\"submit\"}");
    ASSERT_TRUE(submits.has_value());
    EXPECT_GE(*submits, 1.0);
    EXPECT_EQ(sample("cafqa_server_queue_depth"), 0.0);
    EXPECT_EQ(sample("cafqa_server_busy_workers"), 0.0);
    ASSERT_TRUE(sample("cafqa_cache_hits_total").has_value());
    ASSERT_TRUE(
        sample("cafqa_server_job_latency_ms_count").has_value());
    EXPECT_NE(metrics.snapshot_json.find(
                  "\"cafqa_server_job_latency_ms\""),
              std::string::npos);

    server.shutdown(true);
    server.wait();

    // After wait() every job has left the queue, so the queue-depth
    // gauge is back at 0.
    const std::string post =
        cafqa::telemetry::MetricsRegistry::instance().prometheus();
    EXPECT_EQ(cafqa::telemetry::find_prometheus_sample(
                  post, "cafqa_server_queue_depth"),
              0.0);
}

TEST(JobServerEndToEnd, RecordsMatchSoloRuns)
{
    ServerOptions options;
    options.workers = 1;
    JobServer server(options);
    server.start();

    // One spec per pipeline path.
    const std::vector<RunSpec> specs = {
        RunSpec::parse("problem=tfim:chain-4?h=1 warmup=4 iterations=4 "
                       "tune=4"),
        RunSpec::parse("problem=tfim:chain-4?h=1 warmup=4 iterations=4 "
                       "tune=4 tune-backend=density"),
        RunSpec::parse("problem=molecule:H2?bond=2.2 warmup=8 "
                       "iterations=8 max-t=1"),
        RunSpec::parse("problem=maxcut:ring-6 "
                       "search=portfolio:anneal+random budget=40 "
                       "warmup=8 iterations=8"),
        RunSpec::parse("problem=molecule:H2?bond=3.0 warmup=4 "
                       "iterations=4 warm-start=0,0,1,3,0,2,0,0"),
        RunSpec::parse("problem=maxcut:ring-6 search=tempering warmup=8 "
                       "iterations=8"),
        // One problem under two searches: the second job reads the
        // exact energy the first one left in the server's memo.
        RunSpec::parse("problem=tfim:chain-5?h=0.7 search=anneal "
                       "warmup=8 iterations=8"),
        RunSpec::parse("problem=tfim:chain-5?h=0.7 search=tempering "
                       "warmup=8 iterations=8"),
        // A T-boosted circuit that accepts its T gate, then tuned.
        RunSpec::parse("problem=molecule:H2?bond=2.2 search=anneal seed=0 "
                       "max-t=1 tune=20 warmup=30 iterations=30"),
        // A stochastic tune: no state a job leaves behind may reach its
        // shot noise.
        RunSpec::parse("problem=molecule:H2?bond=2.2 warmup=8 iterations=8 "
                       "tune=20 tune-backend=sampled"),
    };
    // Each spec twice: the repeat must not read anything the first run
    // left behind but the exact-energy memo.
    auto client = BlockingClient::connect_tcp("127.0.0.1", server.port());
    std::vector<std::string> served;
    for (std::size_t i = 0; i < 2 * specs.size(); ++i) {
        const std::string id = "s" + std::to_string(i);
        client.send_line(submit_line(id, specs[i % specs.size()]));
        served.push_back(read_until(client, "result", id).record_json);
    }
    server.shutdown(true);
    server.wait();

    // Byte-identical to the solo run except wall_ms (not
    // deterministic): compare around that one field.
    const auto strip = [](const std::string& json) {
        const std::size_t at = json.find("\"wall_ms\":");
        const std::size_t end = json.find_first_of(",}", at + 10);
        return json.substr(0, at) + json.substr(end + 1);
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].to_string());
        const std::string solo = strip(execute_run_spec(specs[i]).to_json());
        EXPECT_EQ(strip(served[i]), solo);
        EXPECT_EQ(strip(served[i + specs.size()]), solo);
    }
}

TEST(JobServerEndToEnd, ExactMemoSolvesEachProblemOnce)
{
    ServerOptions options;
    options.workers = 2;
    JobServer server(options);
    server.start();
    auto client = BlockingClient::connect_tcp("127.0.0.1", server.port());

    // The registry is process-wide and accumulates across tests: compare
    // the counts around the four jobs.
    const auto memo_counts = [&client] {
        client.send_line(metrics_line());
        const Event scrape = read_until(client, "metrics");
        const auto count = [&scrape](const std::string& result) {
            return cafqa::telemetry::find_prometheus_sample(
                       scrape.prometheus,
                       "cafqa_exact_memo_total{result=\"" + result + "\"}")
                .value_or(0.0);
        };
        return std::pair{count("miss"), count("hit")};
    };
    const auto [misses_before, hits_before] = memo_counts();
    for (int seed = 0; seed < 4; ++seed) {
        client.send_line(submit_line(
            "m" + std::to_string(seed),
            RunSpec::parse("problem=xxz:chain-5?delta=0.3 warmup=4 "
                           "iterations=4 seed=" + std::to_string(seed))));
    }
    // Two workers may finish out of order: take the results as they come.
    for (int job = 0; job < 4; ++job) {
        const Event result = read_until(client, "result");
        EXPECT_NE(result.record_json.find("\"exact_energy\""),
                  std::string::npos) << result.record_json;
    }
    const auto [misses_after, hits_after] = memo_counts();
    EXPECT_EQ(misses_after - misses_before, 1.0);
    EXPECT_EQ(hits_after - hits_before, 3.0);

    server.shutdown(true);
    server.wait();
}

TEST(JobServerEndToEnd, CancelMidRunKeepsBestSoFar)
{
    ServerOptions options;
    options.workers = 1;
    JobServer server(options);
    server.start();

    auto client = BlockingClient::connect_tcp("127.0.0.1", server.port());
    // A budget far beyond what could finish quickly: without the
    // cancel this would run for a very long time.
    client.send_line(submit_line(
        "big", RunSpec::parse("problem=maxcut:ring-8 search=anneal "
                              "warmup=50000 iterations=2000000")));
    read_until(client, "started", "big");
    client.send_line(cancel_line("big"));
    read_until(client, "cancelled", "big");
    const Event result = read_until(client, "result", "big");
    // Cooperative stop: the record still carries the best point found.
    EXPECT_NE(result.record_json.find("\"cancelled\":true"),
              std::string::npos);
    EXPECT_NE(result.record_json.find("\"stop_reason\":\"cancelled\""),
              std::string::npos);
    EXPECT_NE(result.record_json.find("\"ok\":true"), std::string::npos);

    // Cancelling an unknown id is an error event, not a crash.
    client.send_line(cancel_line("nope"));
    const Event error = read_until(client, "error");
    EXPECT_NE(error.message.find("unknown"), std::string::npos);

    server.shutdown(true);
    server.wait();
}

TEST(JobServerEndToEnd, CancelMidRunWithTBoostRequestedStaysClean)
{
    ServerOptions options;
    options.workers = 1;
    JobServer server(options);
    server.start();

    auto client = BlockingClient::connect_tcp("127.0.0.1", server.port());
    // max-t > 0 and the cancel lands in the (huge-budget) Clifford
    // stage, so the t-boost stage never runs — the record must still be
    // a best-so-far cancelled one, not a "run_t_boost() has not been
    // called" error record.
    client.send_line(submit_line(
        "boosted", RunSpec::parse("problem=maxcut:ring-8 search=anneal "
                                  "warmup=50000 iterations=2000000 "
                                  "max-t=2 tune=8")));
    read_until(client, "started", "boosted");
    client.send_line(cancel_line("boosted"));
    read_until(client, "cancelled", "boosted");
    const Event result = read_until(client, "result", "boosted");
    EXPECT_NE(result.record_json.find("\"ok\":true"), std::string::npos)
        << result.record_json;
    EXPECT_NE(result.record_json.find("\"cancelled\":true"),
              std::string::npos);
    EXPECT_EQ(result.record_json.find("has not been called"),
              std::string::npos)
        << result.record_json;

    server.shutdown(true);
    server.wait();
}

TEST(JobServerEndToEnd, QueueFullRejectsWithReason)
{
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 1;
    JobServer server(options);
    server.start();

    auto client = BlockingClient::connect_tcp("127.0.0.1", server.port());
    // One long job occupies the worker; the queue (capacity 1) takes
    // exactly one more; the third submit must bounce.
    client.send_line(submit_line(
        "running", RunSpec::parse("problem=maxcut:ring-8 search=anneal "
                                  "warmup=50000 iterations=2000000")));
    read_until(client, "started", "running");
    client.send_line(submit_line(
        "queued", RunSpec::parse("problem=maxcut:ring-6 warmup=4 "
                                 "iterations=4")));
    read_until(client, "accepted", "queued");
    client.send_line(submit_line(
        "bounced", RunSpec::parse("problem=maxcut:ring-6 warmup=4 "
                                  "iterations=4")));
    const Event rejected = read_until(client, "rejected", "bounced");
    EXPECT_EQ(rejected.reason, "queue full");

    // Duplicate ids of still-active jobs bounce too.
    client.send_line(submit_line(
        "queued", RunSpec::parse("problem=maxcut:ring-6")));
    const Event duplicate = read_until(client, "rejected", "queued");
    EXPECT_NE(duplicate.reason.find("duplicate"), std::string::npos);

    server.shutdown(false); // cancel the long job; don't wait it out
    server.wait();
}

TEST(JobServerEndToEnd, DrainFlushesAllRecordsThenSaysBye)
{
    ServerOptions options;
    options.workers = 1; // serialize so jobs really queue up
    JobServer server(options);
    server.start();

    auto client = BlockingClient::connect_tcp("127.0.0.1", server.port());
    std::vector<std::string> ids;
    for (std::size_t i = 1; i <= 4; ++i) {
        const std::string id = "d" + std::to_string(i);
        ids.push_back(id);
        client.send_line(submit_line(
            id, RunSpec::parse("problem=maxcut:ring-6 warmup=4 "
                               "iterations=4 seed=" +
                               std::to_string(i))));
    }
    client.send_line(shutdown_line(true));
    // The bye follows once the workers have drained the queue; run
    // wait() concurrently with the read loop below.
    std::thread waiter([&server] { server.wait(); });

    // Drain contract: every accepted job streams its record before the
    // bye, and nothing is marked cancelled.
    std::map<std::string, bool> resolved;
    for (;;) {
        const auto line = client.read_line();
        ASSERT_TRUE(line.has_value());
        const Event event = parse_event(*line);
        if (event.event == "result") {
            EXPECT_NE(event.record_json.find("\"ok\":true"),
                      std::string::npos);
            EXPECT_EQ(event.record_json.find("\"cancelled\""),
                      std::string::npos);
            resolved[event.id] = true;
        } else if (event.event == "bye") {
            EXPECT_EQ(event.reason, "drain");
            break;
        }
    }
    for (const std::string& id : ids) {
        EXPECT_TRUE(resolved[id]) << id << " never resolved";
    }
    EXPECT_FALSE(client.read_line().has_value()); // clean EOF after bye
    waiter.join();

    const ServerCounters counters = server.counters();
    EXPECT_EQ(counters.submitted, ids.size());
    EXPECT_EQ(counters.completed, ids.size());
}

TEST(JobServerEndToEnd, ShutdownNowCancelsQueuedJobs)
{
    ServerOptions options;
    options.workers = 1;
    JobServer server(options);
    server.start();

    auto client = BlockingClient::connect_tcp("127.0.0.1", server.port());
    client.send_line(submit_line(
        "long", RunSpec::parse("problem=maxcut:ring-8 search=anneal "
                               "warmup=50000 iterations=2000000")));
    read_until(client, "started", "long");
    client.send_line(submit_line(
        "waiting", RunSpec::parse("problem=maxcut:ring-6")));
    read_until(client, "accepted", "waiting");

    client.send_line(shutdown_line(false));
    // Both records flush (in either order): the in-flight one
    // cooperatively cancelled with its best-so-far, the queued one
    // cancelled before start.
    std::map<std::string, std::string> records;
    while (records.size() < 2) {
        const auto line = client.read_line();
        ASSERT_TRUE(line.has_value());
        const Event event = parse_event(*line);
        if (event.event == "result") {
            records[event.id] = event.record_json;
        }
    }
    EXPECT_NE(records["long"].find("\"cancelled\":true"),
              std::string::npos);
    EXPECT_NE(records["waiting"].find("\"cancelled\":true"),
              std::string::npos);
    EXPECT_NE(records["waiting"].find("cancelled before start"),
              std::string::npos);
    server.wait();
}

TEST(JobServerEndToEnd, UnixDomainSocketServes)
{
    ServerOptions options;
    options.workers = 1;
    options.unix_path = "/tmp/cafqa_test_server.sock";
    JobServer server(options);
    server.start();

    auto client = BlockingClient::connect_unix(options.unix_path);
    client.send_line(submit_line(
        "u1", RunSpec::parse("problem=maxcut:ring-6 warmup=4 "
                             "iterations=4")));
    const Event result = read_until(client, "result", "u1");
    EXPECT_NE(result.record_json.find("\"ok\":true"), std::string::npos);
    server.shutdown(true);
    server.wait();
}

TEST(JobServerEndToEnd, StalledClientCannotWedgeDrainShutdown)
{
    ServerOptions options;
    options.workers = 1;
    options.unix_path = "/tmp/cafqa_test_stall.sock";
    options.send_timeout_ms = 200;
    JobServer server(options);
    server.start();

    // A client that floods stats requests and never reads a byte: the
    // responses fill the fixed-size unix-socket buffers and the
    // reader's send stalls. The send timeout must drop the stalled
    // connection instead of blocking in it forever...
    auto client = BlockingClient::connect_unix(options.unix_path);
    try {
        for (int i = 0; i < 4000; ++i) {
            client.send_line(stats_line());
        }
    } catch (const std::exception&) {
        // The server already dropped the stalled connection mid-flood —
        // exactly the intended outcome; proceed to the shutdown check.
    }
    // ...so drain shutdown can still say bye and join every thread.
    // Without the timeout this wait() never returns.
    server.shutdown(true);
    server.wait();
}

/** Threads of this process (the test binary hosts the server). */
std::size_t
thread_count()
{
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        ++count;
    }
    return count;
}

TEST(JobServerEndToEnd, IdleConnectionsPinNoThreads)
{
    ServerOptions options;
    options.workers = 2;
    JobServer server(options);
    server.start();
    const RunSpec spec =
        RunSpec::parse("problem=maxcut:ring-6 warmup=4 iterations=4");
    {
        // Whatever a first job starts lazily belongs to the baseline.
        auto warm = BlockingClient::connect_tcp("127.0.0.1", server.port());
        warm.send_line(submit_line("warm", spec));
        read_until(warm, "result", "warm");
    }
    const std::size_t baseline = thread_count();

    std::vector<BlockingClient> idle;
    for (int i = 0; i < 64; ++i) {
        idle.push_back(BlockingClient::connect_tcp("127.0.0.1", server.port()));
    }
    // Accepted after the 64 idle ones, so its result shows the server
    // holds them all.
    auto client = BlockingClient::connect_tcp("127.0.0.1", server.port());
    client.send_line(submit_line("j65", spec));
    const Event result = read_until(client, "result", "j65");
    EXPECT_NE(result.record_json.find("\"ok\":true"), std::string::npos);
    EXPECT_LE(thread_count(), baseline);

    server.shutdown(true);
    server.wait();
}

TEST(JobServerEndToEnd, NonReadingClientCannotDelayOthers)
{
    ServerOptions options;
    options.workers = 1;
    options.unix_path = "/tmp/cafqa_test_nonreading.sock";
    options.send_timeout_ms = 3000;
    JobServer server(options);
    server.start();
    const RunSpec spec =
        RunSpec::parse("problem=maxcut:ring-6 warmup=4 iterations=4");

    {
        // Client A submits 400 jobs and reads nothing: their events
        // overflow its socket buffers long before the last job runs.
        auto flooder = BlockingClient::connect_unix(options.unix_path);
        std::thread flood([&flooder, &spec] {
            try {
                for (int i = 0; i < 400; ++i) {
                    flooder.send_line(
                        submit_line("a" + std::to_string(i), spec));
                }
            } catch (const std::exception& error) {
                ADD_FAILURE() << "the server stopped reading A: "
                              << error.what();
            }
        });
        // Wait until the worker has run all of A's jobs, or has made no
        // progress for 250 ms (it is stuck writing to A).
        std::uint64_t completed = 0;
        auto moved = std::chrono::steady_clock::now();
        while (completed < 400 &&
               std::chrono::steady_clock::now() - moved <
                   std::chrono::milliseconds(250)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            const std::uint64_t now_completed = server.counters().completed;
            if (now_completed != completed) {
                completed = now_completed;
                moved = std::chrono::steady_clock::now();
            }
        }

        // Client B's one job must not wait on A's socket.
        auto client = BlockingClient::connect_unix(options.unix_path);
        const auto submitted = std::chrono::steady_clock::now();
        client.send_line(submit_line("b", spec));
        const Event result = read_until(client, "result", "b");
        const double waited_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - submitted)
                .count();
        EXPECT_NE(result.record_json.find("\"ok\":true"), std::string::npos);
        EXPECT_LT(waited_ms, 1000.0);
        flood.join();
    } // A disconnects, so shutdown need not wait out its stall bound
    server.shutdown(true);
    server.wait();
}

/** Unix-socket client descriptor, or -1 when no descriptor is left
 *  or the connection fails. `rcvbuf` > 0 sets SO_RCVBUF first. */
int
connect_unix_fd(const std::string& path, int rcvbuf = 0)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        return -1;
    }
    if (rcvbuf > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, path.c_str(),
                 sizeof(address.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Sends `line` on `fd`; true when reply bytes arrive within
 *  `timeout_ms`. */
bool
answered(int fd, const std::string& line, int timeout_ms)
{
    const std::string out = line + "\n";
    if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(out.size())) {
        return false;
    }
    pollfd ready{fd, POLLIN, 0};
    return ::poll(&ready, 1, timeout_ms) == 1;
}

/** CPU seconds of this process, every thread included. */
double
process_cpu_seconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/** Body of `AcceptAtTheDescriptorLimitDoesNotSpin`, run in a child
 *  process because the descriptor limit is per process. Exits 0 when
 *  the server idles at the limit and accepts again once a client
 *  closes. */
[[noreturn]] void
serve_at_descriptor_limit(const std::string& path)
{
    rlimit limit{};
    ::getrlimit(RLIMIT_NOFILE, &limit);
    limit.rlim_cur = 48;
    ::setrlimit(RLIMIT_NOFILE, &limit);
    ServerOptions options;
    options.workers = 1;
    options.unix_path = path;
    JobServer server(options);
    server.start();

    // Clients connect one at a time, each answered before the next, so
    // no connection waits until the descriptors run out. The last one
    // then queues unaccepted and keeps the listen socket readable. A
    // spare descriptor makes sure a last connection fits.
    int spare = ::dup(STDERR_FILENO);
    std::vector<int> clients;
    int queued = -1;
    for (int i = 0; i < 30 && queued < 0; ++i) {
        int fd = connect_unix_fd(path);
        if (fd < 0 && spare >= 0) {
            ::close(spare);
            spare = -1;
            fd = connect_unix_fd(path);
        }
        if (fd < 0) {
            std::fprintf(stderr, "no descriptor for client %d\n", i);
            std::_Exit(2);
        }
        if (answered(fd, stats_line(), 500)) {
            clients.push_back(fd);
        } else {
            queued = fd;
        }
    }
    if (queued < 0 || clients.empty()) {
        std::fprintf(stderr, "30 clients never reached the limit\n");
        std::_Exit(3);
    }

    const double cpu_before = process_cpu_seconds();
    std::this_thread::sleep_for(std::chrono::seconds(2));
    const double spent = process_cpu_seconds() - cpu_before;
    if (spent >= 0.5) {
        std::fprintf(stderr, "%.2f s of CPU in 2 s idle at the limit\n",
                     spent);
        std::_Exit(4);
    }
    // A closing client frees a descriptor for the queued one, whose
    // stats request is then answered.
    ::close(clients.front());
    pollfd ready{queued, POLLIN, 0};
    if (::poll(&ready, 1, 2000) != 1) {
        std::fprintf(stderr, "the queued client was never accepted\n");
        std::_Exit(5);
    }
    std::_Exit(0);
}

TEST(JobServerEndToEnd, AcceptAtTheDescriptorLimitDoesNotSpin)
{
    // The child re-executes this binary for this test alone, so it
    // starts single-threaded with nothing else holding descriptors.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::string path = "/tmp/cafqa_test_fd_limit.sock";
    EXPECT_EXIT(serve_at_descriptor_limit(path),
                ::testing::ExitedWithCode(0), "");
    std::remove(path.c_str());
}

TEST(JobServerEndToEnd, ReadLinesWaitWhileTheirClientStopsReading)
{
    ServerOptions options;
    options.workers = 1;
    options.unix_path = "/tmp/cafqa_test_pipelined.sock";
    JobServer server(options);
    server.start();

    const std::string series =
        "cafqa_server_requests_total{verb=\"metrics\"}";
    const auto count_of = [&series](const std::string& prometheus) {
        return cafqa::telemetry::find_prometheus_sample(prometheus, series)
            .value_or(-1.0);
    };
    auto observer = BlockingClient::connect_unix(options.unix_path);
    const auto scrape = [&] {
        observer.send_line(metrics_line());
        return count_of(read_until(observer, "metrics").prometheus);
    };
    const double before = scrape();

    // 240 requests in one write of 4,080 bytes, so one server read
    // takes them all; the client reads nothing back.
    constexpr int kRequests = 240;
    const int fd = connect_unix_fd(options.unix_path, /*rcvbuf=*/4096);
    ASSERT_GE(fd, 0);
    std::string burst;
    for (int i = 0; i < kRequests; ++i) {
        burst += metrics_line() + "\n";
    }
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // Its replies back up after a few, and its remaining lines wait.
    const double handled = scrape() - before - 1.0;
    EXPECT_LT(handled, kRequests / 2.0);

    // Once it reads, every request is answered, in order: each reply
    // counts more metrics requests than the one before.
    LineFramer framer(std::size_t{1} << 24);
    std::vector<std::string> lines;
    char buffer[1 << 16];
    while (lines.size() < kRequests) {
        pollfd ready{fd, POLLIN, 0};
        ASSERT_EQ(::poll(&ready, 1, 5000), 1)
            << "only " << lines.size() << " replies arrived";
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        ASSERT_GT(n, 0);
        ASSERT_TRUE(framer.feed(
            std::string_view(buffer, static_cast<std::size_t>(n)), lines));
    }
    ::close(fd);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
    double last = before;
    for (const std::string& line : lines) {
        const Event event = parse_event(line);
        ASSERT_EQ(event.event, "metrics");
        const double count = count_of(event.prometheus);
        EXPECT_GT(count, last);
        last = count;
    }
    server.shutdown(true);
    server.wait();
}

TEST(JobServerEndToEnd, OverlongLineGetsErrorThenClose)
{
    ServerOptions options;
    options.workers = 1;
    options.max_line_bytes = 256;
    JobServer server(options);
    server.start();

    auto other = BlockingClient::connect_tcp("127.0.0.1", server.port());
    auto client = BlockingClient::connect_tcp("127.0.0.1", server.port());
    client.send_line(std::string(1000, 'x'));
    const Event error = read_until(client, "error");
    EXPECT_NE(error.message.find("exceeds 256 bytes"), std::string::npos);
    EXPECT_FALSE(client.read_line().has_value()); // then end of stream

    other.send_line(submit_line(
        "o1", RunSpec::parse("problem=maxcut:ring-6 warmup=4 "
                             "iterations=4")));
    const Event result = read_until(other, "result", "o1");
    EXPECT_NE(result.record_json.find("\"ok\":true"), std::string::npos);
    server.shutdown(true);
    server.wait();
}

TEST(JobServerEndToEnd, UnixPathRefusalAndStaleRecovery)
{
    const std::string path = "/tmp/cafqa_test_guard.sock";
    std::remove(path.c_str());

    // A pre-existing non-socket file is never unlinked.
    {
        std::ofstream(path) << "precious";
        ServerOptions options;
        options.unix_path = path;
        JobServer server(options);
        EXPECT_THROW(server.start(), std::runtime_error);
        std::ifstream check(path);
        std::string content;
        check >> content;
        EXPECT_EQ(content, "precious");
        std::remove(path.c_str());
    }

    // A socket another live server answers on is not hijacked.
    {
        ServerOptions options;
        options.unix_path = path;
        JobServer live(options);
        live.start();
        JobServer second(options);
        EXPECT_THROW(second.start(), std::runtime_error);
        live.shutdown(true);
        live.wait(); // unlinks the path on teardown
    }

    // A stale socket left behind by a crash is cleared and reused.
    {
        const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(stale, 0);
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        std::strncpy(address.sun_path, path.c_str(),
                     sizeof(address.sun_path) - 1);
        ASSERT_EQ(::bind(stale,
                         reinterpret_cast<const sockaddr*>(&address),
                         sizeof(address)),
                  0);
        ::close(stale); // bound but nobody listening: a stale path
        ServerOptions options;
        options.unix_path = path;
        JobServer server(options);
        server.start();
        server.shutdown(true);
        server.wait();
    }
}

} // namespace
} // namespace cafqa::server
