/**
 * Telemetry subsystem tests: counter exactness under contention, the
 * histogram's bounded quantile error against a sorted oracle, the
 * Prometheus exposition (escaping, family structure), snapshot
 * determinism, TraceSpan recording, and the global disable switch.
 */
#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "telemetry/metrics.hpp"

using namespace cafqa;
using namespace cafqa::telemetry;

namespace {

/** Exact nearest-rank-with-interpolation percentile over a copy. */
double
oracle_percentile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double t = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * t;
}

/** Relative quantile error bound: one bucket width each side, i.e.
 *  2^(1/8) - 1 (~9.05%), padded slightly for interpolation at the
 *  oracle's rank boundaries. */
constexpr double kQuantileSlack = 0.10;

} // namespace

TEST(Counter, ConcurrentAddsAreExact)
{
    Counter counter;
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 100000;
    // lint:allow(raw-thread) contention test needs unmanaged threads
    // hammering one counter; the pool would serialize the interesting
    // interleavings away.
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                counter.add();
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(counter.value(), kThreads * kPerThread)
        << "per-thread-slot sharding must lose no increment";
}

TEST(Counter, BulkAddAccumulates)
{
    Counter counter;
    counter.add(7);
    counter.add(0);
    counter.add(35);
    EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SetAndSignedAdd)
{
    Gauge gauge;
    gauge.set(10.0);
    gauge.add(-3.5);
    gauge.add(1.0);
    EXPECT_DOUBLE_EQ(gauge.value(), 7.5);
}

TEST(Histogram, PercentilesTrackSortedOracle)
{
    Histogram histogram;
    Rng rng(2026);
    std::vector<double> values;
    values.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform over ~6 decades: exercises many octaves the way
        // real latency distributions do.
        const double value = std::pow(10.0, rng.uniform_real(-3.0, 3.0));
        values.push_back(value);
        histogram.observe(value);
    }
    EXPECT_EQ(histogram.count(), values.size());
    for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
        const double oracle = oracle_percentile(values, q);
        const double estimate = histogram.percentile(q);
        EXPECT_NEAR(estimate, oracle, oracle * kQuantileSlack)
            << "q=" << q;
    }
}

TEST(Histogram, BucketBoundariesAreExact)
{
    // A value equal to a bucket's lower bound must land in that bucket
    // (half-open buckets), and the geometry helpers must agree with
    // the indexer at every boundary.
    for (std::size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
        const double lower = Histogram::bucket_lower(b);
        EXPECT_EQ(Histogram::bucket_index(lower), b)
            << "lower bound of bucket " << b;
        EXPECT_GT(Histogram::bucket_upper(b), lower);
    }
    // Underflow and overflow.
    EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
    EXPECT_EQ(Histogram::bucket_index(Histogram::kMinValue / 2.0), 0u);
    EXPECT_EQ(Histogram::bucket_index(1e30),
              Histogram::kBuckets - 1);
    EXPECT_TRUE(std::isinf(
        Histogram::bucket_upper(Histogram::kBuckets - 1)));
}

TEST(Histogram, BoundaryObservationsCountOnce)
{
    Histogram histogram;
    const double boundary = Histogram::bucket_lower(17);
    histogram.observe(boundary);
    const auto counts = histogram.bucket_counts();
    EXPECT_EQ(counts[17], 1u);
    EXPECT_EQ(histogram.count(), 1u);
    EXPECT_DOUBLE_EQ(histogram.sum(), boundary);
}

TEST(TraceSpan, RecordsOnceAndIsIdempotent)
{
    Histogram histogram;
    {
        TraceSpan span(histogram);
        const double elapsed = span.stop();
        EXPECT_GE(elapsed, 0.0);
        EXPECT_EQ(span.stop(), 0.0) << "second stop records nothing";
    }
    EXPECT_EQ(histogram.count(), 1u)
        << "destructor after stop() must not double-record";
}

TEST(TraceSpan, DestructorRecords)
{
    Histogram histogram;
    {
        TraceSpan span(histogram);
    }
    EXPECT_EQ(histogram.count(), 1u);
}

TEST(Registry, RegistrationIsIdempotentPerSeries)
{
    MetricsRegistry registry;
    Counter& a = registry.counter("cafqa_test_total", {{"k", "v"}});
    Counter& b = registry.counter("cafqa_test_total", {{"k", "v"}});
    EXPECT_EQ(&a, &b) << "same name+labels is the same series";
    Counter& c = registry.counter("cafqa_test_total", {{"k", "w"}});
    EXPECT_NE(&a, &c);
    // Label order at the call site never changes series identity.
    Counter& d = registry.counter("cafqa_multi_total",
                                  {{"b", "2"}, {"a", "1"}});
    Counter& e = registry.counter("cafqa_multi_total",
                                  {{"a", "1"}, {"b", "2"}});
    EXPECT_EQ(&d, &e);
}

TEST(Registry, KindConflictThrows)
{
    MetricsRegistry registry;
    registry.counter("cafqa_conflict");
    EXPECT_THROW(registry.gauge("cafqa_conflict"), std::exception);
    EXPECT_THROW(registry.histogram("cafqa_conflict"), std::exception);
}

TEST(Registry, PrometheusEscapesLabelValues)
{
    MetricsRegistry registry;
    registry.counter("cafqa_escape_total",
                     {{"path", "a\\b"}, {"quote", "say \"hi\""},
                      {"nl", "line1\nline2"}})
        .add(3);
    const std::string text = registry.prometheus();
    EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos)
        << "backslash must be doubled:\n" << text;
    EXPECT_NE(text.find("quote=\"say \\\"hi\\\"\""), std::string::npos)
        << "quotes must be escaped:\n" << text;
    EXPECT_NE(text.find("nl=\"line1\\nline2\""), std::string::npos)
        << "newline must become \\n:\n" << text;
    // The exposition body itself must stay one-sample-per-line: no
    // raw newline inside a label value.
    const std::string series = render_series_name(
        "cafqa_escape_total", {{"path", "a\\b"}, {"quote", "say \"hi\""},
                               {"nl", "line1\nline2"}});
    const std::optional<double> sample =
        find_prometheus_sample(text, series);
    ASSERT_TRUE(sample.has_value());
    EXPECT_DOUBLE_EQ(*sample, 3.0);
}

TEST(Registry, PrometheusStructure)
{
    MetricsRegistry registry;
    registry.counter("cafqa_reqs_total", {{"verb", "a"}}, "Requests").add(1);
    registry.counter("cafqa_reqs_total", {{"verb", "b"}}, "Requests").add(2);
    registry.histogram("cafqa_lat_ms", {}, "Latency").observe(1.0);
    const std::string text = registry.prometheus();
    // HELP/TYPE exactly once per family.
    const auto count_of = [&text](const std::string& needle) {
        std::size_t n = 0;
        for (std::size_t at = text.find(needle); at != std::string::npos;
             at = text.find(needle, at + 1)) {
            ++n;
        }
        return n;
    };
    EXPECT_EQ(count_of("# HELP cafqa_reqs_total"), 1u);
    EXPECT_EQ(count_of("# TYPE cafqa_reqs_total counter"), 1u);
    EXPECT_EQ(count_of("# TYPE cafqa_lat_ms histogram"), 1u);
    EXPECT_EQ(count_of("le=\"+Inf\""), 1u)
        << "exactly one +Inf bucket line";
    EXPECT_EQ(find_prometheus_sample(text, "cafqa_lat_ms_count"), 1.0);
    EXPECT_EQ(find_prometheus_sample(text, "cafqa_lat_ms_sum"), 1.0);
    EXPECT_EQ(
        find_prometheus_sample(text, "cafqa_reqs_total{verb=\"b\"}"),
        2.0);
}

TEST(Registry, SnapshotsAreDeterministic)
{
    // Two fresh registries fed the identical seeded workload must
    // render byte-identical exports (ordering is by sorted family and
    // label block, never insertion or address order).
    const auto run = [](MetricsRegistry& registry) {
        Rng rng(77);
        Counter& hits = registry.counter("cafqa_hits_total",
                                         {{"shard", "0"}}, "Hits");
        Gauge& depth = registry.gauge("cafqa_depth", {}, "Depth");
        Histogram& wait =
            registry.histogram("cafqa_wait_ms", {}, "Wait");
        for (int i = 0; i < 500; ++i) {
            hits.add(static_cast<std::uint64_t>(
                rng.uniform_int(0, 3)));
            depth.set(static_cast<double>(rng.uniform_int(0, 64)));
            wait.observe(std::pow(10.0, rng.uniform_real(-2.0, 2.0)));
        }
    };
    MetricsRegistry first;
    MetricsRegistry second;
    run(first);
    run(second);
    EXPECT_EQ(first.prometheus(), second.prometheus());
    EXPECT_EQ(first.json(), second.json());
    // And the snapshot itself is stable across repeated scrapes.
    EXPECT_EQ(first.json(), first.json());
}

TEST(Enabled, DisabledRecordingIsANoOp)
{
    ASSERT_TRUE(enabled()) << "tests assume the default-on switch";
    Counter counter;
    Gauge gauge;
    Histogram histogram;
    set_enabled(false);
    counter.add(5);
    gauge.set(1.0);
    histogram.observe(1.0);
    {
        TraceSpan span(histogram);
        EXPECT_GE(span.stop(), 0.0)
            << "spans still time while disabled";
    }
    set_enabled(true);
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
    EXPECT_EQ(histogram.count(), 0u);
    counter.add(2);
    EXPECT_EQ(counter.value(), 2u) << "re-enabling resumes recording";
}
