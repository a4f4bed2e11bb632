/**
 * @file
 * Lock-light process-wide telemetry: named counters, gauges and
 * log-bucketed latency histograms collected in a `MetricsRegistry`,
 * RAII `TraceSpan` timing scopes, and two exporters — Prometheus text
 * exposition and a flat-JSON snapshot (built on the `common/text`
 * helpers, so it parses with `parse_flat_json_object`).
 *
 * Hot-path contract: after the one-time registration lookup, every
 * `Counter::add` / `Gauge::set` / `Histogram::observe` is a relaxed
 * atomic RMW — counters are sharded across per-thread slots so two
 * threads bumping the same counter do not ping-pong a cache line — and
 * the shards are merged only on scrape. `metrics_mutex` is taken only
 * to register a metric or to scrape, and a scrape only reads atomics,
 * so `metrics_mutex` is a leaf of the lock order. Because of that
 * split, the one rule call sites must follow is: NEVER call the
 * registering accessors (`counter()`, `gauge()`, `histogram()`) while
 * holding another named `cafqa::Mutex` — fetch the references up
 * front (constructor, function entry before any lock) and keep them;
 * the recording calls themselves are lock-free and safe anywhere,
 * including under locks and inside signal-adjacent paths.
 *
 * `CAFQA_TELEMETRY_OFF=1` in the environment (or `set_enabled(false)`)
 * turns every recording call into one relaxed load and a branch; the
 * overhead microbench (`bench/telemetry_overhead.cpp`) pins both the
 * instrumented and the stubbed cost against a committed baseline.
 *
 * This directory is also the sanctioned home of wall-clock reads
 * (`wall_timestamp_seconds`): the `wall-clock-in-logic` lint rule
 * exempts exactly `src/telemetry/`, nothing else.
 */
#ifndef CAFQA_TELEMETRY_METRICS_HPP
#define CAFQA_TELEMETRY_METRICS_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_safety.hpp"

namespace cafqa::telemetry {

/** Label set of one series: (key, value) pairs. Stored and exported
 *  sorted by key, so label order at the call site never changes the
 *  series identity. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Global recording switch. Initialized once from the environment
 *  (`CAFQA_TELEMETRY_OFF=1` disables); flip at runtime with
 *  `set_enabled`. Scraping still works while disabled — the metrics
 *  simply stop moving. */
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/** Wall-clock UNIX timestamp in seconds (the one sanctioned
 *  `system_clock` read; everything that measures a *duration* uses
 *  `steady_clock`). */
double wall_timestamp_seconds();

/**
 * Monotonic counter. `add` hits one of `kSlots` cache-line-padded
 * per-thread-slot atomics (relaxed); `value` merges the slots. Exact
 * under any interleaving: every add lands in exactly one slot.
 */
class Counter
{
  public:
    static constexpr std::size_t kSlots = 16;

    Counter() = default;
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    void add(std::uint64_t n = 1) noexcept;
    std::uint64_t value() const noexcept;

  private:
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> value{0};
    };

    std::array<Slot, kSlots> slots_{};
};

/** Last-value gauge (queue depth, busy workers, resident bytes).
 *  `set` stores, `add` CAS-accumulates a signed delta. */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

    void set(double value) noexcept;
    void add(double delta) noexcept;
    double value() const noexcept;

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Log-bucketed histogram: 8 sub-buckets per power-of-two octave from
 * `kMinValue` up, plus an underflow and an overflow bucket. The
 * geometry bounds the relative quantile error at 2^(1/8) - 1 (~9%),
 * far inside the CI perf-gate tolerance band. `observe` is one bucket
 * index computation plus two relaxed RMWs (bucket count, running sum).
 */
class Histogram
{
  public:
    /** Sub-buckets per octave (bucket width ratio 2^(1/8)). */
    static constexpr std::size_t kSubBuckets = 8;
    /** Octaves covered: [kMinValue, kMinValue * 2^kOctaves). */
    static constexpr std::size_t kOctaves = 34;
    /** Smallest finite bucket boundary. In milliseconds that is 1ns;
     *  the units are whatever the caller observes. */
    static constexpr double kMinValue = 1e-6;
    /** Bucket count: underflow + log buckets + overflow. */
    static constexpr std::size_t kBuckets = kSubBuckets * kOctaves + 2;

    Histogram() = default;
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void observe(double value) noexcept;

    std::uint64_t count() const noexcept;
    double sum() const noexcept;

    /** Interpolated quantile estimate (q in [0, 1]; 0 with no
     *  samples). The estimate lands inside the bucket holding the
     *  nearest-rank sample, so its relative error against a sorted
     *  oracle is bounded by the bucket width ratio (~9%). */
    double percentile(double q) const noexcept;

    /** Bucket geometry — shared by the exporters and the oracle
     *  tests. `bucket_index` is boundary-exact: a value equal to a
     *  bucket's lower bound lands in that bucket. */
    static std::size_t bucket_index(double value) noexcept;
    static double bucket_lower(std::size_t index) noexcept;
    /** Upper bound; +infinity for the overflow bucket. */
    static double bucket_upper(std::size_t index) noexcept;

    /** Snapshot of the raw bucket counts (index -> count). */
    std::array<std::uint64_t, kBuckets> bucket_counts() const noexcept;

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
    std::atomic<double> sum_{0.0};
};

/**
 * RAII wall-time scope: measures `steady_clock` elapsed milliseconds
 * from construction and records them into `sink` on destruction (or
 * on an explicit `stop()`, which also returns the elapsed time — the
 * pipeline uses that to surface per-stage wall time on its observer
 * events). Timing always happens; only the histogram recording
 * respects the global enabled switch, so observer-visible timings do
 * not change when telemetry is off.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(Histogram& sink)
        : sink_(&sink), start_(std::chrono::steady_clock::now())
    {
    }

    ~TraceSpan() { stop(); }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

    /** Record once and return the elapsed milliseconds; idempotent
     *  (later calls return 0 and record nothing). */
    double stop() noexcept;

  private:
    Histogram* sink_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Named metric registry. `instance()` is the process-wide one every
 * subsystem reports into; fresh instances are constructible for
 * deterministic tests. Metric names follow the Prometheus grammar
 * (`[a-zA-Z_:][a-zA-Z0-9_:]*`); a name registered twice with
 * different types throws. Returned references stay valid for the
 * registry's lifetime: no series is ever removed, and the registry
 * holds nothing that points back into its callers, so it may outlive
 * every object that reports into it.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /** The process-wide registry. */
    static MetricsRegistry& instance();

    Counter& counter(const std::string& name, const Labels& labels = {},
                     const std::string& help = {})
        CAFQA_EXCLUDES(metrics_mutex_);
    Gauge& gauge(const std::string& name, const Labels& labels = {},
                 const std::string& help = {})
        CAFQA_EXCLUDES(metrics_mutex_);
    Histogram& histogram(const std::string& name,
                         const Labels& labels = {},
                         const std::string& help = {})
        CAFQA_EXCLUDES(metrics_mutex_);

    /** Prometheus text exposition (families sorted by name, series by
     *  label block; `# HELP`/`# TYPE` once per family; label values
     *  escaped per the exposition format). */
    std::string prometheus() const CAFQA_EXCLUDES(metrics_mutex_);

    /** Flat-JSON snapshot: one top-level field per series, keyed by
     *  the rendered series name (`name{k="v",...}`); counters as
     *  integers, gauges as shortest-round-trip reals, histograms as a
     *  nested `{"count":..,"sum":..,"p50":..,"p90":..,"p95":..,
     *  "p99":..}` object. Deterministic for a given metric state. */
    std::string json() const CAFQA_EXCLUDES(metrics_mutex_);

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Series
    {
        Labels labels; // sorted by key
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    struct Family
    {
        Kind kind = Kind::Counter;
        std::string help;
        /** Rendered label block -> series (ordered => deterministic
         *  exposition). */
        std::map<std::string, Series> series;
    };

    Family& family_locked(const std::string& name, Kind kind,
                          const std::string& help)
        CAFQA_REQUIRES(metrics_mutex_);
    Series& series_locked(Family& family, const Labels& labels)
        CAFQA_REQUIRES(metrics_mutex_);

    mutable Mutex metrics_mutex_{"metrics_mutex"};
    std::map<std::string, Family> families_
        CAFQA_GUARDED_BY(metrics_mutex_);
};

/** Render `name{k="v",...}` exactly as the exporters do (sorted keys,
 *  exposition-format escaping; bare `name` without labels) — the
 *  series key tests and scrapers look up. */
std::string render_series_name(const std::string& name,
                               const Labels& labels);

/** The value of sample `series` (exact rendered series name, labels
 *  included) in a Prometheus text body; nullopt when absent. */
std::optional<double>
find_prometheus_sample(const std::string& text, const std::string& series);

} // namespace cafqa::telemetry

#endif // CAFQA_TELEMETRY_METRICS_HPP
