#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "common/text.hpp"

namespace cafqa::telemetry {

namespace {

std::atomic<bool>&
enabled_flag()
{
    static std::atomic<bool> on{[] {
        const char* off = std::getenv("CAFQA_TELEMETRY_OFF");
        return off == nullptr || off[0] == '\0' || off == std::string("0");
    }()};
    return on;
}

/** Stable per-thread slot in [0, Counter::kSlots). */
std::size_t
thread_slot() noexcept
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % Counter::kSlots;
    return slot;
}

/** The log-bucket boundaries: boundary[i] = kMinValue * 2^(i/kSub),
 *  i in [0, kSub*kOctaves]. Bucket b in [1, kSub*kOctaves] covers
 *  [boundary[b-1], boundary[b]). */
const std::array<double, Histogram::kBuckets - 1>&
boundaries()
{
    static const std::array<double, Histogram::kBuckets - 1> table = [] {
        std::array<double, Histogram::kBuckets - 1> out{};
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = Histogram::kMinValue *
                     std::exp2(static_cast<double>(i) /
                               static_cast<double>(Histogram::kSubBuckets));
        }
        return out;
    }();
    return table;
}

void
atomic_add_double(std::atomic<double>& target, double delta) noexcept
{
    double seen = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(seen, seen + delta,
                                         std::memory_order_relaxed)) {
    }
}

bool
valid_metric_name(const std::string& name)
{
    if (name.empty()) {
        return false;
    }
    const auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name.front())) {
        return false;
    }
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return head(c) || (c >= '0' && c <= '9');
    });
}

/** Prometheus exposition escaping for label values: backslash, quote
 *  and newline. */
std::string
escape_label_value(const std::string& value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/** HELP text escaping: backslash and newline only. */
std::string
escape_help(const std::string& help)
{
    std::string out;
    out.reserve(help.size());
    for (const char c : help) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

Labels
sorted_labels(Labels labels)
{
    std::sort(labels.begin(), labels.end());
    return labels;
}

/** `{k="v",...}` over pre-sorted labels; "" when empty. An extra
 *  trailing label (`le` for histogram buckets) can be appended. */
std::string
label_block(const Labels& labels, const std::string& extra_key = {},
            const std::string& extra_value = {})
{
    if (labels.empty() && extra_key.empty()) {
        return {};
    }
    std::string out = "{";
    bool first = true;
    const auto append = [&](const std::string& key,
                            const std::string& value) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += key;
        out += "=\"";
        out += escape_label_value(value);
        out += '"';
    };
    for (const auto& [key, value] : labels) {
        append(key, value);
    }
    if (!extra_key.empty()) {
        append(extra_key, extra_value);
    }
    out += '}';
    return out;
}

/** A finite double rendered for exposition/JSON (a gauge can be set
 *  to junk; clamp it to 0 instead of emitting "nan"). */
std::string
render_real(double value)
{
    if (!std::isfinite(value)) {
        return "0";
    }
    return format_real(value);
}

} // namespace

bool
enabled() noexcept
{
    return enabled_flag().load(std::memory_order_relaxed);
}

void
set_enabled(bool on) noexcept
{
    enabled_flag().store(on, std::memory_order_relaxed);
}

double
wall_timestamp_seconds()
{
    // The sanctioned wall-clock read (see the file comment in
    // metrics.hpp); durations everywhere else use steady_clock.
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

void
Counter::add(std::uint64_t n) noexcept
{
    if (!enabled()) {
        return;
    }
    slots_[thread_slot()].value.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t
Counter::value() const noexcept
{
    std::uint64_t total = 0;
    for (const Slot& slot : slots_) {
        total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
}

void
Gauge::set(double value) noexcept
{
    if (!enabled()) {
        return;
    }
    value_.store(value, std::memory_order_relaxed);
}

void
Gauge::add(double delta) noexcept
{
    if (!enabled()) {
        return;
    }
    atomic_add_double(value_, delta);
}

double
Gauge::value() const noexcept
{
    return value_.load(std::memory_order_relaxed);
}

std::size_t
Histogram::bucket_index(double value) noexcept
{
    const auto& bounds = boundaries();
    if (!(value >= bounds.front())) {
        return 0; // underflow (negatives and NaN land here too)
    }
    if (value >= bounds.back()) {
        return kBuckets - 1; // overflow
    }
    const double octaves = std::log2(value / kMinValue);
    std::size_t index =
        1 + static_cast<std::size_t>(std::max(
                0.0, octaves * static_cast<double>(kSubBuckets)));
    index = std::min(index, kBuckets - 2);
    // log2 rounding can be off by one step at exact boundaries; the
    // table is the ground truth, so nudge until the invariant
    // bounds[index-1] <= value < bounds[index] holds.
    while (index > 1 && value < bounds[index - 1]) {
        --index;
    }
    while (index < kBuckets - 2 && value >= bounds[index]) {
        ++index;
    }
    return index;
}

double
Histogram::bucket_lower(std::size_t index) noexcept
{
    if (index == 0) {
        return 0.0;
    }
    return boundaries()[std::min(index, kBuckets - 1) - 1];
}

double
Histogram::bucket_upper(std::size_t index) noexcept
{
    if (index >= kBuckets - 1) {
        return std::numeric_limits<double>::infinity();
    }
    return boundaries()[index];
}

void
Histogram::observe(double value) noexcept
{
    if (!enabled()) {
        return;
    }
    counts_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    atomic_add_double(sum_, std::isfinite(value) ? value : 0.0);
}

std::uint64_t
Histogram::count() const noexcept
{
    std::uint64_t total = 0;
    for (const auto& bucket : counts_) {
        total += bucket.load(std::memory_order_relaxed);
    }
    return total;
}

double
Histogram::sum() const noexcept
{
    return sum_.load(std::memory_order_relaxed);
}

std::array<std::uint64_t, Histogram::kBuckets>
Histogram::bucket_counts() const noexcept
{
    std::array<std::uint64_t, kBuckets> out{};
    for (std::size_t i = 0; i < kBuckets; ++i) {
        out[i] = counts_[i].load(std::memory_order_relaxed);
    }
    return out;
}

double
Histogram::percentile(double q) const noexcept
{
    const auto snapshot = bucket_counts();
    std::uint64_t total = 0;
    for (const std::uint64_t n : snapshot) {
        total += n;
    }
    if (total == 0) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank (0-based) over the merged buckets; interpolate
    // linearly inside the bucket that holds the rank.
    const double rank = q * static_cast<double>(total - 1);
    const auto target = static_cast<std::uint64_t>(rank + 0.5);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (snapshot[b] == 0) {
            continue;
        }
        if (cumulative + snapshot[b] > target) {
            const double lower = bucket_lower(b);
            const double upper = bucket_upper(b);
            if (!std::isfinite(upper)) {
                return lower; // overflow bucket: best available bound
            }
            const double within =
                (static_cast<double>(target - cumulative) + 0.5) /
                static_cast<double>(snapshot[b]);
            return lower + (upper - lower) * within;
        }
        cumulative += snapshot[b];
    }
    return bucket_lower(kBuckets - 1);
}

double
TraceSpan::stop() noexcept
{
    if (sink_ == nullptr) {
        return 0.0;
    }
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    sink_->observe(elapsed_ms);
    sink_ = nullptr;
    return elapsed_ms;
}

MetricsRegistry&
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Family&
MetricsRegistry::family_locked(const std::string& name, Kind kind,
                               const std::string& help)
{
    CAFQA_REQUIRE(valid_metric_name(name),
                  "invalid metric name \"" + name + "\"");
    const auto [it, inserted] = families_.try_emplace(name);
    if (inserted) {
        it->second.kind = kind;
        it->second.help = help;
    } else {
        CAFQA_REQUIRE(it->second.kind == kind,
                      "metric \"" + name +
                          "\" already registered with a different type");
        if (it->second.help.empty() && !help.empty()) {
            it->second.help = help;
        }
    }
    return it->second;
}

MetricsRegistry::Series&
MetricsRegistry::series_locked(Family& family, const Labels& labels)
{
    Labels sorted = sorted_labels(labels);
    for (const auto& [key, value] : sorted) {
        CAFQA_REQUIRE(valid_metric_name(key),
                      "invalid label name \"" + key + "\"");
    }
    const auto [it, inserted] =
        family.series.try_emplace(label_block(sorted));
    if (inserted) {
        it->second.labels = std::move(sorted);
    }
    return it->second;
}

Counter&
MetricsRegistry::counter(const std::string& name, const Labels& labels,
                         const std::string& help)
{
    MutexLock lock(metrics_mutex_);
    Series& series =
        series_locked(family_locked(name, Kind::Counter, help), labels);
    if (!series.counter) {
        series.counter = std::make_unique<Counter>();
    }
    return *series.counter;
}

Gauge&
MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                       const std::string& help)
{
    MutexLock lock(metrics_mutex_);
    Series& series =
        series_locked(family_locked(name, Kind::Gauge, help), labels);
    if (!series.gauge) {
        series.gauge = std::make_unique<Gauge>();
    }
    return *series.gauge;
}

Histogram&
MetricsRegistry::histogram(const std::string& name, const Labels& labels,
                           const std::string& help)
{
    MutexLock lock(metrics_mutex_);
    Series& series =
        series_locked(family_locked(name, Kind::Histogram, help), labels);
    if (!series.histogram) {
        series.histogram = std::make_unique<Histogram>();
    }
    return *series.histogram;
}

std::string
MetricsRegistry::prometheus() const
{
    MutexLock lock(metrics_mutex_);
    std::string out;
    for (const auto& [name, family] : families_) {
        if (!family.help.empty()) {
            out += "# HELP " + name + " " + escape_help(family.help) + "\n";
        }
        out += "# TYPE " + name + " ";
        switch (family.kind) {
          case Kind::Counter: out += "counter"; break;
          case Kind::Gauge: out += "gauge"; break;
          case Kind::Histogram: out += "histogram"; break;
        }
        out += '\n';
        for (const auto& [block, series] : family.series) {
            if (series.counter) {
                out += name + block + " " +
                       std::to_string(series.counter->value()) + "\n";
            } else if (series.gauge) {
                out += name + block + " " +
                       render_real(series.gauge->value()) + "\n";
            } else if (series.histogram) {
                const auto counts = series.histogram->bucket_counts();
                std::uint64_t cumulative = 0;
                // The overflow bucket is folded into the mandatory
                // +Inf line below, never emitted on its own.
                for (std::size_t b = 0; b + 1 < Histogram::kBuckets;
                     ++b) {
                    if (counts[b] == 0) {
                        continue; // sparse: cumulative counts stay valid
                    }
                    cumulative += counts[b];
                    out += name + "_bucket" +
                           label_block(series.labels, "le",
                                       format_real(
                                           Histogram::bucket_upper(b))) +
                           " " + std::to_string(cumulative) + "\n";
                }
                cumulative += counts[Histogram::kBuckets - 1];
                out += name + "_bucket" +
                       label_block(series.labels, "le", "+Inf") + " " +
                       std::to_string(cumulative) + "\n";
                out += name + "_sum" + block + " " +
                       render_real(series.histogram->sum()) + "\n";
                out += name + "_count" + block + " " +
                       std::to_string(cumulative) + "\n";
            }
        }
    }
    return out;
}

std::string
MetricsRegistry::json() const
{
    MutexLock lock(metrics_mutex_);
    std::string out = "{";
    bool first = true;
    for (const auto& [name, family] : families_) {
        for (const auto& [block, series] : family.series) {
            if (!first) {
                out += ',';
            }
            first = false;
            out += json_quote(name + block) + ":";
            if (series.counter) {
                out += std::to_string(series.counter->value());
            } else if (series.gauge) {
                out += render_real(series.gauge->value());
            } else if (series.histogram) {
                const Histogram& h = *series.histogram;
                out += "{\"count\":" + std::to_string(h.count()) +
                       ",\"sum\":" + render_real(h.sum()) +
                       ",\"p50\":" + render_real(h.percentile(0.50)) +
                       ",\"p90\":" + render_real(h.percentile(0.90)) +
                       ",\"p95\":" + render_real(h.percentile(0.95)) +
                       ",\"p99\":" + render_real(h.percentile(0.99)) + "}";
            }
        }
    }
    out += '}';
    return out;
}

std::string
render_series_name(const std::string& name, const Labels& labels)
{
    return name + label_block(sorted_labels(labels));
}

std::optional<double>
find_prometheus_sample(const std::string& text, const std::string& series)
{
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            end = text.size();
        }
        const std::string_view line(text.data() + start, end - start);
        if (line.size() > series.size() + 1 &&
            line.substr(0, series.size()) == series &&
            line[series.size()] == ' ') {
            return parse_real_token(
                std::string(line.substr(series.size() + 1)));
        }
        start = end + 1;
    }
    return std::nullopt;
}

} // namespace cafqa::telemetry
