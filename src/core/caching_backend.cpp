#include "core/caching_backend.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/registry.hpp"
#include "common/text.hpp"

namespace cafqa {

namespace {

inline std::int64_t
bits_of(double value)
{
    // Canonicalize -0.0 so it shares the entry of +0.0.
    if (value == 0.0) {
        value = 0.0;
    }
    return std::bit_cast<std::int64_t>(value);
}

/** How `point_prefix` stores a point; part of the key's tag word. */
enum class PointEncoding : std::uint64_t
{
    /** Discrete steps in [0, 256), one byte each, eight to a word. */
    PackedSteps = 0,
    /** Discrete steps, one word each (some step is outside [0, 256)). */
    WideSteps = 1,
    /** Continuous parameters as their exact bit patterns. */
    ParamBits = 2,
};

/**
 * Key prefix of a point: one tag word holding the point length and the
 * encoding; the configuration salt when the cache is shared across
 * configurations; then the point. Step 8k + j of a packed point is byte
 * j of word k. The tag fixes how many words the point takes, so the key
 * length tells whether a salt is present, and each encoding is
 * injective at a fixed length: distinct points never share a key.
 */
template <typename Point>
EvaluationCache::Key
point_prefix(const Point& point, std::uint64_t salt)
{
    PointEncoding encoding = PointEncoding::ParamBits;
    if constexpr (std::is_same_v<Point, std::vector<int>>) {
        const bool bytes = std::all_of(point.begin(), point.end(),
                                       [](int step) {
                                           return step >= 0 && step < 256;
                                       });
        encoding =
            bytes ? PointEncoding::PackedSteps : PointEncoding::WideSteps;
    }
    const std::uint64_t tag = std::uint64_t{point.size()} |
                              (static_cast<std::uint64_t>(encoding) << 32);

    EvaluationCache::Key key;
    key.push_back(static_cast<std::int64_t>(tag));
    if (salt != 0) {
        key.push_back(static_cast<std::int64_t>(salt));
    }
    if (encoding == PointEncoding::PackedSteps) {
        for (std::size_t i = 0; i < point.size(); i += 8) {
            std::uint64_t word = 0;
            for (std::size_t j = 0; j < 8 && i + j < point.size(); ++j) {
                word |= static_cast<std::uint64_t>(point[i + j]) << (8 * j);
            }
            key.push_back(static_cast<std::int64_t>(word));
        }
        return key;
    }
    for (const auto p : point) {
        if constexpr (std::is_same_v<Point, std::vector<int>>) {
            key.push_back(p);
        } else {
            key.push_back(std::bit_cast<std::int64_t>(p));
        }
    }
    return key;
}

} // namespace

std::size_t
observable_hash(const PauliSum& op)
{
    std::size_t h = hash_mix(0x243f6a8885a308d3ull, op.num_qubits());
    for (const PauliTerm& term : op.terms()) {
        h = hash_mix(h, static_cast<std::uint64_t>(
                            bits_of(term.coefficient.real())));
        h = hash_mix(h, static_cast<std::uint64_t>(
                            bits_of(term.coefficient.imag())));
        h = hash_mix(h, term.string.letters_hash());
        h = hash_mix(h, term.string.phase_exponent());
    }
    return h;
}

// ---------------------------------------------------------------------------
// EvaluationCache

std::string
CacheStats::to_json() const
{
    std::string out = "{";
    const auto field = [&out](const char* name, const std::string& value) {
        if (out.size() > 1) {
            out += ",";
        }
        out += json_quote(name) + ":" + value;
    };
    field("hits", std::to_string(hits));
    field("misses", std::to_string(misses));
    field("evictions", std::to_string(evictions));
    field("entries", std::to_string(entries));
    field("bytes", std::to_string(bytes));
    field("preparations", std::to_string(preparations));
    field("hit_rate", format_real(hit_rate()));
    out += "}";
    return out;
}

CacheCounters
CacheCounters::fetch()
{
    auto& registry = telemetry::MetricsRegistry::instance();
    return CacheCounters{
        registry.counter("cafqa_cache_hits_total", {},
                         "Evaluation-cache lookups answered from the cache"),
        registry.counter("cafqa_cache_misses_total", {},
                         "Evaluation-cache lookups that fell through to "
                         "the backend"),
        registry.counter("cafqa_cache_evictions_total", {},
                         "Evaluation-cache entries dropped by the LRU "
                         "bound"),
        registry.counter("cafqa_cache_preparations_total", {},
                         "State preparations wrapped backends actually "
                         "performed"),
    };
}

CacheStats
CacheCounters::totals() const
{
    CacheStats stats;
    stats.hits = hits.value();
    stats.misses = misses.value();
    stats.evictions = evictions.value();
    stats.preparations = preparations.value();
    return stats;
}

EvaluationCache::EvaluationCache(const CacheOptions& options)
    : capacity_(options.capacity),
      // Registered here, with no lock held; the per-access bumps below
      // run lock-free under the shard locks.
      metrics_(CacheCounters::fetch())
{
    CAFQA_REQUIRE(options.capacity >= 1,
                  "cache capacity must be at least 1 entry");
    // No more shards than capacity, so every shard can hold an entry.
    const std::size_t shards = std::min(kCacheShards, options.capacity);
    per_shard_capacity_ = (capacity_ + shards - 1) / shards;
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        shards_.push_back(std::make_unique<Shard>());
    }
}

std::size_t
EvaluationCache::hash_key(const Key& key)
{
    std::size_t h = kHashSeed;
    for (const std::int64_t word : key) {
        h = hash_mix(h, static_cast<std::uint64_t>(word));
    }
    return h;
}

std::optional<double>
EvaluationCache::lookup(const Key& key)
{
    const std::size_t hash = hash_key(key);
    Shard& shard = *shards_[hash % shards_.size()];
    MutexLock lock(shard.shard_mutex);
    const auto [begin, end] = shard.index.equal_range(hash);
    for (auto it = begin; it != end; ++it) {
        if (it->second->key == key) {
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            ++shard.hits;
            metrics_.hits.add();
            return it->second->value;
        }
    }
    ++shard.misses;
    metrics_.misses.add();
    return std::nullopt;
}

void
EvaluationCache::insert(const Key& key, double value)
{
    const std::size_t hash = hash_key(key);
    Shard& shard = *shards_[hash % shards_.size()];
    const std::size_t entry_bytes =
        key.size() * sizeof(Key::value_type) + sizeof(double);
    MutexLock lock(shard.shard_mutex);
    const auto [begin, end] = shard.index.equal_range(hash);
    for (auto it = begin; it != end; ++it) {
        if (it->second->key == key) {
            // Concurrent clones may race to insert the same point;
            // refresh recency and keep the materialized value.
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return;
        }
    }
    shard.lru.push_front(Entry{key, value});
    shard.index.emplace(hash, shard.lru.begin());
    shard.bytes += entry_bytes;
    while (shard.lru.size() > per_shard_capacity_) {
        const Entry& victim = shard.lru.back();
        const std::size_t victim_hash = hash_key(victim.key);
        const auto [vbegin, vend] = shard.index.equal_range(victim_hash);
        for (auto it = vbegin; it != vend; ++it) {
            if (it->second == std::prev(shard.lru.end())) {
                shard.index.erase(it);
                break;
            }
        }
        shard.bytes -= victim.key.size() * sizeof(Key::value_type) +
                       sizeof(double);
        shard.lru.pop_back();
        ++shard.evictions;
        metrics_.evictions.add();
    }
}

CacheStats
EvaluationCache::stats() const
{
    CacheStats total;
    for (const auto& shard : shards_) {
        MutexLock lock(shard->shard_mutex);
        total.hits += shard->hits;
        total.misses += shard->misses;
        total.evictions += shard->evictions;
        total.entries += shard->lru.size();
        total.bytes += shard->bytes;
    }
    total.preparations = preparations_.load();
    return total;
}

// ---------------------------------------------------------------------------
// CachingBackend

template <typename Base>
CachingBackend<Base>::CachingBackend(std::unique_ptr<Base> inner,
                                     std::shared_ptr<EvaluationCache> cache,
                                     std::uint64_t salt)
    : inner_(std::move(inner)), cache_(std::move(cache)), salt_(salt)
{
    CAFQA_REQUIRE(inner_ != nullptr, "cannot cache a null backend");
    CAFQA_REQUIRE(cache_ != nullptr, "cannot share a null cache");
}

template <typename Base>
void
CachingBackend<Base>::prepare(const Point& point)
{
    point_ = point;
    key_prefix_ = point_prefix(point, salt_);
    inner_prepared_ = false;
}

template <typename Base>
double
CachingBackend<Base>::expectation(const PauliSum& op) const
{
    return expectations(std::span<const PauliSum>(&op, 1))[0];
}

template <typename Base>
std::vector<double>
CachingBackend<Base>::expectations(std::span<const PauliSum> ops) const
{
    if (!point_) {
        // Propagate the inner backend's "not prepared" contract.
        return inner_->expectations(ops);
    }
    // One scratch key probes every observable; only misses copy it (the
    // full-hit path — the hot one — allocates nothing per op).
    std::vector<double> values(ops.size());
    std::vector<std::size_t> missing;
    std::vector<EvaluationCache::Key> miss_keys;
    EvaluationCache::Key key = key_prefix_;
    key.push_back(0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        key.back() = static_cast<std::int64_t>(observable_hash(ops[i]));
        if (const std::optional<double> hit = cache_->lookup(key)) {
            values[i] = *hit;
        } else {
            missing.push_back(i);
            miss_keys.push_back(key);
        }
    }
    if (!missing.empty()) {
        // One preparation amortized across every missing observable,
        // exactly like the wrapped backend's own batched surface.
        if (!inner_prepared_) {
            inner_->prepare(*point_);
            cache_->count_preparation();
            inner_prepared_ = true;
        }
        for (std::size_t m = 0; m < missing.size(); ++m) {
            values[missing[m]] = inner_->expectation(ops[missing[m]]);
            cache_->insert(miss_keys[m], values[missing[m]]);
        }
    }
    return values;
}

template <typename Base>
std::unique_ptr<Backend>
CachingBackend<Base>::clone() const
{
    auto copy = std::make_unique<CachingBackend>(
        downcast<Base>(inner_->clone(),
                       "backend clone changed the parameter domain"),
        cache_, salt_);
    copy->point_ = point_;
    copy->key_prefix_ = key_prefix_;
    // inner_prepared_ stays false: the fresh inner clone is prepared on
    // its first miss, whatever state *this is in.
    return copy;
}

template class CachingBackend<DiscreteBackend>;
template class CachingBackend<ContinuousBackend>;

// ---------------------------------------------------------------------------
// Composition helpers

std::unique_ptr<Backend>
wrap_with_cache(std::unique_ptr<Backend> backend,
                std::shared_ptr<EvaluationCache> cache, std::uint64_t salt)
{
    CAFQA_REQUIRE(backend != nullptr, "cannot cache a null backend");
    const std::string mismatch =
        "backend kind \"" + std::string(backend->kind()) +
        "\" is neither discrete nor continuous; cannot wrap it in a cache";
    if (backend->discrete()) {
        return std::make_unique<CachingDiscreteBackend>(
            downcast<DiscreteBackend>(std::move(backend), mismatch),
            std::move(cache), salt);
    }
    return std::make_unique<CachingContinuousBackend>(
        downcast<ContinuousBackend>(std::move(backend), mismatch),
        std::move(cache), salt);
}

std::optional<CacheStats>
cache_stats_of(const Backend& backend)
{
    if (const auto* discrete =
            dynamic_cast<const CachingDiscreteBackend*>(&backend)) {
        return discrete->cache_stats();
    }
    if (const auto* continuous =
            dynamic_cast<const CachingContinuousBackend*>(&backend)) {
        return continuous->cache_stats();
    }
    return std::nullopt;
}

} // namespace cafqa
