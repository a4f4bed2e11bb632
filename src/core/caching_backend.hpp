/**
 * @file
 * Memoizing evaluation cache for the backend hierarchy — the "cached
 * wrapper" extension point reserved by `core/backend_registry.hpp`.
 *
 * CAFQA's search stages re-probe the same points constantly (Bayesian
 * warm-up draws, annealing re-visits, the tuner's repeated energy
 * calls), and each probe pays a full state preparation plus one
 * expectation per observable. `CachingBackend<Base>` (aliased as
 * `CachingDiscreteBackend` / `CachingContinuousBackend`) wraps any
 * concrete backend of either domain and memoizes
 * `(prepared point, observable) -> expectation value` so a re-visited
 * point skips both the preparation and the measurement.
 *
 * Keys are canonical: discrete points key on the exact quarter-turn
 * step vector (the same identity `ConfigSet` uses for sample
 * deduplication), continuous points on the parameter vector quantized
 * to `CacheOptions::resolution`; the observable is identified by a
 * structural hash over its terms. Storage is a sharded LRU — each
 * shard has its own mutex, so per-worker backend clones produced by
 * `clone()` SHARE the cache and hit each other's entries without
 * serializing on one lock. `CacheStats` (hits / misses / evictions /
 * bytes / state preparations) is aggregated across shards and surfaced
 * through the pipeline observer (`PipelineEvent::cache` on StageEnd).
 *
 * Construction is compositional: `make_backend` wraps automatically for
 * kind `"cached:<kind>"` or whenever `BackendConfig::cache.enabled` is
 * set. Caching a *stochastic* backend ("sampled") freezes the shot
 * noise of the first evaluation of each point — by design, the cache
 * returns materialized results verbatim.
 */
#ifndef CAFQA_CORE_CACHING_BACKEND_HPP
#define CAFQA_CORE_CACHING_BACKEND_HPP

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.hpp"
#include "core/backend.hpp"
#include "telemetry/metrics.hpp"

namespace cafqa {

/** Cache controls; embedded in `BackendConfig` and `PipelineConfig`. */
struct CacheOptions
{
    /** Master switch (the `"cached:"` kind prefix sets it implicitly). */
    bool enabled = false;
    /** Target resident entries. The bound is enforced per shard with
     *  the capacity split rounded up, so the true global limit is
     *  ceil(capacity / shards) * shards — up to `shards - 1` entries
     *  above this value. */
    std::size_t capacity = std::size_t{1} << 16;
    /** Lock shards; more shards = less contention under fan-out. */
    std::size_t shards = 8;
    /** Quantization step for continuous parameter keys: params within
     *  one step of each other share an entry. The default is far below
     *  any optimizer's step size, so caching stays exact in practice. */
    double resolution = 1e-12;
    /** When set, `CafqaPipeline` flips
     *  `StoppingCriteria::unique_evaluations` for its stages so budgets
     *  count unique points (re-visits are cache hits, not progress).
     *  Off by default: the default cache is a pure memoizer and the
     *  search trajectory stays bit-identical to the uncached run. */
    bool unique_budget = false;
};

/** Aggregate counters of one cache (shared by every clone). */
struct CacheStats
{
    /** Lookups answered from the cache. */
    std::size_t hits = 0;
    /** Lookups that fell through to the wrapped backend. */
    std::size_t misses = 0;
    /** Entries dropped by the LRU capacity bound. */
    std::size_t evictions = 0;
    /** Currently resident entries. */
    std::size_t entries = 0;
    /** Approximate resident key+value payload size. */
    std::size_t bytes = 0;
    /** State preparations the wrapped backend actually performed —
     *  the "backend evaluations" a bench compares against an uncached
     *  run (preparation is skipped entirely on a full hit). */
    std::size_t preparations = 0;

    double
    hit_rate() const
    {
        const std::size_t lookups = hits + misses;
        return lookups == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(lookups);
    }

    /** One flat JSON object ({"hits":..,"misses":..,...,"hit_rate":..})
     *  — shared by the job server's `stats` verb and the CLI's
     *  `--trace` output. */
    std::string to_json() const;
};

/**
 * Thread-safe sharded LRU mapping `(point key, observable hash)` to an
 * expectation value. One instance is shared (via `shared_ptr`) by a
 * wrapper and all of its clones, which is what makes the pipeline's
 * per-worker fan-out hit a common cache.
 */
class EvaluationCache
{
  public:
    /** Quantized point coordinates with the observable hash appended.
     *  Lookup compares the whole vector, so two distinct *points* can
     *  never alias; the observable component is a 64-bit structural
     *  hash (`observable_hash`), so distinct observables alias only on
     *  a full 64-bit collision — negligible against the entry counts a
     *  search produces. */
    using Key = std::vector<std::int64_t>;

    /** Throws std::invalid_argument on a zero capacity or shard count. */
    explicit EvaluationCache(const CacheOptions& options);

    /** Value for `key`, refreshing its LRU position; nullopt on miss.
     *  Counts one hit or miss. */
    std::optional<double> lookup(const Key& key);

    /** Insert (or refresh) `key`; evicts the shard's least-recently-used
     *  entry when the shard is at capacity. */
    void insert(const Key& key, double value);

    /** Count one state preparation performed by a wrapped backend. */
    void
    count_preparation()
    {
        preparations_.fetch_add(1);
        preparations_metric_.add();
    }

    /** Snapshot of the aggregate counters. */
    CacheStats stats() const;

    std::size_t capacity() const { return capacity_; }

    /** The options the cache was built with (wrappers sharing the cache
     *  pull the quantization resolution from here, so every user of one
     *  cache agrees on the continuous-point identity). */
    const CacheOptions& options() const { return options_; }

    /** Stable mix over the key words (the shard selector). */
    static std::size_t hash_key(const Key& key);

  private:
    struct Entry
    {
        Key key;
        double value = 0.0;
    };

    struct Shard
    {
        mutable Mutex shard_mutex{"shard_mutex"};
        /** Front = most recently used. */
        std::list<Entry> lru CAFQA_GUARDED_BY(shard_mutex);
        /** Hash -> LRU slot; a multimap so (unlikely) hash collisions
         *  between distinct keys stay individually addressable. The
         *  stored iterators point into `lru`, itself guarded by
         *  `shard_mutex`, so guarding the map transitively covers
         *  every pointee (the pointer-indirect analogue of
         *  `CAFQA_PT_GUARDED_BY`, which clang only accepts on raw and
         *  smart pointers). */
        std::unordered_multimap<std::size_t, std::list<Entry>::iterator>
            index CAFQA_GUARDED_BY(shard_mutex);
        std::size_t hits CAFQA_GUARDED_BY(shard_mutex) = 0;
        std::size_t misses CAFQA_GUARDED_BY(shard_mutex) = 0;
        std::size_t evictions CAFQA_GUARDED_BY(shard_mutex) = 0;
        std::size_t bytes CAFQA_GUARDED_BY(shard_mutex) = 0;
    };

    CacheOptions options_;
    std::size_t capacity_ = 0;
    std::size_t per_shard_capacity_ = 0;
    /** Process-registry mirrors of the monotonic `CacheStats` counters
     *  (`cafqa_cache_*_total`), fetched in the constructor — never
     *  under a shard lock; the bumps themselves are lock-free, so
     *  counting under `shard_mutex` is fine. All `EvaluationCache`
     *  instances in the process share these series. */
    telemetry::Counter& hits_metric_;
    telemetry::Counter& misses_metric_;
    telemetry::Counter& evictions_metric_;
    telemetry::Counter& preparations_metric_;
    /** Sized once in the constructor, structurally immutable after —
     *  no `CAFQA_PT_GUARDED_BY` applies because each pointee carries
     *  its OWN capability (`Shard::shard_mutex`); all mutable shard
     *  state is guarded field-by-field inside the Shard. */
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::size_t> preparations_{0};
};

/** Structural hash of an observable: qubit count, term letters and
 *  coefficient bit patterns. Two `PauliSum`s with identical terms share
 *  cache entries regardless of object identity. */
std::size_t observable_hash(const PauliSum& op);

/**
 * Memoizing decorator over a backend of either parameter domain:
 * `Base` is `DiscreteBackend` (points key on the exact step vector) or
 * `ContinuousBackend` (points key on the parameters quantized to the
 * cache's `CacheOptions::resolution`).
 */
template <typename Base>
class CachingBackend final : public Base
{
  public:
    /** The point type `Base::prepare` takes. */
    using Point = std::conditional_t<std::is_same_v<Base, DiscreteBackend>,
                                     std::vector<int>, std::vector<double>>;

    /** Wrap `inner` with a fresh cache. */
    CachingBackend(std::unique_ptr<Base> inner, const CacheOptions& options)
        : CachingBackend(std::move(inner),
                         std::make_shared<EvaluationCache>(options), 0)
    {
    }

    /**
     * Wrap `inner` over an EXISTING cache (the job server's
     * process-wide one). A nonzero `salt` — `backend_config_hash` of
     * the full configuration — leads every key, so distinct
     * circuits/kinds sharing the cache never alias. Continuous points
     * quantize at the cache's own resolution, so sharers agree on
     * point identity.
     */
    CachingBackend(std::unique_ptr<Base> inner,
                   std::shared_ptr<EvaluationCache> cache,
                   std::uint64_t salt);

    std::string_view kind() const override { return kind_; }
    std::size_t num_qubits() const override { return inner_->num_qubits(); }
    std::size_t num_params() const override { return inner_->num_params(); }

    /** Records the point; the wrapped backend is prepared lazily, only
     *  when a lookup misses. */
    void prepare(const Point& point) override;

    double expectation(const PauliSum& op) const override;
    std::vector<double>
    expectations(std::span<const PauliSum> ops) const override;

    /** Clone sharing this wrapper's cache (per-worker fan-out hits a
     *  common cache). */
    std::unique_ptr<Backend> clone() const override;

    /** Aggregate counters of the shared cache. */
    CacheStats cache_stats() const { return cache_->stats(); }

  private:
    std::unique_ptr<Base> inner_;
    std::shared_ptr<EvaluationCache> cache_;
    std::string kind_;
    /** Nonzero when the cache is shared across configurations: mixed
     *  into every key as a leading word. */
    std::uint64_t salt_ = 0;
    /** The pending point; unset until the first `prepare`. */
    std::optional<Point> point_;
    EvaluationCache::Key key_prefix_;
    /** Whether `inner_` holds the pending point (prepared lazily, on
     *  the first miss). */
    mutable bool inner_prepared_ = false;
};

using CachingDiscreteBackend = CachingBackend<DiscreteBackend>;
using CachingContinuousBackend = CachingBackend<ContinuousBackend>;

extern template class CachingBackend<DiscreteBackend>;
extern template class CachingBackend<ContinuousBackend>;

/** Wrap any backend in the caching decorator of its domain over
 *  `cache` with key salt `salt` (`make_backend`: a fresh cache and salt
 *  0, or `BackendConfig::shared_cache` and the config hash). */
std::unique_ptr<Backend>
wrap_with_cache(std::unique_ptr<Backend> backend,
                std::shared_ptr<EvaluationCache> cache, std::uint64_t salt);

/** The wrapper's cache stats, or nullopt when `backend` is not a
 *  caching decorator. */
std::optional<CacheStats> cache_stats_of(const Backend& backend);

} // namespace cafqa

#endif // CAFQA_CORE_CACHING_BACKEND_HPP
