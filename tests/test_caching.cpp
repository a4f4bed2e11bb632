// Tests for the memoizing evaluation cache (core/caching_backend.hpp):
// registry composition (BackendConfig::cache), exact
// cached==uncached parity through the pipeline, LRU eviction and stats
// accounting, determinism across thread counts (clones share one
// cache), correctness under concurrent access, exact continuous keys,
// byte-packed discrete keys that never alias, and pipelines sharing
// one cache.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/thread_pool.hpp"
#include "core/caching_backend.hpp"
#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "core/run_spec.hpp"
#include "problems/molecule_factory.hpp"
#include "problems/problem.hpp"

namespace cafqa {
namespace {

Circuit
tiny_ansatz()
{
    Circuit ansatz(2);
    ansatz.ry_param(0);
    ansatz.ry_param(1);
    ansatz.cx(0, 1);
    return ansatz;
}

CacheOptions
cache_on(std::size_t capacity = std::size_t{1} << 16)
{
    CacheOptions options;
    options.enabled = true;
    options.capacity = capacity;
    return options;
}

/** A fresh cache for one pipeline run (`PipelineConfig::cache`). */
std::shared_ptr<EvaluationCache>
run_cache()
{
    return std::make_shared<EvaluationCache>(cache_on());
}

PipelineConfig
h2_config(std::uint64_t seed, const std::string& search_kind = "bayes")
{
    const auto system = problems::make_molecular_system("H2", 2.2);
    PipelineConfig config;
    config.ansatz = system.ansatz;
    config.objective = problems::make_objective(system);
    config.search.warmup = 50;
    config.search.iterations = 80;
    config.search.seed = seed;
    config.search_optimizer = search_kind;
    return config;
}

TEST(CachingBackend, RegistryComposesByConfigBlock)
{
    // The wrapper is told apart by `cache_stats_of`, not by its name:
    // its kind is the wrapped kind, so it round-trips through the
    // registry to the same (uncached) backend.
    BackendConfig config;
    config.kind = "clifford";
    config.ansatz = tiny_ansatz();
    config.cache.enabled = true;
    const auto discrete = make_discrete_backend(config);
    EXPECT_TRUE(cache_stats_of(*discrete).has_value());
    EXPECT_EQ(discrete->kind(), "clifford");
    EXPECT_TRUE(discrete->discrete());
    EXPECT_EQ(discrete->num_params(), 2u);

    for (const std::string kind : {"statevector", "density"}) {
        config.kind = kind;
        const auto continuous = make_backend(config);
        EXPECT_TRUE(cache_stats_of(*continuous).has_value()) << kind;
        EXPECT_FALSE(continuous->discrete()) << kind;
        EXPECT_EQ(continuous->kind(), kind);
    }

    for (const std::string kind : {"clifford", "statevector", "density"}) {
        config.kind = kind;
        const auto cached = make_backend(config);
        BackendConfig plain;
        plain.kind = std::string(cached->kind());
        plain.ansatz = tiny_ansatz();
        const auto rebuilt = make_backend(plain);
        EXPECT_EQ(rebuilt->kind(), kind);
        EXPECT_FALSE(cache_stats_of(*rebuilt).has_value()) << kind;
    }
}

TEST(CachingBackend, HitsSkipPreparationAndLruEvictsOldest)
{
    const PauliSum op = PauliSum::from_terms(2, {{1.0, "ZZ"}});
    // Capacity 1 is one shard holding one entry.
    auto wrapper = CachingDiscreteBackend(
        std::make_unique<CliffordEvaluator>(tiny_ansatz()),
        cache_on(/*capacity=*/1));

    const std::vector<int> a{0, 0};
    const std::vector<int> b{1, 0};

    wrapper.prepare(a);
    const double value_a = wrapper.expectation(op); // miss, prepares
    EXPECT_DOUBLE_EQ(wrapper.expectation(op), value_a); // hit
    wrapper.prepare(a);
    EXPECT_DOUBLE_EQ(wrapper.expectation(op), value_a); // hit, no prep

    CacheStats stats = wrapper.cache_stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.preparations, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_NEAR(stats.hit_rate(), 2.0 / 3.0, 1e-12);

    wrapper.prepare(b);
    wrapper.expectation(op); // miss at capacity: evicts a -> {b}
    stats = wrapper.cache_stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.preparations, 2u);

    wrapper.prepare(a);
    // Evicted above: a fresh miss + preparation that recomputes the
    // same value.
    EXPECT_DOUBLE_EQ(wrapper.expectation(op), value_a);
    const CacheStats final_stats = wrapper.cache_stats();
    EXPECT_EQ(final_stats.misses, stats.misses + 1);
    EXPECT_EQ(final_stats.preparations, 3u);
    EXPECT_EQ(final_stats.evictions, 2u);
}

TEST(EvaluationCache, LruEvictsLeastRecentlyUsedWithinAShard)
{
    // Two entries per shard; pick three keys that land in one shard.
    EvaluationCache cache(cache_on(/*capacity=*/2 * kCacheShards));
    std::vector<EvaluationCache::Key> keys;
    std::size_t shard = 0;
    for (std::int64_t word = 0; keys.size() < 3; ++word) {
        const EvaluationCache::Key key{word};
        const std::size_t home = EvaluationCache::hash_key(key) % kCacheShards;
        if (keys.empty()) {
            shard = home;
        }
        if (home == shard) {
            keys.push_back(key);
        }
    }
    const auto& a = keys[0];
    const auto& b = keys[1];
    const auto& c = keys[2];

    cache.insert(a, 1.0);
    cache.insert(b, 2.0);                    // {b, a}
    EXPECT_EQ(cache.lookup(a), 1.0);         // refreshes a: {a, b}
    cache.insert(c, 3.0);                    // at capacity: evicts b
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.lookup(a), 1.0);         // still resident
    EXPECT_EQ(cache.lookup(c), 3.0);
    EXPECT_EQ(cache.lookup(b), std::nullopt); // evicted
}

TEST(CachingBackend, CachedPipelineMatchesUncachedExactlyOnH2)
{
    CafqaPipeline uncached(h2_config(19));
    const CafqaResult& reference = uncached.run_clifford_search();

    PipelineConfig config = h2_config(19);
    config.cache = run_cache();
    CafqaPipeline cached(std::move(config));
    const CafqaResult& result = cached.run_clifford_search();

    EXPECT_EQ(result.best_steps, reference.best_steps);
    EXPECT_DOUBLE_EQ(result.best_objective, reference.best_objective);
    EXPECT_DOUBLE_EQ(result.best_energy, reference.best_energy);
    EXPECT_EQ(result.history, reference.history);
}

TEST(CachingBackend, CachedPipelineMatchesUncachedExactlyOnLiH)
{
    const auto system = problems::make_molecular_system("LiH", 2.4);
    auto make_config = [&](bool with_cache) {
        PipelineConfig config;
        config.ansatz = system.ansatz;
        config.objective = problems::make_objective(system);
        config.search.warmup = 40;
        config.search.iterations = 40;
        config.search.seed = 5;
        if (with_cache) {
            config.cache = run_cache();
        }
        return config;
    };

    CafqaPipeline uncached(make_config(false));
    CafqaPipeline cached(make_config(true));
    const CafqaResult& reference = uncached.run_clifford_search();
    const CafqaResult& result = cached.run_clifford_search();

    EXPECT_EQ(result.best_steps, reference.best_steps);
    EXPECT_DOUBLE_EQ(result.best_energy, reference.best_energy);
    EXPECT_EQ(result.history, reference.history);
}

TEST(CachingBackend, AnnealingRevisitsHitTheCacheAndStatsReachObserver)
{
    CafqaPipeline uncached(h2_config(7, "anneal"));
    const CafqaResult& reference = uncached.run_clifford_search();

    PipelineConfig config = h2_config(7, "anneal");
    config.cache = run_cache();
    CafqaPipeline cached(std::move(config));

    std::optional<CacheStats> observed;
    cached.set_observer([&](const PipelineEvent& event) {
        if (event.event == PipelineEvent::Kind::StageEnd &&
            event.cache != nullptr) {
            observed = *event.cache;
        }
    });
    const CafqaResult& result = cached.run_clifford_search();

    // Pure memoization: the trajectory is bit-identical...
    EXPECT_EQ(result.history, reference.history);
    EXPECT_DOUBLE_EQ(result.best_energy, reference.best_energy);

    // ...while annealing's re-visits were served from the cache.
    ASSERT_TRUE(observed.has_value());
    EXPECT_GT(observed->hits, 0u);
    EXPECT_GT(observed->hit_rate(), 0.0);
    // Preparations < recorded evaluations: re-visited points skipped
    // state preparation entirely.
    EXPECT_LT(observed->preparations, result.history.size());
}

TEST(CachingBackend, NoCacheStatsOnObserverWhenDisabled)
{
    CafqaPipeline pipeline(h2_config(3));
    bool saw_stage_end = false;
    pipeline.set_observer([&](const PipelineEvent& event) {
        if (event.event == PipelineEvent::Kind::StageEnd) {
            saw_stage_end = true;
            EXPECT_EQ(event.cache, nullptr);
        }
    });
    pipeline.run_clifford_search();
    EXPECT_TRUE(saw_stage_end);
}

TEST(CachingBackend, DeterministicAcrossThreadCountsWithSharedCache)
{
    std::vector<CafqaResult> results;
    for (const std::size_t threads : {1u, 4u}) {
        PipelineConfig config = h2_config(11);
        config.cache = run_cache();
        config.threads = threads;
        CafqaPipeline pipeline(std::move(config));
        results.push_back(pipeline.run_clifford_search());
    }
    EXPECT_EQ(results[0].best_steps, results[1].best_steps);
    EXPECT_EQ(results[0].history, results[1].history);
    EXPECT_DOUBLE_EQ(results[0].best_energy, results[1].best_energy);
}

TEST(CachingBackend, CachedVqaTuneMatchesUncached)
{
    auto tune_config = [](bool with_cache) {
        PipelineConfig config = h2_config(13);
        config.search.warmup = 20;
        config.search.iterations = 20;
        config.tuner.iterations = 30;
        if (with_cache) {
            config.cache = run_cache();
        }
        return config;
    };

    CafqaPipeline uncached(tune_config(false));
    CafqaPipeline cached(tune_config(true));
    const VqaTuneResult& reference = uncached.run_vqa_tune();
    const VqaTuneResult& result = cached.run_vqa_tune();

    EXPECT_EQ(result.trace, reference.trace);
    EXPECT_DOUBLE_EQ(result.final_value, reference.final_value);
    EXPECT_EQ(result.final_params, reference.final_params);
}

TEST(CachingBackend, OneRunCacheServesEveryStageBitIdentically)
{
    // Search, one T-boost round and a tune over one run cache: every
    // stage matches the uncached run exactly, and each StageEnd reports
    // the run cache's counters so far, which never fall.
    struct Run
    {
        CafqaResult search;
        TBoostResult boost;
        VqaTuneResult tune;
        std::vector<CacheStats> stage_stats;
        std::size_t stage_ends = 0;
    };
    const auto run = [](bool cached) {
        PipelineConfig config = h2_config(17, "anneal");
        config.search.warmup = 30;
        config.search.iterations = 30;
        config.tuner.iterations = 20;
        if (cached) {
            config.cache = run_cache();
        }
        CafqaPipeline pipeline(std::move(config));
        Run out;
        pipeline.set_observer([&out](const PipelineEvent& event) {
            if (event.event != PipelineEvent::Kind::StageEnd) {
                return;
            }
            ++out.stage_ends;
            if (event.cache != nullptr) {
                out.stage_stats.push_back(*event.cache);
            }
        });
        out.search = pipeline.run_clifford_search();
        out.boost = pipeline.run_t_boost(1);
        out.tune = pipeline.run_vqa_tune();
        return out;
    };

    const Run plain = run(false);
    const Run cached = run(true);

    EXPECT_EQ(cached.search.history, plain.search.history);
    EXPECT_EQ(cached.search.best_steps, plain.search.best_steps);
    EXPECT_EQ(cached.boost.t_positions, plain.boost.t_positions);
    EXPECT_EQ(cached.boost.best_steps, plain.boost.best_steps);
    EXPECT_EQ(cached.boost.best_objective, plain.boost.best_objective);
    EXPECT_EQ(cached.boost.best_energy, plain.boost.best_energy);
    EXPECT_EQ(cached.tune.trace, plain.tune.trace);
    EXPECT_EQ(cached.tune.final_params, plain.tune.final_params);

    EXPECT_EQ(plain.stage_ends, 3u);
    EXPECT_TRUE(plain.stage_stats.empty());
    ASSERT_EQ(cached.stage_stats.size(), 3u);
    for (std::size_t stage = 1; stage < 3; ++stage) {
        const CacheStats& before = cached.stage_stats[stage - 1];
        const CacheStats& after = cached.stage_stats[stage];
        EXPECT_GE(after.hits, before.hits) << "stage " << stage;
        EXPECT_GE(after.misses, before.misses) << "stage " << stage;
    }
    EXPECT_GT(cached.stage_stats.back().misses,
              cached.stage_stats.front().misses);
}

TEST(CachingBackend, ConcurrentClonesShareOneCacheCorrectly)
{
    // Clones produced by clone() share the cache; hammer it from a
    // thread pool with deliberately repeated candidates and a small
    // capacity (constant eviction churn), then check every value
    // against an uncached reference. Run under ASan/UBSan in CI.
    const auto system = problems::make_molecular_system("H2", 1.5);
    const VqaObjective objective = problems::make_objective(system);
    const std::vector<PauliSum> observables = objective.gather_observables();

    const CachingDiscreteBackend prototype(
        std::make_unique<CliffordEvaluator>(system.ansatz),
        cache_on(/*capacity=*/16));

    Rng rng(99);
    std::vector<std::vector<int>> distinct(40);
    for (auto& steps : distinct) {
        steps.resize(system.ansatz.num_params());
        for (auto& s : steps) {
            s = static_cast<int>(rng.uniform_int(0, 3));
        }
    }
    // Each point appears twice back-to-back (so re-visits land inside
    // the tiny LRU window despite the eviction churn), for 4 rounds.
    std::vector<std::vector<int>> candidates;
    for (int round = 0; round < 4; ++round) {
        for (const auto& steps : distinct) {
            candidates.push_back(steps);
            candidates.push_back(steps);
        }
    }

    ThreadPool pool(4);
    std::vector<double> values(candidates.size());
    std::vector<std::unique_ptr<DiscreteBackend>> clones(pool.size());
    pool.parallel_for(candidates.size(),
                      [&](std::size_t worker, std::size_t index) {
                          auto& backend = clones[worker];
                          if (!backend) {
                              backend = prototype.clone_discrete();
                          }
                          backend->prepare(candidates[index]);
                          values[index] = objective.combine(
                              backend->expectations(observables));
                      });

    CliffordEvaluator reference(system.ansatz);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        reference.prepare(candidates[i]);
        EXPECT_DOUBLE_EQ(values[i], objective.evaluate(reference))
            << "candidate " << i;
    }

    const CacheStats stats = prototype.cache_stats();
    EXPECT_EQ(stats.hits + stats.misses,
              candidates.size() * observables.size());
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.entries, 16u + 4u); // capacity, rounded up per shard
}

TEST(CachingBackend, ContinuousKeysAreExactBitPatterns)
{
    // Every point reads back exactly what the wrapped backend computes
    // for it. Keys once quantized each parameter at 1e-12 and clamped
    // at the int64 range, so every angle above ~9.2e6 rad shared one
    // entry with its neighbours (and NaN with the large negative
    // angles): 1e7 + 1 was served the value of 1e7.
    CachingContinuousBackend cached(
        std::make_unique<IdealEvaluator>(tiny_ansatz()), cache_on());
    IdealEvaluator uncached(tiny_ansatz());
    const PauliSum op =
        PauliSum::from_terms(2, {{1.0, "ZZ"}, {0.5, "XI"}});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> thetas = {1e7, 1e7 + 1.0, -1e7, nan};
    for (const double theta : thetas) {
        const std::vector<double> point = {theta, 0.3};
        cached.prepare(point);
        uncached.prepare(point);
        const double want = uncached.expectation(op);
        const double got = cached.expectation(op);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "theta = " << theta << ": cached " << got << ", uncached "
            << want;
    }
    EXPECT_EQ(cached.cache_stats().misses, thetas.size());
    EXPECT_EQ(cached.cache_stats().hits, 0u);

    // A repeat of the same bit pattern is a hit with the same value.
    cached.prepare({1e7 + 1.0, 0.3});
    uncached.prepare({1e7 + 1.0, 0.3});
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.expectation(op)),
              std::bit_cast<std::uint64_t>(uncached.expectation(op)));
    EXPECT_EQ(cached.cache_stats().hits, 1u);
}

/**
 * A discrete backend whose expectation names its prepared point: each
 * distinct step vector gets the next integer (plus `offset`) the first
 * time it is prepared. A cache that aliased two points would return one
 * point's number for the other.
 */
class PointLabelBackend final : public DiscreteBackend
{
  public:
    explicit PointLabelBackend(double offset = 0.0) : offset_(offset) {}

    std::string_view kind() const override { return "point-label"; }
    std::size_t num_qubits() const override { return 1; }
    std::size_t num_params() const override { return 0; }
    void prepare(const std::vector<int>& steps) override { steps_ = steps; }

    double expectation(const PauliSum&) const override
    {
        return offset_ + label(steps_);
    }

    std::unique_ptr<Backend> clone() const override
    {
        return std::make_unique<PointLabelBackend>(*this);
    }

    /** The label of `steps`, assigned on first sight. */
    double label(const std::vector<int>& steps) const
    {
        return labels_
            ->try_emplace(steps, static_cast<double>(labels_->size()))
            .first->second;
    }

  private:
    double offset_ = 0.0;
    std::vector<int> steps_;
    std::shared_ptr<std::map<std::vector<int>, double>> labels_ =
        std::make_shared<std::map<std::vector<int>, double>>();
};

TEST(CacheKeys, PackedPointsNeverAlias)
{
    // Steps pack eight to a key word, so the interesting lengths sit
    // at and around word boundaries. A trailing zero step packs to the
    // same words as the shorter point; only the length in the tag word
    // tells them apart.
    const PauliSum op = PauliSum::from_terms(1, {{1.0, "Z"}});
    for (const std::size_t length : {7u, 8u, 9u, 16u, 17u}) {
        auto inner = std::make_unique<PointLabelBackend>();
        const PointLabelBackend* labels = inner.get();
        CachingDiscreteBackend cached(std::move(inner), cache_on());
        std::vector<std::vector<int>> points;
        for (const int last : {0, 1, 2, 3, 255}) {
            std::vector<int> point(length, 3);
            point.back() = last;
            points.push_back(point);
        }
        points.push_back(std::vector<int>(length - 1, 3));
        std::vector<int> longer(length, 3);
        longer.push_back(0);
        points.push_back(longer);

        for (int round = 0; round < 2; ++round) {
            for (const auto& point : points) {
                cached.prepare(point);
                EXPECT_EQ(cached.expectation(op), labels->label(point))
                    << "length " << length << ", round " << round;
            }
        }
        const CacheStats stats = cached.cache_stats();
        EXPECT_EQ(stats.misses, points.size()) << "length " << length;
        EXPECT_EQ(stats.hits, points.size()) << "length " << length;
    }
}

TEST(CacheKeys, StepsOutsideOneByteKeepTheirOwnKeys)
{
    // 256 wraps to 0 and -1 to 255 in one byte; points holding such
    // steps are keyed one word per step under their own tag.
    const PauliSum op = PauliSum::from_terms(1, {{1.0, "Z"}});
    auto inner = std::make_unique<PointLabelBackend>();
    const PointLabelBackend* labels = inner.get();
    CachingDiscreteBackend cached(std::move(inner), cache_on());
    // {256, 0} would pack to the word of {0, 1}, and {-1, 0, ..., 0} to
    // that of eight 255s, if out-of-range steps were packed.
    const std::vector<std::vector<int>> points = {
        {0},
        {256},
        {255},
        {-1},
        {0, 1},
        {256, 0},
        {1, 1},
        {257},
        {-1, 0, 0, 0, 0, 0, 0, 0},
        std::vector<int>(8, 255),
        {0, 0, 0, 0, 0, 0, 0, 0, 1},
        {0, 0, 0, 0, 0, 0, 0, 0, 257}};
    for (int round = 0; round < 2; ++round) {
        for (const auto& point : points) {
            cached.prepare(point);
            EXPECT_EQ(cached.expectation(op), labels->label(point))
                << "round " << round << ", first step " << point.front();
        }
    }
    EXPECT_EQ(cached.cache_stats().misses, points.size());
    EXPECT_EQ(cached.cache_stats().hits, points.size());
}

TEST(CacheKeys, SaltedAndUnsaltedKeysNeverAlias)
{
    // One shared cache, three wrappers over the same points: unsalted,
    // and two different salts. Each must read back its own backend.
    const PauliSum op = PauliSum::from_terms(1, {{1.0, "Z"}});
    const auto cache = std::make_shared<EvaluationCache>(cache_on());
    std::vector<std::unique_ptr<CachingDiscreteBackend>> wrappers;
    const std::uint64_t salts[] = {0, 1, 0x9e3779b97f4a7c15ull};
    for (std::size_t w = 0; w < 3; ++w) {
        wrappers.push_back(std::make_unique<CachingDiscreteBackend>(
            std::make_unique<PointLabelBackend>(1000.0 * double(w)), cache,
            salts[w]));
    }
    const std::vector<std::vector<int>> points = {
        {}, {0}, {1, 2, 3}, {0, 0, 0, 0, 0, 0, 0, 0}, {300, 1}};
    for (int round = 0; round < 2; ++round) {
        for (std::size_t w = 0; w < wrappers.size(); ++w) {
            for (std::size_t p = 0; p < points.size(); ++p) {
                wrappers[w]->prepare(points[p]);
                EXPECT_EQ(wrappers[w]->expectation(op),
                          1000.0 * double(w) + double(p))
                    << "salt " << salts[w] << ", point " << p;
            }
        }
    }
    EXPECT_EQ(cache->stats().entries, wrappers.size() * points.size());
    EXPECT_EQ(cache->stats().hits, wrappers.size() * points.size());

    // Salt 300 then the packed word of {1, 2} (0x0201 = 513) is, word
    // for word, the unsalted wide point {300, 513}; the tag's encoding
    // field keeps the two keys apart.
    CachingDiscreteBackend salted(std::make_unique<PointLabelBackend>(10.0),
                                  cache, 300);
    CachingDiscreteBackend wide(std::make_unique<PointLabelBackend>(20.0),
                                cache, 0);
    for (int round = 0; round < 2; ++round) {
        salted.prepare({1, 2});
        EXPECT_EQ(salted.expectation(op), 10.0) << "round " << round;
        wide.prepare({300, 513});
        EXPECT_EQ(wide.expectation(op), 20.0) << "round " << round;
    }
}

TEST(CacheKeys, StatsBytesCountThePackedWords)
{
    // bytes = 8 per key word + 8 per value. A key is the tag word, the
    // salt if any, the point, and the observable hash.
    const PauliSum op = PauliSum::from_terms(1, {{1.0, "Z"}});
    const auto bytes_after = [&op](const auto& point, std::uint64_t salt) {
        const auto cache = std::make_shared<EvaluationCache>(cache_on());
        CachingDiscreteBackend cached(std::make_unique<PointLabelBackend>(),
                                      cache, salt);
        cached.prepare(point);
        cached.expectation(op);
        return cache->stats().bytes;
    };
    constexpr std::size_t kWord = 8;
    // 17 one-byte steps: three packed words.
    EXPECT_EQ(bytes_after(std::vector<int>(17, 3), 0), (1 + 3 + 1 + 1) * kWord);
    EXPECT_EQ(bytes_after(std::vector<int>(17, 3), 7),
              (1 + 1 + 3 + 1 + 1) * kWord);
    EXPECT_EQ(bytes_after(std::vector<int>(8, 1), 0), (1 + 1 + 1 + 1) * kWord);
    // A step of 256 keeps one word per step.
    std::vector<int> wide(17, 3);
    wide[4] = 256;
    EXPECT_EQ(bytes_after(wide, 0), (1 + 17 + 1 + 1) * kWord);

    // Continuous points keep one bit pattern per parameter.
    CachingContinuousBackend continuous(
        std::make_unique<IdealEvaluator>(tiny_ansatz()), cache_on());
    continuous.prepare({0.25, -1.5});
    continuous.expectation(PauliSum::from_terms(2, {{1.0, "ZZ"}}));
    EXPECT_EQ(continuous.cache_stats().bytes, (1 + 2 + 1 + 1) * kWord);
}

TEST(CacheStats, JsonRoundTripsEveryCounter)
{
    CacheStats stats;
    stats.hits = 41;
    stats.misses = 7;
    stats.evictions = 3;
    stats.entries = 4;
    stats.bytes = 2048;
    stats.preparations = 7;

    const std::string json = stats.to_json();
    const std::vector<JsonField> fields = parse_flat_json_object(json);
    const auto value = [&](const std::string& name) {
        const JsonField* field = find_json_field(fields, name);
        EXPECT_NE(field, nullptr) << name << " missing from " << json;
        return field != nullptr ? field->value : std::string{};
    };
    EXPECT_EQ(value("hits"), "41");
    EXPECT_EQ(value("misses"), "7");
    EXPECT_EQ(value("evictions"), "3");
    EXPECT_EQ(value("entries"), "4");
    EXPECT_EQ(value("bytes"), "2048");
    EXPECT_EQ(value("preparations"), "7");
    EXPECT_EQ(value("hit_rate"), format_real(stats.hit_rate()));

    // Zero-lookup stats serialize a well-defined rate.
    const std::string empty = CacheStats{}.to_json();
    const auto empty_fields = parse_flat_json_object(empty);
    EXPECT_EQ(find_json_field(empty_fields, "hit_rate")->value, "0");
}

TEST(SharedCache, PipelinesSharingOneCacheAreBitIdenticalAndHit)
{
    // Two identical pipelines over one cache: the second hits the
    // first's entries, and both match an uncached pipeline exactly —
    // the cache is a pure memoizer.
    const auto config_of = [](const std::string& text) {
        const RunSpec spec = RunSpec::parse(text);
        return make_pipeline_config(spec,
                                    problems::make_problem(spec.problem));
    };
    const auto search_of = [](PipelineConfig config) {
        CafqaPipeline pipeline(std::move(config));
        return pipeline.run_clifford_search();
    };
    const auto expect_same = [](const CafqaResult& got,
                                const CafqaResult& want) {
        EXPECT_EQ(got.best_steps, want.best_steps);
        EXPECT_EQ(got.best_objective, want.best_objective);
        EXPECT_EQ(got.best_energy, want.best_energy);
        EXPECT_EQ(got.history, want.history);
    };
    const std::shared_ptr<EvaluationCache> cache = run_cache();
    const auto shared = [&cache](PipelineConfig config) {
        config.cache = cache;
        return config;
    };

    const PipelineConfig ring6 =
        config_of("problem=maxcut:ring-6 warmup=6 iterations=6");
    ASSERT_EQ(ring6.cache, nullptr);
    const CafqaResult solo = search_of(ring6);

    const CafqaResult first = search_of(shared(ring6));
    const CacheStats after_first = cache->stats();
    EXPECT_GT(after_first.misses, 0u);

    const CafqaResult second = search_of(shared(ring6));
    const CacheStats after_second = cache->stats();
    EXPECT_GT(after_second.hits, after_first.hits);
    // Every point of the second search was already materialized.
    EXPECT_EQ(after_second.entries, after_first.entries);
    expect_same(first, solo);
    expect_same(second, solo);

    // Distinct problems sharing the cache must not alias: a different
    // instance over the same cache still matches its uncached search.
    const PipelineConfig ring8 =
        config_of("problem=maxcut:ring-8 warmup=6 iterations=6");
    expect_same(search_of(shared(ring8)), search_of(ring8));
}

} // namespace
} // namespace cafqa
