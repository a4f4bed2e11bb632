/**
 * @file
 * String-keyed backend registry and factory (an instance of the
 * `Registry<Entry>` template in `common/registry.hpp`): construct any
 * evaluation backend from a `BackendConfig` without naming its
 * concrete type.
 *
 * Built-in kinds:
 *
 * | key           | class              | domain     | extra config    |
 * |---------------|--------------------|------------|-----------------|
 * | "clifford"    | CliffordEvaluator  | discrete   | -               |
 * | "clifford_t"  | CliffordTEvaluator | discrete   | -               |
 * | "statevector" | IdealEvaluator     | continuous | pool            |
 * | "density"     | NoisyEvaluator     | continuous | noise           |
 * | "sampled"     | SampledEvaluator   | continuous | shots, seed,    |
 * |               |                    |            | pool            |
 *
 * Composition: setting `BackendConfig::cache.enabled` wraps the
 * constructed backend in the memoizing decorator of
 * `core/caching_backend.hpp`, which short-circuits re-evaluations of
 * already-materialized points.
 *
 * Additional kinds (remote executors, sharded wrappers, ...) can be
 * registered at runtime with `register_backend`; `CafqaPipeline` and
 * the CLI resolve backends exclusively through this factory, so a new
 * kind is immediately usable everywhere.
 */
#ifndef CAFQA_CORE_BACKEND_REGISTRY_HPP
#define CAFQA_CORE_BACKEND_REGISTRY_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/backend.hpp"
#include "core/caching_backend.hpp"
#include "density/noise_model.hpp"

namespace cafqa {

class ThreadPool;

/** Everything a backend factory may need; unused fields are ignored. */
struct BackendConfig
{
    /** Registry key selecting the backend kind. */
    std::string kind = "statevector";
    /** The ansatz circuit the backend prepares. */
    Circuit ansatz;
    /** Gate noise model ("density" only). */
    NoiseModel noise;
    /** Measurement shots per commuting group ("sampled" only). */
    std::size_t shots = 4096;
    /** Sampling RNG seed ("sampled" only). */
    std::uint64_t seed = 1234;
    /** Memoizing-cache block: `cache.enabled` wraps the backend in the
     *  caching decorator. */
    CacheOptions cache;
    /**
     * Shared cache (a pipeline run's cache, which its stages share).
     * When set, the backend is wrapped over THIS cache
     * instead of a fresh one — regardless of `cache.enabled` — with
     * `backend_config_hash(*this)` mixed into every key, so distinct
     * configurations sharing one cache can never alias an entry.
     */
    std::shared_ptr<EvaluationCache> shared_cache;
    /**
     * Non-owning pool that splits each "statevector" and "sampled"
     * expectation across its workers (null = serial; other kinds
     * ignore it). The pool must
     * outlive the backend and its clones; a clone evaluating on one of
     * the pool's own workers runs the split inline. Like the cache
     * fields it never changes a value, so `backend_config_hash` leaves
     * it out.
     */
    ThreadPool* pool = nullptr;
};

/**
 * Structural hash over everything that determines a backend's
 * expectation values: kind, ansatz gates, noise parameters, shots and
 * sampling seed. Two configs with equal hashes produce (up to a 64-bit
 * collision) interchangeable evaluations — the aliasing guard for
 * cross-run cache sharing. Cache options and the pool are
 * deliberately excluded (they never change values).
 */
std::uint64_t backend_config_hash(const BackendConfig& config);

/** Factory signature stored in the registry. */
using BackendFactory =
    std::function<std::unique_ptr<Backend>(const BackendConfig&)>;

/** Register (or replace) a factory under `kind`. */
void register_backend(const std::string& kind, BackendFactory factory);

/** Sorted list of registered kinds. */
std::vector<std::string> registered_backends();

/** Construct a backend; throws std::invalid_argument on unknown kind. */
std::unique_ptr<Backend> make_backend(const BackendConfig& config);

/** make_backend + checked downcast to the discrete interface. */
std::unique_ptr<DiscreteBackend>
make_discrete_backend(const BackendConfig& config);

/** make_backend + checked downcast to the continuous interface. */
std::unique_ptr<ContinuousBackend>
make_continuous_backend(const BackendConfig& config);

} // namespace cafqa

#endif // CAFQA_CORE_BACKEND_REGISTRY_HPP
