#include "core/backend_registry.hpp"

#include <bit>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/registry.hpp"
#include "core/evaluator.hpp"
#include "core/sampled_evaluator.hpp"

namespace cafqa {

namespace {

/** The process-wide registry, with the built-in kinds pre-registered.
 *  Function-local static so registration order is independent of
 *  translation-unit initialization order. */
Registry<BackendFactory>&
backend_registry()
{
    static Registry<BackendFactory> registry = [] {
        const BackendFactory clifford = [](const BackendConfig& config) {
            return std::make_unique<CliffordEvaluator>(config.ansatz);
        };
        return Registry<BackendFactory>(
            "backend kind", "any of them composes as \"cached:<kind>\"",
            {
                {"clifford", clifford},
                // Alias: the paper calls the search-stage evaluator "the
                // stabilizer simulator"; kind() still reports the
                // concrete "clifford" type (same convention as custom
                // registrations).
                {"stabilizer", clifford},
                {"clifford_t",
                 [](const BackendConfig& config) {
                     return std::make_unique<CliffordTEvaluator>(
                         config.ansatz);
                 }},
                {"statevector",
                 [](const BackendConfig& config) {
                     return std::make_unique<IdealEvaluator>(config.ansatz);
                 }},
                {"density",
                 [](const BackendConfig& config) {
                     return std::make_unique<NoisyEvaluator>(config.ansatz,
                                                             config.noise);
                 }},
                {"sampled",
                 [](const BackendConfig& config) {
                     return std::make_unique<SampledEvaluator>(
                         config.ansatz, config.shots, config.seed);
                 }},
            });
    }();
    return registry;
}

} // namespace

std::uint64_t
backend_config_hash(const BackendConfig& config)
{
    std::size_t h = kHashSeed;
    for (const char c : config.kind) {
        h = hash_mix(h, static_cast<unsigned char>(c));
    }
    h = hash_mix(h, config.ansatz.num_qubits());
    for (const GateOp& op : config.ansatz.ops()) {
        h = hash_mix(h, static_cast<std::uint64_t>(op.kind));
        h = hash_mix(h, op.q0);
        h = hash_mix(h, op.q1);
        h = hash_mix(h, static_cast<std::uint64_t>(op.param));
        h = hash_mix(h, std::bit_cast<std::uint64_t>(op.angle));
    }
    h = hash_mix(h, std::bit_cast<std::uint64_t>(config.noise.depolarizing_1q));
    h = hash_mix(h, std::bit_cast<std::uint64_t>(config.noise.depolarizing_2q));
    h = hash_mix(h,
                 std::bit_cast<std::uint64_t>(config.noise.amplitude_damping));
    h = hash_mix(h, config.shots);
    h = hash_mix(h, config.seed);
    // Never 0: 0 means "unsalted" to the caching wrappers.
    return h == 0 ? kHashSeed : h;
}

void
register_backend(const std::string& kind, BackendFactory factory)
{
    CAFQA_REQUIRE(!kind.empty(), "backend kind must be non-empty");
    CAFQA_REQUIRE(factory != nullptr, "backend factory must be callable");
    backend_registry().add(kind, std::move(factory));
}

std::vector<std::string>
registered_backends()
{
    return backend_registry().keys();
}

std::unique_ptr<Backend>
make_backend(const BackendConfig& config)
{
    // "cached:<kind>": construct <kind> (recursively, outside the
    // registry lock, so every registered key composes) and wrap it. An
    // explicitly registered "cached:..." key takes precedence.
    constexpr std::string_view prefix = "cached:";
    if (config.kind.size() > prefix.size() &&
        config.kind.starts_with(prefix) &&
        !backend_registry().find(config.kind)) {
        BackendConfig inner = config;
        inner.kind = config.kind.substr(prefix.size());
        inner.cache.enabled = true;
        return make_backend(inner);
    }
    std::unique_ptr<Backend> backend =
        backend_registry().get(config.kind)(config);
    CAFQA_ASSERT(backend != nullptr, "backend factory returned null");
    if (config.shared_cache) {
        backend = wrap_with_cache(std::move(backend), config.shared_cache,
                                  backend_config_hash(config));
    } else if (config.cache.enabled) {
        backend = wrap_with_cache(
            std::move(backend),
            std::make_shared<EvaluationCache>(config.cache), 0);
    }
    return backend;
}

std::unique_ptr<DiscreteBackend>
make_discrete_backend(const BackendConfig& config)
{
    return downcast<DiscreteBackend>(
        make_backend(config),
        "backend kind \"" + config.kind +
            "\" is not a discrete (quarter-turn) backend");
}

std::unique_ptr<ContinuousBackend>
make_continuous_backend(const BackendConfig& config)
{
    return downcast<ContinuousBackend>(
        make_backend(config),
        "backend kind \"" + config.kind +
            "\" is not a continuous-parameter backend");
}

} // namespace cafqa
