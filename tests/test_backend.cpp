// Tests for the unified backend API: the thread pool, the string-keyed
// backend registry, batched-vs-single expectation equivalence, and
// backend cloning.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numbers>

#include "circuit/efficient_su2.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/backend_registry.hpp"
#include "core/clifford_ansatz.hpp"
#include "core/evaluator.hpp"
#include "core/sampled_evaluator.hpp"

namespace cafqa {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);

    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(), [&](std::size_t, std::size_t index) {
        hits[index].fetch_add(1);
    });
    for (const auto& hit : hits) {
        EXPECT_EQ(hit.load(), 1);
    }

    // Zero-count jobs are a no-op.
    pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, WorkerIdsStayInRange)
{
    ThreadPool pool(4);
    std::atomic<bool> in_range{true};
    pool.parallel_for(64, [&](std::size_t worker, std::size_t) {
        if (worker >= pool.size()) {
            in_range = false;
        }
    });
    EXPECT_TRUE(in_range.load());
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallel_for(32,
                          [&](std::size_t, std::size_t index) {
                              if (index == 7) {
                                  throw std::runtime_error("boom");
                              }
                          }),
        std::runtime_error);

    // The pool must stay usable after an exception.
    std::atomic<int> count{0};
    pool.parallel_for(8, [&](std::size_t, std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 8);
}

// --------------------------------------------------------------- registry

Circuit
clifford_t_test_circuit(std::size_t n)
{
    Circuit c = make_efficient_su2(n);
    c.t(0);
    c.t(n - 1);
    return c;
}

TEST(BackendRegistry, ListsAllBuiltInKinds)
{
    const auto kinds = registered_backends();
    for (const char* kind : {"clifford", "clifford_t", "statevector",
                             "density", "sampled", "stabilizer"}) {
        EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind),
                  kinds.end())
            << kind;
    }
}

TEST(BackendRegistry, RoundTripConstructsEveryKind)
{
    const std::size_t n = 3;
    const Circuit ansatz = make_efficient_su2(n);

    struct Case
    {
        std::string kind;
        bool discrete;
    };
    for (const Case& test_case :
         std::vector<Case>{{"clifford", true},
                           {"clifford_t", true},
                           {"statevector", false},
                           {"density", false},
                           {"sampled", false}}) {
        BackendConfig config;
        config.kind = test_case.kind;
        config.ansatz = test_case.kind == "clifford_t"
            ? clifford_t_test_circuit(n)
            : ansatz;
        config.noise = NoiseModel{"test", 0.001, 0.01, 0.001};
        config.shots = 128;
        config.seed = 5;

        const auto backend = make_backend(config);
        ASSERT_NE(backend, nullptr) << test_case.kind;
        EXPECT_EQ(backend->kind(), test_case.kind);
        EXPECT_EQ(backend->discrete(), test_case.discrete)
            << test_case.kind;
        EXPECT_EQ(backend->num_qubits(), n) << test_case.kind;
        EXPECT_EQ(backend->num_params(), ansatz.num_params())
            << test_case.kind;
    }
}

TEST(BackendRegistry, UnknownKindThrows)
{
    BackendConfig config;
    config.kind = "quantum-teleporter";
    config.ansatz = make_efficient_su2(2);
    EXPECT_THROW(make_backend(config), std::invalid_argument);
}

TEST(BackendRegistry, CheckedDowncastsRejectWrongDomain)
{
    BackendConfig config;
    config.ansatz = make_efficient_su2(2);

    config.kind = "statevector";
    EXPECT_THROW(make_discrete_backend(config), std::invalid_argument);
    EXPECT_NO_THROW(make_continuous_backend(config));

    config.kind = "clifford";
    EXPECT_THROW(make_continuous_backend(config), std::invalid_argument);
    EXPECT_NO_THROW(make_discrete_backend(config));
}

TEST(BackendRegistry, CustomKindRegistersAndConstructs)
{
    register_backend("test_custom", [](const BackendConfig& config) {
        return std::make_unique<IdealEvaluator>(config.ansatz);
    });
    const auto kinds = registered_backends();
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), "test_custom"),
              kinds.end());

    BackendConfig config;
    config.kind = "test_custom";
    config.ansatz = make_efficient_su2(2);
    const auto backend = make_backend(config);
    // The factory decides the concrete type; kind() reports it.
    EXPECT_EQ(backend->kind(), "statevector");
}

// --------------------------------------- batched expectation equivalence

std::vector<PauliSum>
random_observables(std::size_t num_qubits, std::size_t count,
                   std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<PauliSum> observables;
    for (std::size_t o = 0; o < count; ++o) {
        PauliSum op(num_qubits);
        const int terms = static_cast<int>(rng.uniform_int(1, 6));
        for (int t = 0; t < terms; ++t) {
            PauliString p(num_qubits);
            for (std::size_t q = 0; q < num_qubits; ++q) {
                p.set_letter(
                    q, static_cast<PauliLetter>(rng.uniform_int(0, 3)));
            }
            op.add_term(rng.normal(), p);
        }
        op.simplify();
        observables.push_back(std::move(op));
    }
    return observables;
}

TEST(BatchedExpectations, MatchSingleOpPathOnDiscreteBackends)
{
    const std::size_t n = 3;
    const auto observables = random_observables(n, 7, 42);

    for (const std::string kind : {"clifford", "clifford_t"}) {
        BackendConfig config;
        config.kind = kind;
        config.ansatz = kind == "clifford_t"
            ? clifford_t_test_circuit(n)
            : make_efficient_su2(n);
        const auto backend = make_discrete_backend(config);

        Rng rng(7);
        std::vector<int> steps(backend->num_params());
        for (auto& s : steps) {
            s = static_cast<int>(rng.uniform_int(0, 3));
        }
        backend->prepare(steps);

        const std::vector<double> batched =
            backend->expectations(observables);
        ASSERT_EQ(batched.size(), observables.size()) << kind;
        for (std::size_t o = 0; o < observables.size(); ++o) {
            EXPECT_NEAR(batched[o], backend->expectation(observables[o]),
                        1e-12)
                << kind << " observable " << o;
        }
    }
}

TEST(BatchedExpectations, MatchSingleOpPathOnContinuousBackends)
{
    const std::size_t n = 3;
    const Circuit ansatz = make_efficient_su2(n);
    const auto observables = random_observables(n, 7, 43);

    Rng rng(9);
    std::vector<double> params(ansatz.num_params());
    for (auto& p : params) {
        p = rng.uniform_real(0.0, 2.0 * std::numbers::pi);
    }

    for (const std::string kind : {"statevector", "density"}) {
        BackendConfig config;
        config.kind = kind;
        config.ansatz = ansatz;
        config.noise = NoiseModel{"test", 0.002, 0.01, 0.002};
        const auto backend = make_continuous_backend(config);
        backend->prepare(params);

        const std::vector<double> batched =
            backend->expectations(observables);
        for (std::size_t o = 0; o < observables.size(); ++o) {
            EXPECT_NEAR(batched[o], backend->expectation(observables[o]),
                        1e-12)
                << kind << " observable " << o;
        }
    }
}

TEST(BatchedExpectations, SampledBackendMatchesCloneWithSameRngState)
{
    // The sampled backend draws from its RNG on every expectation, so
    // the equivalence check runs the batched path on one instance and
    // the single-op path on a clone that starts from the same RNG state.
    const std::size_t n = 3;
    const auto observables = random_observables(n, 5, 44);

    BackendConfig config;
    config.kind = "sampled";
    config.ansatz = make_efficient_su2(n);
    config.shots = 64;
    config.seed = 11;
    const auto backend = make_continuous_backend(config);

    std::vector<double> params(backend->num_params(), 0.5);
    backend->prepare(params);
    const auto twin = backend->clone_continuous();

    const std::vector<double> batched =
        backend->expectations(observables);
    for (std::size_t o = 0; o < observables.size(); ++o) {
        EXPECT_NEAR(batched[o], twin->expectation(observables[o]), 1e-12)
            << "observable " << o;
    }
}

TEST(BatchedExpectations, CandidateBatchMatchesPreparePerCandidate)
{
    const std::size_t n = 3;
    const Circuit ansatz = make_efficient_su2(n);
    const PauliSum op = PauliSum::from_terms(
        n, {{0.7, "XXI"}, {0.3, "IZZ"}, {-0.2, "YIY"}});

    Rng rng(17);
    std::vector<std::vector<int>> candidates;
    for (int c = 0; c < 9; ++c) {
        std::vector<int> steps(ansatz.num_params());
        for (auto& s : steps) {
            s = static_cast<int>(rng.uniform_int(0, 3));
        }
        candidates.push_back(std::move(steps));
    }

    BackendConfig config;
    config.kind = "clifford";
    config.ansatz = ansatz;
    const auto batch_backend = make_discrete_backend(config);
    const auto single_backend = make_discrete_backend(config);

    const std::vector<double> batched =
        batch_backend->expectation_batch(candidates, op);
    ASSERT_EQ(batched.size(), candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        single_backend->prepare(candidates[c]);
        EXPECT_NEAR(batched[c], single_backend->expectation(op), 1e-12)
            << "candidate " << c;
    }
}

TEST(BackendClone, ClonesAreIndependent)
{
    const std::size_t n = 2;
    const Circuit ansatz = make_efficient_su2(n);
    const PauliSum zz = PauliSum::from_terms(n, {{1.0, "ZZ"}});

    CliffordEvaluator original(ansatz);
    original.prepare(std::vector<int>(ansatz.num_params(), 0));
    const double before = original.expectation(zz);

    const auto copy = original.clone_discrete();
    EXPECT_NEAR(copy->expectation(zz), before, 1e-12);

    // Re-preparing the clone must not disturb the original.
    std::vector<int> other(ansatz.num_params(), 0);
    other[0] = 2;
    copy->prepare(other);
    EXPECT_NEAR(original.expectation(zz), before, 1e-12);
}

} // namespace
} // namespace cafqa
