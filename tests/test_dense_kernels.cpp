// Differential tests of the dense kernels against the reference kernels
// they replaced (tests/reference_dense.hpp): the compiled statevector
// expectation, the compiled sampled estimator and the row-contiguous
// density-matrix gates and channels must agree by exact bits, not to a
// tolerance. The same holds for the Lanczos matvec and solve against the
// per-term loop they replaced, and for every kernel split across a
// thread pool against its serial form. Also pins the observable memo's identity
// contract: a hash hit counts only when the full term list matches.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "../tests/reference_dense.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/caching_backend.hpp"
#include "core/evaluator.hpp"
#include "core/sampled_evaluator.hpp"
#include "density/noise_model.hpp"
#include "pauli/compiled_pauli_sum.hpp"
#include "problems/molecule_factory.hpp"
#include "problems/problem.hpp"
#include "stabilizer/expectation_engine.hpp"
#include "stabilizer/symplectic_tableau.hpp"
#include "statevector/lanczos.hpp"

namespace cafqa {
namespace {

/** gtest predicate-formatter: `got` and `want` are evaluated once, so a
 *  failing stateful call prints the values it compared and advances no
 *  generator again. */
::testing::AssertionResult
same_bits(const char* got_text, const char* want_text, double got,
          double want)
{
    if (std::memcmp(&got, &want, sizeof got) == 0) {
        return ::testing::AssertionSuccess();
    }
    // One Message, so `std::hexfloat` applies to both values.
    ::testing::Message message;
    message << got_text << " vs " << want_text << ": got " << std::hexfloat
            << got << ", want " << want;
    return ::testing::AssertionFailure(message);
}

#define EXPECT_SAME_BITS(got, want) EXPECT_PRED_FORMAT2(same_bits, got, want)

/** Normalized state with Gaussian random amplitudes. */
Statevector
random_state(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Statevector psi(n);
    for (auto& a : psi.amplitudes()) {
        a = {rng.normal(), rng.normal()};
    }
    psi.normalize();
    return psi;
}

/** Random sum over all four letters with complex coefficients, one
 *  identity term, and repeated X masks so the X-mask groups hold
 *  several terms each. */
PauliSum
random_sum(std::size_t n, std::size_t terms, std::uint64_t seed)
{
    Rng rng(seed);
    PauliSum op(n);
    op.add_term({0.375, -0.125}, PauliString(n));
    std::vector<PauliString> x_shapes;
    for (std::size_t t = 0; t < terms; ++t) {
        PauliString p(n);
        for (std::size_t q = 0; q < n; ++q) {
            p.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(0, 3)));
        }
        // Every third term reuses an earlier term's X mask with fresh
        // Z bits.
        if (!x_shapes.empty() && t % 3 == 0) {
            const PauliString& shape = x_shapes[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(
                                       x_shapes.size()) - 1))];
            for (std::size_t q = 0; q < n; ++q) {
                p.set_x_bit(q, shape.x_bit(q));
            }
        }
        x_shapes.push_back(p);
        op.add_term({rng.normal(), rng.normal()}, p);
    }
    return op;
}

Circuit
random_circuit(std::size_t n, int gates, std::uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    for (int g = 0; g < gates; ++g) {
        const auto q = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        auto q2 = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (q2 == q) {
            q2 = (q + 1) % n;
        }
        // One-qubit circuits draw only the single-qubit gates.
        switch (rng.uniform_int(0, n == 1 ? 4 : 8)) {
          case 0: c.h(q); break;
          case 1: c.s(q); break;
          case 2: c.rx(q, rng.uniform_real(0, 6.28)); break;
          case 3: c.ry(q, rng.uniform_real(0, 6.28)); break;
          case 4: c.rz(q, rng.uniform_real(0, 6.28)); break;
          case 5: c.cx(q, q2); break;
          case 6: c.cz(q, q2); break;
          case 7: c.swap(q, q2); break;
          default: c.rzz(q, q2, rng.uniform_real(0, 6.28)); break;
        }
    }
    return c;
}

std::vector<double>
random_params(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> params(count);
    for (auto& p : params) {
        p = rng.uniform_real(-3.2, 3.2);
    }
    return params;
}

/** True when every element of the two matrices has identical bits. */
bool
same_matrix(const DensityMatrix& got, reference::DensityMatrix& want)
{
    for (std::size_t r = 0; r < got.dim(); ++r) {
        for (std::size_t c = 0; c < got.dim(); ++c) {
            const std::complex<double> a = got.at(r, c);
            const std::complex<double> b = want.at(r, c);
            if (std::memcmp(&a, &b, sizeof a) != 0) {
                return false;
            }
        }
    }
    return true;
}

/** True when the two states' amplitudes have identical bits. */
bool
same_state(const Statevector& got, const Statevector& want)
{
    return got.dim() == want.dim() &&
           std::memcmp(got.amplitudes().data(), want.amplitudes().data(),
                       got.dim() * sizeof(Complex)) == 0;
}

// ------------------------------------------------------------ statevector

TEST(DenseKernels, StatevectorGatesMatchByBits)
{
    for (const std::size_t n : {1, 2, 7, 12}) {
        const Circuit c = random_circuit(n, 60, 50 + n);
        Statevector got(n);
        got.apply_circuit(c);
        EXPECT_TRUE(same_state(got, reference::prepare(c))) << n;
    }
    for (const char* key : {"molecule:H2O", "tfim:chain-8"}) {
        const problems::Problem problem = problems::make_problem(key);
        const auto params = random_params(problem.ansatz.num_params(), 4);
        IdealEvaluator ideal(problem.ansatz);
        ideal.prepare(params);
        const Statevector want = reference::prepare(problem.ansatz, params);
        EXPECT_TRUE(same_state(ideal.state(), want)) << key;
    }
}

TEST(DenseKernels, StatevectorRandomSumsMatchByBits)
{
    // 17 and 18 qubits take the parity path above the 16-bit table.
    for (const std::size_t n : {1, 7, 12, 17, 18}) {
        const Statevector psi = random_state(n, 100 + n);
        const PauliSum op = random_sum(n, n > 12 ? 24 : 60, 200 + n);
        const double want = reference::statevector_expectation(psi, op);
        EXPECT_SAME_BITS(psi.expectation(CompiledPauliSum(op)), want)
            << n << " qubits";
        EXPECT_SAME_BITS(psi.expectation(op), want) << n << " qubits";
    }
}

TEST(DenseKernels, CompiledFormGroupsByXMaskInFirstSeenOrder)
{
    const PauliSum op = PauliSum::from_terms(
        3, {{1.0, "XIZ"}, {0.5, "ZZI"}, {0.25, "YIZ"}, {2.0, "IZZ"},
            {0.125, "XII"}});
    const CompiledPauliSum compiled(op);
    ASSERT_EQ(compiled.x_groups().size(), 2u);
    EXPECT_EQ(compiled.x_groups()[0].x, 1u);
    EXPECT_EQ(compiled.x_groups()[0].terms,
              (std::vector<std::uint32_t>{0, 2, 4}));
    EXPECT_EQ(compiled.x_groups()[1].x, 0u);
    EXPECT_EQ(compiled.x_groups()[1].terms,
              (std::vector<std::uint32_t>{1, 3}));
    EXPECT_EQ(compiled.terms()[2].support, 5u); // Y on 0, Z on 2
    EXPECT_EQ(compiled.terms()[2].phase, 1u);   // Y = i X Z
    EXPECT_EQ(compiled.measurement_groups().size(),
              group_qubitwise_commuting(op).size());
}

TEST(DenseKernels, ProblemHamiltoniansMatchByBits)
{
    for (const char* key : {"molecule:H2O", "molecule:H6", "tfim:chain-8",
                            "tfim:chain-10?h=1.25"}) {
        const problems::Problem problem = problems::make_problem(key);
        const PauliSum& h = problem.hamiltonian();
        IdealEvaluator ideal(problem.ansatz);
        for (std::uint64_t seed = 0; seed < 3; ++seed) {
            ideal.prepare(random_params(problem.ansatz.num_params(), seed));
            EXPECT_SAME_BITS(
                ideal.expectation(h),
                reference::statevector_expectation(ideal.state(), h))
                << key << " seed " << seed;
        }
        const Statevector psi = random_state(problem.num_qubits, 7);
        EXPECT_SAME_BITS(psi.expectation(h),
                         reference::statevector_expectation(psi, h))
            << key;
    }
}

TEST(DenseKernels, CloneSharedCompiledFormsMatchAcrossThreads)
{
    const problems::Problem problem = problems::make_problem("molecule:H6");
    const PauliSum& h = problem.hamiltonian();
    IdealEvaluator prototype(problem.ansatz);
    prototype.prepare(random_params(problem.ansatz.num_params(), 3));
    const double want =
        reference::statevector_expectation(prototype.state(), h);
    EXPECT_SAME_BITS(prototype.expectation(h), want); // compiles once

    ThreadPool pool(4);
    std::vector<std::unique_ptr<Backend>> clones;
    for (std::size_t w = 0; w < pool.size(); ++w) {
        clones.push_back(prototype.clone());
    }
    std::vector<double> got(16);
    pool.parallel_for(got.size(), [&](std::size_t worker, std::size_t i) {
        auto& backend = static_cast<IdealEvaluator&>(*clones[worker]);
        got[i] = backend.expectation(h);
    });
    for (const double value : got) {
        EXPECT_SAME_BITS(value, want);
    }
}

TEST(DenseKernels, PooledExpectationMatchesSerialByBits)
{
    struct Case
    {
        std::string label;
        Statevector psi;
        PauliSum op;
    };
    std::vector<Case> cases;
    for (const std::size_t n : {10, 12, 17}) {
        cases.push_back({std::to_string(n) + " qubits",
                         random_state(n, 300 + n),
                         random_sum(n, n > 12 ? 24 : 300, 400 + n)});
    }
    const problems::Problem h2o = problems::make_problem("molecule:H2O");
    cases.push_back({"H2O", random_state(h2o.num_qubits, 5),
                     h2o.hamiltonian()});
    for (const std::size_t workers : {1, 2, 3}) {
        ThreadPool pool(workers);
        for (const Case& c : cases) {
            const CompiledPauliSum compiled(c.op);
            // Large enough that the pool splits the groups.
            ASSERT_GE(c.psi.dim() * compiled.terms().size(),
                      kPooledKernelWork)
                << c.label;
            EXPECT_SAME_BITS(c.psi.expectation(compiled, &pool),
                             c.psi.expectation(compiled))
                << c.label << ", " << workers << " workers";
        }
    }
}

TEST(DenseKernels, PooledEvaluatorClonesMatchSerialInsideTheirPool)
{
    // The tune's probe fan-out: clones of a pooled evaluator measure on
    // the pool's own workers, where the split runs inline.
    const problems::Problem problem = problems::make_problem("molecule:H2O");
    const PauliSum& h = problem.hamiltonian();
    ThreadPool pool(2);
    IdealEvaluator serial(problem.ansatz);
    IdealEvaluator pooled(problem.ansatz, &pool);
    std::vector<std::vector<double>> points;
    std::vector<double> want;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        points.push_back(random_params(problem.ansatz.num_params(), seed));
        serial.prepare(points.back());
        want.push_back(serial.expectation(h));
    }
    pooled.prepare(points.front());
    EXPECT_SAME_BITS(pooled.expectation(h), want.front());

    std::vector<std::unique_ptr<ContinuousBackend>> clones(pool.size());
    std::vector<double> got(points.size());
    pool.parallel_for(points.size(), [&](std::size_t worker, std::size_t i) {
        auto& clone = clones[worker];
        if (!clone) {
            clone = pooled.clone_continuous();
        }
        clone->prepare(points[i]);
        got[i] = clone->expectation(h);
    });
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_SAME_BITS(got[i], want[i]) << "point " << i;
    }
}

// ---------------------------------------------------------------- sampled

TEST(DenseKernels, SampledConsecutiveCallsMatchByBits)
{
    struct Case
    {
        const char* key;
        std::size_t shots;
    };
    for (const Case& c : {Case{"molecule:H6", 128}, Case{"tfim:chain-8", 512},
                          Case{"molecule:LiH?bond=2.4", 256}}) {
        const problems::Problem problem = problems::make_problem(c.key);
        const PauliSum& h = problem.hamiltonian();
        const std::uint64_t seed = 41;
        SampledEvaluator sampled(problem.ansatz, c.shots, seed);
        std::mt19937_64 oracle_rng(seed);
        for (std::uint64_t call = 0; call < 4; ++call) {
            const auto params =
                random_params(problem.ansatz.num_params(), call);
            sampled.prepare(params);
            const Statevector psi = reference::prepare(problem.ansatz, params);
            // Two calls per prepared state: the second one continues
            // the generator's stream.
            for (int repeat = 0; repeat < 2; ++repeat) {
                EXPECT_SAME_BITS(sampled.expectation(h),
                                 reference::sampled_expectation(
                                     psi, h, c.shots, oracle_rng))
                    << c.key << " call " << call << " repeat " << repeat;
            }
        }
        // A clone continues from the copied generator state.
        const auto params = random_params(problem.ansatz.num_params(), 9);
        auto clone = sampled.clone();
        auto& copy = static_cast<SampledEvaluator&>(*clone);
        copy.prepare(params);
        const Statevector psi = reference::prepare(problem.ansatz, params);
        EXPECT_SAME_BITS(copy.expectation(h),
                         reference::sampled_expectation(psi, h, c.shots,
                                                        oracle_rng))
            << c.key << " clone";
    }
}

TEST(DenseKernels, SampledRandomSumsMatchByBits)
{
    // Y letters, an identity term and complex coefficients (the
    // estimator reads their real parts).
    for (const std::size_t n : {1, 5, 9}) {
        const Circuit ansatz = random_circuit(n, 30, n);
        const PauliSum op = random_sum(n, 40, 300 + n);
        SampledEvaluator sampled(ansatz, 200, 5);
        std::mt19937_64 oracle_rng(5);
        sampled.prepare({});
        const Statevector psi = reference::prepare(ansatz);
        for (int call = 0; call < 3; ++call) {
            EXPECT_SAME_BITS(
                sampled.expectation(op),
                reference::sampled_expectation(psi, op, 200, oracle_rng))
                << n << " qubits, call " << call;
        }
    }
}

TEST(DenseKernels, PooledSampledMatchesSerialByBits)
{
    // The tune's H6 spec: split measured groups, each run of them from a
    // generator jumped to its first draw.
    const problems::Problem problem = problems::make_problem("molecule:H6");
    const PauliSum& h = problem.hamiltonian();
    constexpr std::size_t kShots = 4096;
    constexpr std::uint64_t kSeed = 77;
    const CompiledPauliSum compiled(h);
    std::size_t measured = 0;
    for (const MeasurementGroup& group : compiled.measurement_groups()) {
        measured += group.basis.is_identity_letters() ? 0 : 1;
    }
    // Large enough that the pool splits the groups.
    ASSERT_GE(measured * ((std::size_t{1} << problem.num_qubits) + kShots),
              kPooledKernelWork);
    const std::vector<std::vector<double>> points = {
        std::vector<double>(problem.ansatz.num_params(), 0.0),
        random_params(problem.ansatz.num_params(), 21)};
    for (const std::size_t workers : {1, 2, 3}) {
        ThreadPool pool(workers);
        SampledEvaluator serial(problem.ansatz, kShots, kSeed);
        SampledEvaluator pooled(problem.ansatz, kShots, kSeed, &pool);
        for (std::size_t p = 0; p < points.size(); ++p) {
            serial.prepare(points[p]);
            pooled.prepare(points[p]);
            // Two calls per point: the second one starts where the split
            // call left the generator.
            for (int repeat = 0; repeat < 2; ++repeat) {
                const double got = pooled.expectation(h);
                const double want = serial.expectation(h);
                EXPECT_SAME_BITS(got, want)
                    << "; " << workers << " workers, point " << p
                    << " repeat " << repeat;
            }
        }
    }
}

// ---------------------------------------------------------------- density

TEST(DenseKernels, DensityGatesAndNoiseMatchByBits)
{
    const NoiseModel models[] = {NoiseModel{}, noise_model_casablanca(),
                                 noise_model_manhattan()};
    for (const std::size_t n : {1, 2, 3, 5, 6}) {
        for (const NoiseModel& noise : models) {
            const Circuit c = random_circuit(n, n == 1 ? 12 : 40, 17 * n);
            const DensityMatrix got = simulate_noisy(c, {}, noise);
            reference::DensityMatrix want =
                reference::simulate_noisy(c, {}, noise);
            EXPECT_TRUE(same_matrix(got, want))
                << n << " qubits, noise " << noise.name;
        }
    }
}

TEST(DenseKernels, DensityChannelsMatchByBits)
{
    const std::size_t n = 4;
    const Circuit c = random_circuit(n, 30, 8);
    DensityMatrix got(n);
    reference::DensityMatrix want(n);
    for (const auto& op : c.ops()) {
        got.apply(op);
        want.apply(op);
    }
    // Non-unitary Kraus operators with complex entries on every qubit.
    Rng rng(12);
    for (std::size_t q = 0; q < n; ++q) {
        std::vector<std::array<std::complex<double>, 4>> kraus(3);
        for (auto& k : kraus) {
            for (auto& entry : k) {
                entry = {0.5 * rng.normal(), 0.5 * rng.normal()};
            }
        }
        got.apply_kraus_1q(kraus, q);
        want.apply_kraus_1q(kraus, q);
        ASSERT_TRUE(same_matrix(got, want)) << "kraus on qubit " << q;
        got.depolarize_1q(q, 0.05 + 0.1 * static_cast<double>(q));
        want.depolarize_1q(q, 0.05 + 0.1 * static_cast<double>(q));
        ASSERT_TRUE(same_matrix(got, want)) << "depolarize_1q on " << q;
        got.depolarize_2q(q, (q + 2) % n, 0.2);
        want.depolarize_2q(q, (q + 2) % n, 0.2);
        ASSERT_TRUE(same_matrix(got, want)) << "depolarize_2q on " << q;
        got.amplitude_damp(q, 0.3);
        want.amplitude_damp(q, 0.3);
        ASSERT_TRUE(same_matrix(got, want)) << "amplitude_damp on " << q;
    }
}

TEST(DenseKernels, DensityProblemPrepareMatchesByBits)
{
    const problems::Problem problem = problems::make_problem("tfim:chain-8");
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
        const auto params = random_params(problem.ansatz.num_params(), seed);
        const DensityMatrix got =
            simulate_noisy(problem.ansatz, params, NoiseModel{});
        reference::DensityMatrix want =
            reference::simulate_noisy(problem.ansatz, params, NoiseModel{});
        EXPECT_TRUE(same_matrix(got, want)) << "seed " << seed;
    }
}

// ------------------------------------------------------------------ lanczos

/** Random Hermitian sum over all four letters with real coefficients,
 *  except that with `imaginary` every fourth string appears twice, as
 *  (a + ib) P and then (-ib) P: complex coefficients whose imaginary
 *  parts cancel in the operator. Every third term reuses an earlier
 *  term's X mask. */
PauliSum
random_hermitian_sum(std::size_t n, std::size_t terms, std::uint64_t seed,
                     bool imaginary)
{
    Rng rng(seed);
    PauliSum op(n);
    std::vector<PauliString> x_shapes;
    for (std::size_t t = 0; t < terms; ++t) {
        PauliString p(n);
        for (std::size_t q = 0; q < n; ++q) {
            p.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(0, 3)));
        }
        if (!x_shapes.empty() && t % 3 == 0) {
            const PauliString& shape = x_shapes[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(
                                       x_shapes.size()) - 1))];
            for (std::size_t q = 0; q < n; ++q) {
                p.set_letter(q, PauliLetter::I);
                if (shape.x_bit(q)) {
                    p.set_letter(q, rng.uniform_int(0, 1) == 0
                                        ? PauliLetter::X
                                        : PauliLetter::Y);
                } else if (rng.uniform_int(0, 1) == 0) {
                    p.set_letter(q, PauliLetter::Z);
                }
            }
        }
        x_shapes.push_back(p);
        const double a = rng.normal();
        if (imaginary && t % 4 == 3) {
            const double b = rng.normal();
            op.add_term({a, b}, p);
            op.add_term({0.0, -b}, p);
        } else {
            op.add_term(a, p);
        }
    }
    return op;
}

std::vector<Complex>
random_vector(std::size_t n, std::uint64_t seed)
{
    return random_state(n, seed).amplitudes();
}

bool
same_vector(const std::vector<Complex>& got, const std::vector<Complex>& want)
{
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(),
                       got.size() * sizeof(Complex)) == 0;
}

/** Library solve and oracle loop agree by bits in every field. */
void
expect_same_solve(const PauliSum& h, const LanczosOptions& options,
                  const std::string& label)
{
    const GroundState got = lanczos_ground_state(h, options);
    const GroundState want = reference::lanczos_ground_state(h, options);
    EXPECT_SAME_BITS(got.energy, want.energy) << label;
    EXPECT_EQ(got.iterations, want.iterations) << label;
    EXPECT_EQ(got.converged, want.converged) << label;
    EXPECT_SAME_BITS(got.ritz_change, want.ritz_change) << label;
}

TEST(LanczosKernels, CompiledMatvecMatchesOracleByBitsOnRandomSums)
{
    // 17 qubits is the first size with two 2^16-state parity blocks.
    for (std::size_t n = 1; n <= 17; ++n) {
        const PauliSum h =
            random_hermitian_sum(n, n <= 12 ? 40 : 12, n, true);
        ASSERT_GT(h.max_imag_coefficient(), 0.0) << n;
        // Accumulates onto a nonzero y, as the oracle does.
        const std::vector<Complex> x = random_vector(n, 100 + n);
        std::vector<Complex> got = random_vector(n, 200 + n);
        std::vector<Complex> want = got;
        accumulate_matvec(CompiledPauliSum(h), x, got);
        reference::accumulate_apply(h, x, want);
        EXPECT_TRUE(same_vector(got, want)) << n << " qubits";
    }
}

TEST(LanczosKernels, CompiledMatvecMatchesOracleByBitsOnProblems)
{
    for (const char* key : {"molecule:H2", "molecule:LiH", "molecule:H6",
                            "molecule:BeH2", "molecule:H2O",
                            "tfim:chain-12"}) {
        const problems::Problem problem = problems::make_problem(key);
        const PauliSum& h = problem.hamiltonian();
        const std::vector<Complex> x = random_vector(problem.num_qubits, 3);
        std::vector<Complex> got(x.size());
        std::vector<Complex> want(x.size());
        accumulate_matvec(CompiledPauliSum(h), x, got);
        reference::accumulate_apply(h, x, want);
        EXPECT_TRUE(same_vector(got, want)) << key;
    }
}

TEST(LanczosKernels, PooledMatvecMatchesSerialByBits)
{
    struct Case
    {
        std::string label;
        PauliSum h;
    };
    std::vector<Case> cases;
    for (const std::size_t n : {10, 11, 12}) {
        cases.push_back({std::to_string(n) + " qubits",
                         random_hermitian_sum(n, 300, 60 + n, true)});
    }
    // Above 16 qubits: at 17, every slice lies inside one 2^16 parity
    // block and most start off its boundary; at 20, every slice spans
    // several blocks.
    cases.push_back({"17 qubits", random_hermitian_sum(17, 6, 77, true)});
    cases.push_back({"20 qubits", random_hermitian_sum(20, 2, 80, true)});
    cases.push_back(
        {"H2O", problems::make_problem("molecule:H2O").hamiltonian()});
    for (const std::size_t workers : {1, 2, 3}) {
        ThreadPool pool(workers);
        for (const Case& c : cases) {
            const CompiledPauliSum compiled(c.h);
            const std::size_t n = c.h.num_qubits();
            // Large enough that the pool splits the destination range.
            ASSERT_GE((std::size_t{1} << n) * compiled.terms().size(),
                      kPooledKernelWork)
                << c.label;
            // Accumulates onto a nonzero y.
            const std::vector<Complex> x = random_vector(n, 500 + n);
            std::vector<Complex> got = random_vector(n, 600 + n);
            std::vector<Complex> want = got;
            accumulate_matvec(compiled, x, got, &pool);
            accumulate_matvec(compiled, x, want);
            EXPECT_TRUE(same_vector(got, want))
                << c.label << ", " << workers << " workers";
        }
    }
}

TEST(LanczosKernels, PooledGroundStateMatchesSerialByBits)
{
    // BeH2 restricted to its own electron-number sector, so the pooled
    // matvecs run between the projections of a filtered solve.
    const auto beh2 = problems::make_molecular_system("BeH2", 1.3);
    LanczosOptions serial;
    serial.basis_filter = problems::sector_filter(beh2);
    const GroundState want = lanczos_ground_state(beh2.hamiltonian, serial);
    ASSERT_TRUE(want.converged);
    ThreadPool pool(2);
    LanczosOptions pooled = serial;
    pooled.pool = &pool;
    const GroundState got = lanczos_ground_state(beh2.hamiltonian, pooled);
    EXPECT_SAME_BITS(got.energy, want.energy);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.converged, want.converged);
    EXPECT_SAME_BITS(got.ritz_change, want.ritz_change);
}

TEST(LanczosKernels, GroundStateMatchesOracleLoopByBits)
{
    for (const char* key : {"molecule:H2", "molecule:LiH", "molecule:H6",
                            "molecule:BeH2", "molecule:H2O",
                            "tfim:chain-12"}) {
        const problems::Problem problem = problems::make_problem(key);
        expect_same_solve(problem.hamiltonian(), {}, key);
    }

    // H2O stretched to 2.6 A, where the lowest Ritz value settles
    // slowly: stopped at a cap, which always ends on the Jacobi values.
    LanczosOptions stretched;
    stretched.max_iterations = 40;
    expect_same_solve(
        problems::make_molecular_system("H2O", 2.6).hamiltonian, stretched,
        "H2O at 2.6 A, capped");

    // A tolerance equal to a Ritz change the solve meets puts that
    // iteration inside the bisection guard band, so the Jacobi values
    // decide the stop: a change equal to the tolerance goes on, and a
    // change one ulp below it stops there.
    const problems::Problem h6_problem = problems::make_problem("molecule:H6");
    const PauliSum& h6 = h6_problem.hamiltonian();
    LanczosOptions first;
    first.max_iterations = 30;
    const GroundState probe = lanczos_ground_state(h6, first);
    ASSERT_FALSE(probe.converged);
    LanczosOptions at_change;
    at_change.tolerance = probe.ritz_change;
    expect_same_solve(h6, at_change, "H6, tolerance = Ritz change");
    LanczosOptions above_change;
    above_change.tolerance =
        std::nextafter(probe.ritz_change,
                       std::numeric_limits<double>::infinity());
    expect_same_solve(h6, above_change, "H6, tolerance above Ritz change");
    EXPECT_EQ(lanczos_ground_state(h6, above_change).iterations,
              first.max_iterations);

    // A sector-restricted solve: the LiH cation's (charge 1) sector.
    problems::MolecularSystemOptions cation;
    cation.sector_charge = 1;
    cation.sector_spin_2sz = 1;
    const auto lih = problems::make_molecular_system("LiH", 1.6, cation);
    LanczosOptions sector;
    sector.basis_filter = problems::sector_filter(lih);
    expect_same_solve(lih.hamiltonian, sector, "LiH charge=1 sector");

    // Real random sums, to convergence and stopped at a small cap.
    for (std::size_t n = 2; n <= 8; ++n) {
        const PauliSum h = random_hermitian_sum(n, 30, 50 + n, false);
        LanczosOptions capped;
        capped.max_iterations = 3;
        capped.seed = n;
        expect_same_solve(h, {}, std::to_string(n) + " qubits");
        expect_same_solve(h, capped, std::to_string(n) + " qubits, capped");
    }
}

TEST(LanczosKernels, ConvergedFlagsTheIterationCap)
{
    const problems::Problem h6 = problems::make_problem("molecule:H6");
    const GroundState full = lanczos_ground_state(h6.hamiltonian());
    EXPECT_TRUE(full.converged);
    EXPECT_LT(full.ritz_change, LanczosOptions{}.tolerance);
    EXPECT_LT(full.iterations, LanczosOptions{}.max_iterations);

    LanczosOptions capped;
    capped.max_iterations = 5;
    const GroundState stopped = lanczos_ground_state(h6.hamiltonian(),
                                                     capped);
    EXPECT_FALSE(stopped.converged);
    EXPECT_EQ(stopped.iterations, 5u);
    EXPECT_GE(stopped.ritz_change, capped.tolerance);

    // An invariant subspace ends the solve exactly: Z on one qubit.
    const GroundState exact =
        lanczos_ground_state(PauliSum::from_terms(1, {{1.0, "Z"}}));
    EXPECT_TRUE(exact.converged);
    EXPECT_DOUBLE_EQ(exact.energy, -1.0);
}

// ----------------------------------------------------- observable identity

std::size_t
colliding_hash(const PauliSum&)
{
    return 42;
}

TEST(ObservableMemo, HashCollisionKeepsObservablesApart)
{
    const PauliSum zz = PauliSum::from_terms(2, {{1.0, "ZZ"}});
    const PauliSum xx = PauliSum::from_terms(2, {{1.0, "XX"}});
    const PauliSum zz_scaled = PauliSum::from_terms(2, {{2.0, "ZZ"}});

    ObservableMemo<CompiledPauliSum, colliding_hash> memo;
    const CompiledPauliSum& a = memo.get(zz);
    const CompiledPauliSum& b = memo.get(xx);
    const CompiledPauliSum& c = memo.get(zz_scaled);
    EXPECT_NE(&a, &b);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(&memo.get(PauliSum::from_terms(2, {{1.0, "ZZ"}})), &a);
    EXPECT_EQ(memo.size(), 3u);

    // |00>: <ZZ> = 1, <XX> = 0, <2 ZZ> = 2.
    const Statevector psi(2);
    EXPECT_EQ(psi.expectation(a), 1.0);
    EXPECT_EQ(psi.expectation(b), 0.0);
    EXPECT_EQ(psi.expectation(c), 2.0);

    // A copy shares the compiled forms and then grows on its own.
    auto copy = memo;
    EXPECT_EQ(&copy.get(xx), &b);
    copy.get(PauliSum::from_terms(2, {{1.0, "YY"}}));
    EXPECT_EQ(copy.size(), 4u);
    EXPECT_EQ(memo.size(), 3u);
}

TEST(ObservableMemo, StabilizerEnginesUnderCollisionStayDistinct)
{
    // The memo template also backs CliffordEvaluator's engine lookup.
    const PauliSum zz = PauliSum::from_terms(2, {{1.0, "ZZ"}});
    const PauliSum xx = PauliSum::from_terms(2, {{-0.5, "XX"}});
    ObservableMemo<StabilizerExpectationEngine, colliding_hash> memo;
    const SymplecticTableau zeros(2);
    EXPECT_EQ(memo.get(zz).expectation(zeros), 1.0);
    EXPECT_EQ(memo.get(xx).expectation(zeros), 0.0);
    EXPECT_EQ(memo.size(), 2u);
}

TEST(ObservableMemo, SignedZeroCoefficientsAreDistinctObservables)
{
    PauliSum plus(1);
    plus.add_term({0.0, 0.0}, PauliString::from_label("Z"));
    PauliSum minus(1);
    minus.add_term({-0.0, 0.0}, PauliString::from_label("Z"));
    EXPECT_EQ(observable_hash(plus), observable_hash(minus));
    EXPECT_FALSE(same_observable(plus, minus));
    EXPECT_TRUE(same_observable(plus, plus));
}

} // namespace
} // namespace cafqa
