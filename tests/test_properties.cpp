// Cross-module property tests: randomized invariants that tie the
// subsystems together (algebra laws, simulator equivalences,
// encoding-independent physics, channel contractivity).

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "../tests/reference_dense.hpp"
#include "chem/fermion.hpp"
#include "circuit/efficient_su2.hpp"
#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "density/noise_model.hpp"
#include "mapping/encoding.hpp"
#include "statevector/lanczos.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {
namespace {

PauliString
random_pauli(std::size_t n, Rng& rng)
{
    PauliString p(n);
    for (std::size_t q = 0; q < n; ++q) {
        p.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(0, 3)));
    }
    if (rng.bernoulli(0.5)) {
        p.mul_phase(2);
    }
    return p;
}

class SeededProperty : public ::testing::TestWithParam<int>
{
  protected:
    Rng rng_{static_cast<std::uint64_t>(GetParam()) * 65537 + 3};
};

/** Distributivity of PauliSum products over sums. */
TEST_P(SeededProperty, PauliSumDistributivity)
{
    const std::size_t n = 3;
    auto random_sum = [&](int terms) {
        PauliSum sum(n);
        for (int t = 0; t < terms; ++t) {
            sum.add_term(std::complex<double>{rng_.normal(), rng_.normal()},
                         random_pauli(n, rng_));
        }
        sum.simplify();
        return sum;
    };
    const PauliSum a = random_sum(4);
    const PauliSum b = random_sum(3);
    const PauliSum c = random_sum(3);

    PauliSum lhs = a * (b + c);
    PauliSum rhs = a * b + a * c;
    lhs.simplify();
    rhs.simplify();
    PauliSum diff = lhs - rhs;
    diff.simplify(1e-10);
    EXPECT_EQ(diff.num_terms(), 0u);
}

/** Conjugating a Pauli observable by a circuit leaves <psi|P|psi>
 *  consistent between "evolve the state" and "evolve then measure". */
TEST_P(SeededProperty, HeisenbergConsistency)
{
    const std::size_t n = 3;
    Circuit circuit(n);
    for (int g = 0; g < 12; ++g) {
        const auto q = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        switch (rng_.uniform_int(0, 3)) {
          case 0: circuit.h(q); break;
          case 1: circuit.ry(q, rng_.uniform_real(0, 6.28)); break;
          case 2: circuit.rz(q, rng_.uniform_real(0, 6.28)); break;
          default: circuit.cx(q, (q + 1) % n); break;
        }
    }
    const PauliString p = random_pauli(n, rng_);

    Statevector psi(n);
    psi.apply_circuit(circuit);
    const Complex direct = psi.expectation(p);

    // <psi|P|psi> = <phi|phi'> with |phi> = U|0>, |phi'> = P U|0>.
    Statevector phi = psi;
    phi.apply_pauli(p);
    const Complex via_inner = psi.inner(phi);
    EXPECT_NEAR(std::abs(direct - via_inner), 0.0, 1e-11);
}

/** The two encodings give identical spectra for random quadratic
 *  fermion Hamiltonians H = sum h_pq a^dag_p a_q (h Hermitian). */
TEST_P(SeededProperty, EncodingIndependentQuadraticSpectra)
{
    const std::size_t modes = 4;
    // Random real-symmetric one-body matrix.
    std::vector<std::vector<double>> h(modes, std::vector<double>(modes));
    for (std::size_t p = 0; p < modes; ++p) {
        for (std::size_t q = p; q < modes; ++q) {
            h[p][q] = h[q][p] = rng_.normal();
        }
    }
    auto build = [&](EncodingKind kind) {
        const FermionEncoding enc(kind, modes);
        PauliSum op(modes);
        for (std::size_t p = 0; p < modes; ++p) {
            for (std::size_t q = 0; q < modes; ++q) {
                PauliSum term = enc.creation(p) * enc.annihilation(q);
                term *= h[p][q];
                op += term;
            }
        }
        op.simplify();
        op.chop_to_hermitian(1e-9);
        return op;
    };
    const auto spec_jw = reference::dense_spectrum(build(EncodingKind::JordanWigner));
    const auto spec_parity = reference::dense_spectrum(build(EncodingKind::Parity));
    ASSERT_EQ(spec_jw.size(), spec_parity.size());
    for (std::size_t i = 0; i < spec_jw.size(); ++i) {
        EXPECT_NEAR(spec_jw[i], spec_parity[i], 1e-8);
    }
}

/** Depolarizing noise only shrinks Pauli expectations (contractivity). */
TEST_P(SeededProperty, NoiseContractsExpectations)
{
    const std::size_t n = 2;
    Circuit circuit(n);
    circuit.ry(0, rng_.uniform_real(0, 6.28));
    circuit.cx(0, 1);
    circuit.rz(1, rng_.uniform_real(0, 6.28));
    circuit.ry(1, rng_.uniform_real(0, 6.28));

    const DensityMatrix clean =
        simulate_noisy(circuit, {}, NoiseModel{});
    const DensityMatrix noisy = simulate_noisy(
        circuit, {}, NoiseModel{"test", 0.02, 0.05, 0.0});

    for (int probe = 0; probe < 15; ++probe) {
        PauliString p = random_pauli(n, rng_);
        p.set_phase_exponent(
            static_cast<std::uint8_t>(p.phase_exponent() & 1 ? 1 : 0));
        // Use the canonical Hermitian representative.
        PauliSum op(n);
        op.add_term(1.0, p);
        const double before = std::abs(clean.expectation(op));
        const double after = std::abs(noisy.expectation(op));
        EXPECT_LE(after, before + 1e-10);
    }
    EXPECT_NEAR(noisy.trace(), 1.0, 1e-10);
}

/** Clifford evaluator at quarter-turn angles equals the statevector
 *  evaluator on EfficientSU2, for any observable. */
TEST_P(SeededProperty, EvaluatorEquivalenceOnAnsatz)
{
    const std::size_t n = 4;
    const Circuit ansatz = make_efficient_su2(n);
    std::vector<int> steps(ansatz.num_params());
    for (auto& s : steps) {
        s = static_cast<int>(rng_.uniform_int(0, 3));
    }
    PauliSum op(n);
    for (int t = 0; t < 10; ++t) {
        op.add_term(rng_.normal(), random_pauli(n, rng_));
    }
    op.simplify();
    op.chop_to_hermitian(1e-12);

    CliffordEvaluator clifford(ansatz);
    clifford.prepare(steps);
    IdealEvaluator ideal(ansatz);
    std::vector<double> angles(steps.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        angles[i] = steps[i] * std::numbers::pi / 2.0;
    }
    ideal.prepare(angles);
    EXPECT_NEAR(clifford.expectation(op), ideal.expectation(op), 1e-10);
}

/** Lanczos lower-bounds every Rayleigh quotient sampled from random
 *  product states. */
TEST_P(SeededProperty, GroundEnergyIsVariationalLowerBound)
{
    const std::size_t n = 4;
    PauliSum h(n);
    for (int t = 0; t < 15; ++t) {
        h.add_term(rng_.normal(), random_pauli(n, rng_));
    }
    h.simplify();
    h.chop_to_hermitian(1e-12);
    if (h.num_terms() == 0) {
        GTEST_SKIP();
    }
    const GroundState gs = lanczos_ground_state(h);

    for (int trial = 0; trial < 5; ++trial) {
        Circuit c(n);
        for (std::size_t q = 0; q < n; ++q) {
            c.ry(q, rng_.uniform_real(0, 6.28));
            c.rz(q, rng_.uniform_real(0, 6.28));
        }
        Statevector psi(n);
        psi.apply_circuit(c);
        EXPECT_GE(psi.expectation(h), gs.energy - 1e-7);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty, ::testing::Range(0, 12));

} // namespace
} // namespace cafqa
