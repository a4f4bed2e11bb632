// Tests for the dense statevector simulator and the Lanczos eigensolver.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "../tests/reference_dense.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "statevector/lanczos.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {
namespace {

TEST(Statevector, InitialState)
{
    Statevector psi(3);
    EXPECT_EQ(psi.dim(), 8u);
    EXPECT_NEAR(std::abs(psi.amplitudes()[0]), 1.0, 1e-15);
    EXPECT_NEAR(psi.norm_squared(), 1.0, 1e-15);
}

TEST(Statevector, BasisState)
{
    const Statevector psi = Statevector::basis_state(3, 0b101);
    EXPECT_NEAR(std::abs(psi.amplitudes()[5]), 1.0, 1e-15);
    // Qubit 0 and qubit 2 are |1>.
    EXPECT_NEAR(psi.expectation(PauliString::from_label("ZII")).real(), -1.0,
                1e-15);
    EXPECT_NEAR(psi.expectation(PauliString::from_label("IZI")).real(), 1.0,
                1e-15);
    EXPECT_NEAR(psi.expectation(PauliString::from_label("IIZ")).real(), -1.0,
                1e-15);
}

TEST(Statevector, HadamardAndMeasurementBasis)
{
    Statevector psi(1);
    Circuit c(1);
    c.h(0);
    psi.apply_circuit(c);
    EXPECT_NEAR(psi.expectation(PauliString::from_label("X")).real(), 1.0,
                1e-14);
    EXPECT_NEAR(psi.expectation(PauliString::from_label("Z")).real(), 0.0,
                1e-14);
}

TEST(Statevector, RotationGatesMatchAnalyticForm)
{
    // RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>.
    const double theta = 0.731;
    Statevector psi(1);
    Circuit c(1);
    c.ry(0, theta);
    psi.apply_circuit(c);
    EXPECT_NEAR(psi.amplitudes()[0].real(), std::cos(theta / 2), 1e-14);
    EXPECT_NEAR(psi.amplitudes()[1].real(), std::sin(theta / 2), 1e-14);

    // <Z> = cos(theta), <X> = sin(theta).
    EXPECT_NEAR(psi.expectation(PauliString::from_label("Z")).real(),
                std::cos(theta), 1e-14);
    EXPECT_NEAR(psi.expectation(PauliString::from_label("X")).real(),
                std::sin(theta), 1e-14);
}

TEST(Statevector, ApplyPauliMatchesExpectation)
{
    Rng rng(3);
    const std::size_t n = 3;
    Statevector psi(n);
    Circuit c(n);
    c.ry(0, 0.4);
    c.cx(0, 1);
    c.rz(1, 1.1);
    c.ry(2, 2.2);
    c.cx(1, 2);
    psi.apply_circuit(c);

    for (int trial = 0; trial < 30; ++trial) {
        PauliString p(n);
        for (std::size_t q = 0; q < n; ++q) {
            p.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(0, 3)));
        }
        Statevector applied = psi;
        applied.apply_pauli(p);
        const Complex via_inner = psi.inner(applied);
        const Complex via_expect = psi.expectation(p);
        EXPECT_NEAR(std::abs(via_inner - via_expect), 0.0, 1e-12)
            << p.to_label();
    }
}

TEST(Statevector, PauliSumExpectationLinearity)
{
    Statevector psi(2);
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    psi.apply_circuit(c); // Bell state
    const PauliSum op = PauliSum::from_terms(
        2, {{0.25, "XX"}, {0.5, "ZZ"}, {-1.0, "YY"}, {3.0, "II"}});
    EXPECT_NEAR(psi.expectation(op), 0.25 + 0.5 + 1.0 + 3.0, 1e-13);
}

TEST(Statevector, SwapAndCzGates)
{
    Statevector psi = Statevector::basis_state(2, 0b01);
    Circuit c(2);
    c.swap(0, 1);
    psi.apply_circuit(c);
    EXPECT_NEAR(std::abs(psi.amplitudes()[0b10]), 1.0, 1e-15);

    // CZ phase: |11> picks up -1.
    Statevector phi = Statevector::basis_state(2, 0b11);
    Circuit c2(2);
    c2.cz(0, 1);
    phi.apply_circuit(c2);
    EXPECT_NEAR(phi.amplitudes()[3].real(), -1.0, 1e-15);
}

TEST(Lanczos, TwoQubitXXGroundState)
{
    // H = XX has eigenvalues {+1, +1, -1, -1}.
    const PauliSum h = PauliSum::from_terms(2, {{1.0, "XX"}});
    const GroundState gs = lanczos_ground_state(h);
    EXPECT_NEAR(gs.energy, -1.0, 1e-9);
}

TEST(Lanczos, TransverseFieldIsingChain)
{
    // H = -sum Z_i Z_{i+1} - g sum X_i at g=1 on 6 sites (open chain).
    const std::size_t n = 6;
    PauliSum h(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        PauliString zz(n);
        zz.set_letter(i, PauliLetter::Z);
        zz.set_letter(i + 1, PauliLetter::Z);
        h.add_term(-1.0, zz);
    }
    for (std::size_t i = 0; i < n; ++i) {
        PauliString x(n);
        x.set_letter(i, PauliLetter::X);
        h.add_term(-1.0, x);
    }
    h.simplify();

    const GroundState gs = lanczos_ground_state(h);
    const std::vector<double> dense = reference::dense_spectrum(h);
    EXPECT_NEAR(gs.energy, dense.front(), 1e-8);
}

TEST(Lanczos, RandomHamiltoniansMatchDenseSpectrum)
{
    Rng rng(11);
    for (int trial = 0; trial < 5; ++trial) {
        const std::size_t n = 2 +
            static_cast<std::size_t>(rng.uniform_int(0, 2));
        PauliSum h(n);
        for (int t = 0; t < 12; ++t) {
            PauliString p(n);
            for (std::size_t q = 0; q < n; ++q) {
                p.set_letter(q,
                             static_cast<PauliLetter>(rng.uniform_int(0, 3)));
            }
            h.add_term(rng.normal(), p);
        }
        h.simplify();
        if (h.num_terms() == 0) {
            continue;
        }
        LanczosOptions options;
        options.max_iterations = 200;
        options.tolerance = 1e-12;
        options.seed = 5;
        const GroundState gs = lanczos_ground_state(h, options);
        const std::vector<double> dense = reference::dense_spectrum(h);
        EXPECT_NEAR(gs.energy, dense.front(), 1e-7) << "trial " << trial;
    }
}

TEST(DenseSpectrum, PauliEigenvaluesAreSigns)
{
    const PauliSum h = PauliSum::from_terms(1, {{1.0, "Y"}});
    const std::vector<double> spectrum = reference::dense_spectrum(h);
    ASSERT_EQ(spectrum.size(), 2u);
    EXPECT_NEAR(spectrum[0], -1.0, 1e-10);
    EXPECT_NEAR(spectrum[1], 1.0, 1e-10);
}

} // namespace
} // namespace cafqa
