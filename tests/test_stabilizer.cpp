// Tests for the stabilizer tableau, including exhaustive cross-validation
// against the dense statevector simulator on random Clifford circuits.
// Because the expectation values of all 4^n Pauli strings fully determine
// an n-qubit state, agreement over all strings is complete state
// tomography — the strongest possible equivalence check.

#include <gtest/gtest.h>

#include <numbers>

#include "circuit/circuit.hpp"
#include "circuit/efficient_su2.hpp"
#include "common/rng.hpp"
#include "reference_tableau.hpp"
#include "stabilizer/stabilizer_simulator.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {
namespace {

using reference::Tableau;

constexpr double half_pi = std::numbers::pi / 2.0;

TEST(Tableau, InitialStateIsAllZeros)
{
    Tableau t(3);
    EXPECT_TRUE(t.check_invariants());
    EXPECT_EQ(t.expectation(PauliString::from_label("ZII")), 1);
    EXPECT_EQ(t.expectation(PauliString::from_label("IZI")), 1);
    EXPECT_EQ(t.expectation(PauliString::from_label("ZZZ")), 1);
    EXPECT_EQ(t.expectation(PauliString::from_label("XII")), 0);
    EXPECT_EQ(t.expectation(PauliString::from_label("YII")), 0);
    EXPECT_EQ(t.expectation(PauliString::from_label("-ZII")), -1);
}

TEST(Tableau, BellState)
{
    Tableau t(2);
    t.h(0);
    t.cx(0, 1);
    EXPECT_TRUE(t.check_invariants());
    EXPECT_EQ(t.expectation(PauliString::from_label("XX")), 1);
    EXPECT_EQ(t.expectation(PauliString::from_label("ZZ")), 1);
    EXPECT_EQ(t.expectation(PauliString::from_label("YY")), -1);
    EXPECT_EQ(t.expectation(PauliString::from_label("ZI")), 0);
    EXPECT_EQ(t.expectation(PauliString::from_label("XI")), 0);
}

TEST(Tableau, XGateFlipsZ)
{
    Tableau t(1);
    t.x(0);
    EXPECT_EQ(t.expectation(PauliString::from_label("Z")), -1);
    t.h(0);
    EXPECT_EQ(t.expectation(PauliString::from_label("X")), -1);
}

TEST(Tableau, SGateMapsPlusToPlusI)
{
    Tableau t(1);
    t.h(0); // |+>
    EXPECT_EQ(t.expectation(PauliString::from_label("X")), 1);
    t.s(0); // |+i>
    EXPECT_EQ(t.expectation(PauliString::from_label("Y")), 1);
    EXPECT_EQ(t.expectation(PauliString::from_label("X")), 0);
    t.sdg(0);
    EXPECT_EQ(t.expectation(PauliString::from_label("X")), 1);
}

TEST(Tableau, GhzState)
{
    const std::size_t n = 5;
    Tableau t(n);
    t.h(0);
    for (std::size_t q = 0; q + 1 < n; ++q) {
        t.cx(q, q + 1);
    }
    EXPECT_TRUE(t.check_invariants());
    EXPECT_EQ(t.expectation(PauliString::from_label("XXXXX")), 1);
    EXPECT_EQ(t.expectation(PauliString::from_label("ZZIII")), 1);
    EXPECT_EQ(t.expectation(PauliString::from_label("ZIIIZ")), 1);
    EXPECT_EQ(t.expectation(PauliString::from_label("ZIIII")), 0);
    EXPECT_EQ(t.expectation(PauliString::from_label("YYXXX")), -1);
}

TEST(StabilizerSimulator, AngleToSteps)
{
    EXPECT_EQ(StabilizerSimulator::angle_to_steps(0.0), 0);
    EXPECT_EQ(StabilizerSimulator::angle_to_steps(half_pi), 1);
    EXPECT_EQ(StabilizerSimulator::angle_to_steps(2 * half_pi), 2);
    EXPECT_EQ(StabilizerSimulator::angle_to_steps(3 * half_pi), 3);
    EXPECT_EQ(StabilizerSimulator::angle_to_steps(4 * half_pi), 0);
    EXPECT_EQ(StabilizerSimulator::angle_to_steps(-half_pi), 3);
    EXPECT_THROW(StabilizerSimulator::angle_to_steps(1.0),
                 std::invalid_argument);
}

TEST(StabilizerSimulator, AngleToStepsIsRelativeAware)
{
    // Accumulated multiples of pi/2: the double representation of
    // m * (pi/2) carries an absolute error that grows with m and blows
    // past any fixed tolerance, yet the angle is an exact quarter-turn
    // by construction. A relative-aware check must accept every one.
    for (std::int64_t m = 1000000; m < 1000100; ++m) {
        const double angle = static_cast<double>(m) * half_pi;
        EXPECT_EQ(StabilizerSimulator::angle_to_steps(angle),
                  static_cast<int>(m % 4))
            << "m=" << m;
    }
    // ...including negative accumulations.
    EXPECT_EQ(StabilizerSimulator::angle_to_steps(-1000001.0 * half_pi), 3);

    // The other direction: genuinely non-Clifford offsets must still
    // throw, whether the base angle is small...
    EXPECT_THROW(StabilizerSimulator::angle_to_steps(0.01),
                 std::invalid_argument);
    EXPECT_THROW(StabilizerSimulator::angle_to_steps(half_pi + 1e-4),
                 std::invalid_argument);
    // ...or a large accumulated multiple with a real offset on top
    // (the relative slack at 1e6 quarter-turns is ~1e-3 turns, far
    // below the 0.05-turn offset here).
    EXPECT_THROW(
        StabilizerSimulator::angle_to_steps(1000000.0 * half_pi +
                                            0.05 * half_pi),
        std::invalid_argument);
}

TEST(StabilizerSimulator, RejectsTGates)
{
    Circuit c(1);
    c.t(0);
    StabilizerSimulator sim(1);
    EXPECT_THROW(sim.apply_circuit(c), std::invalid_argument);
}

TEST(StabilizerSimulator, MicrobenchmarkCliffordPoints)
{
    // <XX> on the Fig. 5 ansatz equals sin(theta):
    // steps {0,1,2,3} -> {0, +1, 0, -1}.
    const Circuit ansatz = make_microbenchmark_ansatz();
    const PauliSum xx = PauliSum::from_terms(2, {{1.0, "XX"}});
    const int expected[4] = {0, 1, 0, -1};
    for (int k = 0; k < 4; ++k) {
        StabilizerSimulator sim(2);
        sim.apply_circuit_steps(ansatz, {k});
        EXPECT_NEAR(sim.expectation(xx), expected[k], 1e-12) << "k=" << k;
    }
}

/**
 * Property test: a random Clifford circuit applied both to the tableau and
 * to the statevector must give identical expectations for every Pauli
 * string on n qubits (full tomographic equivalence).
 */
class CliffordCrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(CliffordCrossValidation, AllPauliExpectationsMatch)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 3;

    Circuit circuit(n);
    const int gate_count = 30;
    for (int g = 0; g < gate_count; ++g) {
        const int choice = static_cast<int>(rng.uniform_int(0, 12));
        const auto q = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        auto q2 = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (q2 == q) {
            q2 = (q + 1) % n;
        }
        const int k = static_cast<int>(rng.uniform_int(0, 3));
        switch (choice) {
          case 0: circuit.h(q); break;
          case 1: circuit.s(q); break;
          case 2: circuit.sdg(q); break;
          case 3: circuit.x(q); break;
          case 4: circuit.y(q); break;
          case 5: circuit.z(q); break;
          case 6: circuit.cx(q, q2); break;
          case 7: circuit.rx(q, k * half_pi); break;
          case 8: circuit.ry(q, k * half_pi); break;
          case 9: circuit.cz(q, q2); break;
          case 10: circuit.swap(q, q2); break;
          case 11: circuit.rzz(q, q2, k * half_pi); break;
          default: circuit.rz(q, k * half_pi); break;
        }
    }

    StabilizerSimulator tab(n);
    tab.apply_circuit(circuit);
    EXPECT_TRUE(tab.tableau().check_invariants());

    Statevector psi(n);
    psi.apply_circuit(circuit);

    // Enumerate all 4^n Pauli strings.
    std::size_t num_paulis = 1;
    for (std::size_t q = 0; q < n; ++q) {
        num_paulis *= 4;
    }
    for (std::size_t code = 0; code < num_paulis; ++code) {
        PauliString p(n);
        std::size_t rest = code;
        for (std::size_t q = 0; q < n; ++q) {
            p.set_letter(q, static_cast<PauliLetter>(rest % 4));
            rest /= 4;
        }
        const int tab_value = tab.expectation(p);
        const Complex sv_value = psi.expectation(p);
        EXPECT_NEAR(sv_value.imag(), 0.0, 1e-10);
        EXPECT_NEAR(sv_value.real(), tab_value, 1e-10)
            << "Pauli " << p.to_label();
    }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, CliffordCrossValidation,
                         ::testing::Range(0, 20));

/** Parameterized rotations via integer steps match bound-angle circuits. */
TEST(StabilizerSimulator, StepsMatchBoundAngles)
{
    const std::size_t n = 4;
    const Circuit ansatz = make_efficient_su2(n);
    Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<int> steps(ansatz.num_params());
        std::vector<double> angles(ansatz.num_params());
        for (std::size_t i = 0; i < steps.size(); ++i) {
            steps[i] = static_cast<int>(rng.uniform_int(0, 3));
            angles[i] = steps[i] * half_pi;
        }
        StabilizerSimulator a(n);
        a.apply_circuit_steps(ansatz, steps);
        StabilizerSimulator b(n);
        b.apply_circuit(ansatz, angles);
        Rng prng(trial);
        for (int probe = 0; probe < 50; ++probe) {
            PauliString p(n);
            for (std::size_t q = 0; q < n; ++q) {
                p.set_letter(q,
                             static_cast<PauliLetter>(prng.uniform_int(0, 3)));
            }
            EXPECT_EQ(a.expectation(p), b.expectation(p));
        }
    }
}

TEST(StabilizerSimulator, LargeSystemSmoke)
{
    // 80 qubits crosses the 64-bit word boundary; a GHZ-like circuit is
    // still exactly simulable and exposes any word-indexing bugs.
    const std::size_t n = 80;
    StabilizerSimulator sim(n);
    Circuit c(n);
    c.h(0);
    for (std::size_t q = 0; q + 1 < n; ++q) {
        c.cx(q, q + 1);
    }
    sim.apply_circuit(c);

    PauliString all_x(n);
    for (std::size_t q = 0; q < n; ++q) {
        all_x.set_letter(q, PauliLetter::X);
    }
    EXPECT_EQ(sim.expectation(all_x), 1);

    PauliString z_pair(n);
    z_pair.set_letter(0, PauliLetter::Z);
    z_pair.set_letter(79, PauliLetter::Z);
    EXPECT_EQ(sim.expectation(z_pair), 1);

    PauliString single_z(n);
    single_z.set_letter(40, PauliLetter::Z);
    EXPECT_EQ(sim.expectation(single_z), 0);
}

} // namespace
} // namespace cafqa
