// Differential property tests: the column-packed SymplecticTableau and
// batched StabilizerExpectationEngine against the legacy row-based
// Tableau oracle. Both representations are driven through the same
// replay templates, so any divergence is a packing bug, not a dispatch
// difference. Qubit counts deliberately cross the 64-bit word boundary
// (1..130). The whole file runs under the ASan+UBSan CI job like every
// other test binary.

#include <gtest/gtest.h>

#include <iterator>
#include <numbers>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "pauli/grouping.hpp"
#include "reference_tableau.hpp"
#include "stabilizer/circuit_replay.hpp"
#include "stabilizer/expectation_engine.hpp"
#include "stabilizer/stabilizer_simulator.hpp"
#include "stabilizer/symplectic_tableau.hpp"

namespace cafqa {
namespace {

using reference::Tableau;

constexpr double half_pi = std::numbers::pi / 2.0;

/** Random Clifford circuit over the full supported gate set. */
Circuit
random_clifford_circuit(std::size_t n, int gates, Rng& rng)
{
    Circuit circuit(n);
    for (int g = 0; g < gates; ++g) {
        // Single-qubit-only choices for n == 1.
        const int max_choice = n >= 2 ? 12 : 8;
        const int choice = static_cast<int>(rng.uniform_int(0, max_choice));
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
          case 6: circuit.rx(q, k * half_pi); break;
          case 7: circuit.ry(q, k * half_pi); break;
          case 8: circuit.rz(q, k * half_pi); break;
          case 9: circuit.cx(q, q2); break;
          case 10: circuit.cz(q, q2); break;
          case 11: circuit.swap(q, q2); break;
          default: circuit.rzz(q, q2, k * half_pi); break;
        }
    }
    return circuit;
}

/** Random Hermitian Pauli string (random letters, random sign). */
PauliString
random_hermitian_pauli(std::size_t n, Rng& rng, double identity_bias = 0.5)
{
    PauliString p(n);
    for (std::size_t q = 0; q < n; ++q) {
        if (rng.bernoulli(identity_bias)) {
            continue;
        }
        p.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(1, 3)));
    }
    if (rng.bernoulli(0.5)) {
        p.mul_phase(2);
    }
    return p;
}

/** Legacy reference: term loop over the row-based tableau. */
double
legacy_sum_expectation(const Tableau& tableau, const PauliSum& op)
{
    double total = 0.0;
    for (const auto& term : op.terms()) {
        const int e = tableau.expectation(term.string);
        if (e != 0) {
            total += term.coefficient.real() * e;
        }
    }
    return total;
}

/** Qubit counts crossing the word boundary, per the 1-130 contract. */
const std::size_t kQubitCounts[] = {1, 2, 3, 5, 63, 64, 65, 127, 128, 130};

class SymplecticDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SymplecticDifferential, GateForGateRowsMatchLegacyTableau)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 7);
    const std::size_t n =
        kQubitCounts[static_cast<std::size_t>(GetParam()) %
                     std::size(kQubitCounts)];
    const Circuit circuit =
        random_clifford_circuit(n, n >= 64 ? 120 : 60, rng);

    Tableau legacy(n);
    SymplecticTableau packed(n);
    std::size_t applied = 0;
    for (const auto& op : circuit.ops()) {
        replay_gate(legacy, op, is_rotation(op.kind) ? op.angle : 0.0);
        replay_gate(packed, op, is_rotation(op.kind) ? op.angle : 0.0);
        ++applied;
        // Compare every row after each gate on small systems; sample on
        // large ones to keep the quadratic comparison affordable.
        if (n <= 5 || applied % 20 == 0) {
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(packed.destabilizer(i), legacy.destabilizer(i))
                    << "destabilizer " << i << " after gate " << applied;
                ASSERT_EQ(packed.stabilizer(i), legacy.stabilizer(i))
                    << "stabilizer " << i << " after gate " << applied;
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(packed.destabilizer(i), legacy.destabilizer(i));
        ASSERT_EQ(packed.stabilizer(i), legacy.stabilizer(i));
    }
    EXPECT_TRUE(packed.check_invariants());
}

TEST_P(SymplecticDifferential, TermForTermExpectationsMatchLegacyTableau)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 24593 + 3);
    const std::size_t n =
        kQubitCounts[static_cast<std::size_t>(GetParam()) %
                     std::size(kQubitCounts)];

    Tableau legacy(n);
    SymplecticTableau packed(n);
    const Circuit circuit = random_clifford_circuit(n, 80, rng);
    replay_circuit(legacy, circuit);
    replay_circuit(packed, circuit);

    for (int probe = 0; probe < 60; ++probe) {
        // Mix dense and sparse supports; sparse ones are likelier to
        // commute with every stabilizer and exercise sign recovery.
        const double bias = (probe % 2 == 0) ? 0.5 : 0.9;
        const PauliString p = random_hermitian_pauli(n, rng, bias);
        ASSERT_EQ(packed.expectation(p), legacy.expectation(p))
            << "Pauli " << p.to_label();
    }
}

TEST_P(SymplecticDifferential, EngineMatchesLegacySumBitForBit)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 40961 + 11);
    const std::size_t n =
        kQubitCounts[static_cast<std::size_t>(GetParam()) %
                     std::size(kQubitCounts)];

    // >64 terms so the transposed strategy spans several term words —
    // the pooled evaluation below then really exercises the
    // block-chunked parallel path (a 64-term sum would fall back to
    // the serial fused pass).
    PauliSum op(n);
    for (int t = 0; t < 100; ++t) {
        const double coeff = rng.uniform_real(-2.0, 2.0);
        op.add_term(coeff, random_hermitian_pauli(n, rng, 0.8));
    }

    Tableau legacy(n);
    SymplecticTableau packed(n);
    const Circuit circuit = random_clifford_circuit(n, 70, rng);
    replay_circuit(legacy, circuit);
    replay_circuit(packed, circuit);

    const double reference = legacy_sum_expectation(legacy, op);

    // Exact equality: every strategy's canonical term-order reduction
    // is bit-identical to the legacy loop.
    const StabilizerExpectationEngine auto_engine(op);
    const StabilizerExpectationEngine grouped(
        op, ExpectationEngineOptions{.strategy = EvalStrategy::PerTerm});
    const StabilizerExpectationEngine ungrouped(
        op, ExpectationEngineOptions{.strategy = EvalStrategy::PerTerm,
                                     .use_grouping = false});
    const StabilizerExpectationEngine transposed(
        op,
        ExpectationEngineOptions{.strategy = EvalStrategy::Transposed});
    EXPECT_EQ(auto_engine.expectation(packed), reference);
    EXPECT_EQ(grouped.expectation(packed), reference);
    EXPECT_EQ(ungrouped.expectation(packed), reference);
    EXPECT_EQ(transposed.expectation(packed), reference);

    ThreadPool pool(3);
    EXPECT_EQ(grouped.expectation(packed, pool), reference);
    EXPECT_EQ(transposed.expectation(packed, pool), reference);
}

INSTANTIATE_TEST_SUITE_P(WordBoundarySweep, SymplecticDifferential,
                         ::testing::Range(0, 20));

TEST(SymplecticTableau, GuardsMatchLegacyContract)
{
    EXPECT_THROW(SymplecticTableau(0), std::invalid_argument);
    SymplecticTableau t(2);
    EXPECT_THROW(t.h(2), std::invalid_argument);
    EXPECT_THROW(t.cx(0, 0), std::invalid_argument);
    EXPECT_THROW(t.expectation(PauliString::from_label("ZZZ")),
                 std::invalid_argument);
    EXPECT_THROW(t.expectation(PauliString::from_label("+iZZ")),
                 std::invalid_argument);
    EXPECT_THROW(t.stabilizer(2), std::invalid_argument);
    EXPECT_THROW(t.destabilizer(2), std::invalid_argument);
}

TEST(StabilizerExpectationEngine, RejectsNonHermitianAndMismatchedSums)
{
    PauliSum bad(2);
    bad.add_term(std::complex<double>{0.5, 0.25},
                 PauliString::from_label("XX"));
    EXPECT_THROW(StabilizerExpectationEngine{bad}, std::invalid_argument);

    const PauliSum ok = PauliSum::from_terms(2, {{1.0, "ZZ"}});
    const StabilizerExpectationEngine engine(ok);
    SymplecticTableau wrong(3);
    EXPECT_THROW((void)engine.expectation(wrong), std::invalid_argument);
}

TEST(StabilizerExpectationEngine, GroupSharedSupportFastPath)
{
    // A diagonal (all-I/Z) sum groups into one measurement group; on a
    // computational-basis state every stabilizer is a Z string, so the
    // group's shared-support screening mask sees no X columns and the
    // per-term screening pass short-circuits — values must still match
    // the oracle exactly.
    const std::size_t n = 6;
    PauliSum diagonal(n);
    Rng rng(123);
    for (int t = 0; t < 12; ++t) {
        PauliString p(n);
        for (std::size_t q = 0; q < n; ++q) {
            if (rng.bernoulli(0.4)) {
                p.set_letter(q, PauliLetter::Z);
            }
        }
        diagonal.add_term(rng.uniform_real(-1.0, 1.0), p);
    }
    ASSERT_EQ(group_qubitwise_commuting(diagonal).size(), 1u);

    Tableau legacy(n);
    SymplecticTableau packed(n);
    Circuit flips(n);
    flips.x(1);
    flips.x(4);
    replay_circuit(legacy, flips);
    replay_circuit(packed, flips);

    const StabilizerExpectationEngine engine(
        diagonal,
        ExpectationEngineOptions{.strategy = EvalStrategy::PerTerm});
    EXPECT_EQ(engine.num_groups(), 1u);
    EXPECT_EQ(engine.strategy(), "per-term");
    EXPECT_EQ(engine.expectation(packed),
              legacy_sum_expectation(legacy, diagonal));
}

TEST(StabilizerSimulator, UsesPackedTableau)
{
    // The simulator front end now drives the packed representation; a
    // quick end-to-end sanity check against known GHZ values.
    const std::size_t n = 5;
    StabilizerSimulator sim(n);
    Circuit c(n);
    c.h(0);
    for (std::size_t q = 0; q + 1 < n; ++q) {
        c.cx(q, q + 1);
    }
    sim.apply_circuit(c);
    EXPECT_TRUE(sim.tableau().check_invariants());
    EXPECT_EQ(sim.expectation(PauliString::from_label("XXXXX")), 1);
    EXPECT_EQ(sim.expectation(PauliString::from_label("ZZIII")), 1);
    EXPECT_EQ(sim.expectation(PauliString::from_label("YYXXX")), -1);
    EXPECT_EQ(sim.expectation(PauliString::from_label("ZIIII")), 0);
}

} // namespace
} // namespace cafqa
