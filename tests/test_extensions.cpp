// Tests for the extension modules: RZZ/QAOA circuits, qubit-wise
// commuting measurement grouping, and the finite-shot evaluator.

#include <gtest/gtest.h>

#include <numbers>

#include "common/rng.hpp"
#include "core/sampled_evaluator.hpp"
#include "exhaustive_search.hpp"
#include "pauli/grouping.hpp"
#include "problems/maxcut.hpp"
#include "problems/molecule_factory.hpp"
#include "stabilizer/circuit_replay.hpp"
#include "stabilizer/symplectic_tableau.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {
namespace {

constexpr double half_pi = std::numbers::pi / 2.0;

TEST(Rzz, MatchesCxRzCxDecomposition)
{
    Rng rng(5);
    for (int trial = 0; trial < 10; ++trial) {
        const double theta = rng.uniform_real(0, 6.28);
        Circuit direct(3);
        direct.ry(0, 0.7);
        direct.ry(1, 1.3);
        direct.cx(0, 2);
        direct.rzz(0, 1, theta);

        Circuit decomposed(3);
        decomposed.ry(0, 0.7);
        decomposed.ry(1, 1.3);
        decomposed.cx(0, 2);
        decomposed.cx(0, 1);
        decomposed.rz(1, theta);
        decomposed.cx(0, 1);

        Statevector a(3);
        a.apply_circuit(direct);
        Statevector b(3);
        b.apply_circuit(decomposed);
        EXPECT_NEAR(std::abs(a.inner(b)), 1.0, 1e-12) << "theta " << theta;
    }
}

TEST(Rzz, TableauMatchesStatevectorAtCliffordAngles)
{
    Rng rng(9);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 3;
        Circuit c(n);
        c.h(0);
        c.h(1);
        c.h(2);
        for (int g = 0; g < 8; ++g) {
            const auto a = static_cast<std::size_t>(rng.uniform_int(0, 2));
            const auto b = (a + 1) % n;
            c.rzz(a, b, rng.uniform_int(0, 3) * half_pi);
            c.rx(a, rng.uniform_int(0, 3) * half_pi);
        }
        SymplecticTableau tab(n);
        replay_circuit(tab, c);
        Statevector psi(n);
        psi.apply_circuit(c);
        for (int probe = 0; probe < 30; ++probe) {
            PauliString p(n);
            for (std::size_t q = 0; q < n; ++q) {
                p.set_letter(q,
                             static_cast<PauliLetter>(rng.uniform_int(0, 3)));
            }
            EXPECT_NEAR(psi.expectation(p).real(), tab.expectation(p),
                        1e-10)
                << p.to_label();
        }
    }
}

TEST(Qaoa, AnsatzShapeAndSharedParameters)
{
    const auto ring = problems::make_ring_maxcut(6);
    const Circuit qaoa = problems::make_qaoa_ansatz(ring, 2);
    EXPECT_EQ(qaoa.num_params(), 4u); // (gamma, beta) x 2 layers
    EXPECT_EQ(qaoa.count(GateKind::Rzz), 12u);
    EXPECT_EQ(qaoa.count(GateKind::Rx), 12u);
    EXPECT_EQ(qaoa.count(GateKind::H), 6u);
}

TEST(Qaoa, CafqaSearchOverQaoaSpace)
{
    // 2p discrete parameters: the whole space is tiny; CAFQA must find
    // the best Clifford QAOA point, and the zero point recovers the
    // |+...+> state with <H> = -|E|/2.
    const auto ring = problems::make_ring_maxcut(6);
    VqaObjective objective;
    objective.hamiltonian = ring.hamiltonian;
    const Circuit qaoa = problems::make_qaoa_ansatz(ring, 2);

    const CafqaResult exhaustive = exhaustive_search(qaoa, objective);
    const CafqaResult searched =
        CafqaPipeline({.ansatz = qaoa, .objective = objective,
                       .search = {.warmup = 60, .iterations = 80, .seed = 3}})
            .run_clifford_search();
    EXPECT_NEAR(searched.best_objective, exhaustive.best_objective, 1e-9);
    // |+> state gives <ZZ> = 0 per edge -> energy -E/2 = -3; the best
    // Clifford point can only improve on that.
    EXPECT_LE(exhaustive.best_objective, -3.0 + 1e-9);
}

TEST(Grouping, QubitwiseCommutationRules)
{
    const auto a = PauliString::from_label("XIZ");
    EXPECT_TRUE(qubitwise_commute(a, PauliString::from_label("XIZ")));
    EXPECT_TRUE(qubitwise_commute(a, PauliString::from_label("IIZ")));
    EXPECT_TRUE(qubitwise_commute(a, PauliString::from_label("XZI")));
    EXPECT_FALSE(qubitwise_commute(a, PauliString::from_label("YIZ")));
    EXPECT_FALSE(qubitwise_commute(a, PauliString::from_label("XIX")));
}

TEST(Grouping, PartitionCoversAllTermsPairwiseQwc)
{
    const auto system = problems::make_molecular_system("LiH", 1.6);
    const auto groups = group_qubitwise_commuting(system.hamiltonian);

    std::size_t covered = 0;
    for (const auto& group : groups) {
        covered += group.term_indices.size();
        for (std::size_t i = 0; i < group.term_indices.size(); ++i) {
            for (std::size_t j = i + 1; j < group.term_indices.size();
                 ++j) {
                EXPECT_TRUE(qubitwise_commute(
                    system.hamiltonian.terms()[group.term_indices[i]]
                        .string,
                    system.hamiltonian.terms()[group.term_indices[j]]
                        .string));
            }
        }
    }
    EXPECT_EQ(covered, system.hamiltonian.num_terms());
    // Grouping must reduce the number of measurement settings.
    EXPECT_LT(groups.size(), system.hamiltonian.num_terms());
}

TEST(SampledEvaluator, ConvergesToExactExpectation)
{
    const auto system = problems::make_molecular_system("H2", 1.2);
    std::vector<double> params(system.ansatz.num_params(), 0.0);
    Rng prng(3);
    for (auto& p : params) {
        p = prng.uniform_real(0, 6.28);
    }

    IdealEvaluator exact(system.ansatz);
    exact.prepare(params);
    const double truth = exact.expectation(system.hamiltonian);

    SampledEvaluator coarse(system.ansatz, 64, 11);
    coarse.prepare(params);
    SampledEvaluator fine(system.ansatz, 65536, 11);
    fine.prepare(params);

    // Average |error| over repeated estimates must shrink with shots.
    double coarse_err = 0.0;
    double fine_err = 0.0;
    for (int rep = 0; rep < 10; ++rep) {
        coarse_err += std::abs(coarse.expectation(system.hamiltonian) -
                               truth);
        fine_err += std::abs(fine.expectation(system.hamiltonian) - truth);
    }
    EXPECT_LT(fine_err, coarse_err);
    EXPECT_LT(fine_err / 10.0, 0.02);
}

TEST(SampledEvaluator, DeterministicOutcomesAreExact)
{
    // On a computational basis state, diagonal terms have zero variance:
    // any shot count gives the exact value.
    const std::size_t n = 3;
    Circuit c(n);
    c.x(0);
    c.x(2);
    const PauliSum op = PauliSum::from_terms(
        n, {{0.5, "ZII"}, {0.25, "IZI"}, {-1.0, "ZIZ"}, {2.0, "III"}});
    SampledEvaluator sampler(c, 8, 5);
    sampler.prepare({});
    // <ZII> = -1 (qubit 0 set), <IZI> = +1, <ZIZ> = +1, identity = 1.
    EXPECT_NEAR(sampler.expectation(op), 0.5 * -1 + 0.25 + -1.0 + 2.0,
                1e-12);
}

} // namespace
} // namespace cafqa
