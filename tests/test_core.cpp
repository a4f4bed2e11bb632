// Integration tests for the CAFQA core: evaluators, the search driver,
// the HF baseline, the Clifford+kT extension, and post-CAFQA tuning.

#include <gtest/gtest.h>

#include <numbers>

#include "circuit/efficient_su2.hpp"
#include "common/rng.hpp"
#include "core/clifford_ansatz.hpp"
#include "core/evaluator.hpp"
#include "core/hartree_fock_baseline.hpp"
#include "core/pipeline.hpp"
#include "exhaustive_search.hpp"
#include "problems/maxcut.hpp"
#include "problems/molecule_factory.hpp"
#include "statevector/lanczos.hpp"

namespace cafqa {
namespace {

TEST(CliffordAnsatz, StepsToAngles)
{
    const auto angles = steps_to_angles({0, 1, 2, 3, 5, -1});
    EXPECT_NEAR(angles[0], 0.0, 1e-15);
    EXPECT_NEAR(angles[1], std::numbers::pi / 2, 1e-15);
    EXPECT_NEAR(angles[2], std::numbers::pi, 1e-15);
    EXPECT_NEAR(angles[3], 3 * std::numbers::pi / 2, 1e-15);
    EXPECT_NEAR(angles[4], std::numbers::pi / 2, 1e-15);
    EXPECT_NEAR(angles[5], 3 * std::numbers::pi / 2, 1e-15);
}

TEST(CliffordAnsatz, ValidationRejectsTGates)
{
    Circuit c(1);
    c.t(0);
    EXPECT_THROW(require_clifford_ansatz(c), std::invalid_argument);

    Circuit c2(1);
    c2.rx(0, 0.3);
    EXPECT_THROW(require_clifford_ansatz(c2), std::invalid_argument);

    Circuit ok(2);
    ok.ry_param(0);
    ok.cx(0, 1);
    ok.rz(1, std::numbers::pi);
    EXPECT_NO_THROW(require_clifford_ansatz(ok));
}

TEST(CliffordEvaluator, MatchesIdealEvaluatorAtCliffordPoints)
{
    const std::size_t n = 3;
    const Circuit ansatz = make_efficient_su2(n);
    CliffordEvaluator clifford(ansatz);
    IdealEvaluator ideal(ansatz);

    Rng rng(5);
    const PauliSum op = PauliSum::from_terms(
        n, {{0.7, "XXI"}, {0.3, "IZZ"}, {-0.2, "YIY"}, {0.4, "ZII"}});

    for (int trial = 0; trial < 8; ++trial) {
        std::vector<int> steps(ansatz.num_params());
        for (auto& s : steps) {
            s = static_cast<int>(rng.uniform_int(0, 3));
        }
        clifford.prepare(steps);
        ideal.prepare(steps_to_angles(steps));
        EXPECT_NEAR(clifford.expectation(op), ideal.expectation(op), 1e-10);
    }
}

TEST(CafqaDriver, SolvesXxMicrobenchmark)
{
    // The 1-parameter Fig. 5 problem: 4 Clifford points, minimum -1.
    VqaObjective objective;
    objective.hamiltonian = PauliSum::from_terms(2, {{1.0, "XX"}});
    const CafqaResult result = CafqaPipeline(
        {.ansatz = make_microbenchmark_ansatz(), .objective = objective,
         .search = {.warmup = 4, .iterations = 4, .seed = 1}})
        .run_clifford_search();
    EXPECT_NEAR(result.best_energy, -1.0, 1e-12);
    EXPECT_EQ(result.best_steps.size(), 1u);
    EXPECT_EQ(result.best_steps[0], 3);
}

TEST(CafqaDriver, H2BeatsOrMatchesHartreeFock)
{
    using problems::make_molecular_system;
    for (const double bond : {0.74, 2.2}) {
        const auto system = make_molecular_system("H2", bond);
        const VqaObjective objective = problems::make_objective(system);
        const CafqaResult result = CafqaPipeline(
            {.ansatz = system.ansatz, .objective = objective,
             .search = {.warmup = 120, .iterations = 120, .seed = 7}})
            .run_clifford_search();

        EXPECT_LE(result.best_energy, system.hf_energy + 1e-9)
            << "bond " << bond;

        const GroundState exact =
            lanczos_ground_state(system.hamiltonian);
        EXPECT_GE(result.best_energy, exact.energy - 1e-9);
        if (bond > 2.0) {
            // At stretched bonds the Clifford state recovers most of the
            // correlation energy HF misses (paper Fig. 8).
            const double hf_error = system.hf_energy - exact.energy;
            const double cafqa_error = result.best_energy - exact.energy;
            EXPECT_LT(cafqa_error, 0.5 * hf_error);
        }
    }
}

TEST(CafqaDriver, CationSectorWithNumberConstraint)
{
    using problems::MolecularSystemOptions;
    MolecularSystemOptions options;
    options.sector_charge = +1;
    options.sector_spin_2sz = +1;
    const auto h2p =
        problems::make_molecular_system("H2", 1.0, options);
    EXPECT_EQ(h2p.n_alpha, 1);
    EXPECT_EQ(h2p.n_beta, 0);

    const VqaObjective objective = problems::make_objective(h2p, 4.0, 4.0);
    const CafqaResult result = CafqaPipeline(
        {.ansatz = h2p.ansatz, .objective = objective,
         .search = {.warmup = 100, .iterations = 100, .seed = 3}})
        .run_clifford_search();

    // The cation must sit above the neutral ground state (H2 does not
    // spontaneously ionize, paper Section 7.1.1).
    const auto neutral = problems::make_molecular_system("H2", 1.0);
    const GroundState neutral_exact =
        lanczos_ground_state(neutral.hamiltonian);
    EXPECT_GT(result.best_energy, neutral_exact.energy + 0.05);

    // And it must not go below the exact cation-sector ground energy.
    const GroundState cation_exact = lanczos_ground_state(h2p.hamiltonian);
    EXPECT_GE(result.best_energy, cation_exact.energy - 1e-9);
}

TEST(CafqaDriver, HfSeedGuaranteesNoWorseThanHartreeFock)
{
    // Even with a tiny budget on a 10-qubit problem (where random
    // exploration of 4^40 configurations is hopeless), prior-injecting
    // the HF point keeps CAFQA at or below the HF baseline.
    const auto system = problems::make_molecular_system("H6", 1.0);
    const VqaObjective objective = problems::make_objective(system);
    CafqaOptions options{.warmup = 10, .iterations = 10, .seed = 1};
    options.seed_steps.push_back(efficient_su2_bitstring_steps(
        system.num_qubits, system.hf_bits));
    const CafqaResult result = CafqaPipeline(
        {.ansatz = system.ansatz, .objective = objective, .search = options})
        .run_clifford_search();
    EXPECT_LE(result.best_energy, system.hf_energy + 1e-9);
}

TEST(CafqaDriver, BayesianSearchMatchesExhaustiveOptimumOnH2)
{
    // Certify the BO result against full enumeration of the 4^8 space.
    const auto system = problems::make_molecular_system("H2", 2.2);
    const VqaObjective objective = problems::make_objective(system);
    const CafqaResult exhaustive =
        exhaustive_search(system.ansatz, objective);
    const CafqaResult searched = CafqaPipeline(
        {.ansatz = system.ansatz, .objective = objective,
         .search = {.warmup = 150, .iterations = 250, .seed = 7}})
        .run_clifford_search();
    EXPECT_NEAR(searched.best_objective, exhaustive.best_objective, 1e-9);
}

TEST(HartreeFockBaseline, BasisExpectationMatchesStatevector)
{
    Rng rng(11);
    const std::size_t n = 5;
    PauliSum op(n);
    for (int t = 0; t < 20; ++t) {
        PauliString p(n);
        for (std::size_t q = 0; q < n; ++q) {
            p.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(0, 3)));
        }
        op.add_term(rng.normal(), p);
    }
    op.simplify();

    std::vector<int> bits(n);
    std::uint64_t index = 0;
    for (std::size_t q = 0; q < n; ++q) {
        bits[q] = static_cast<int>(rng.uniform_int(0, 1));
        if (bits[q]) {
            index |= std::uint64_t{1} << q;
        }
    }
    const Statevector psi = Statevector::basis_state(n, index);
    EXPECT_NEAR(basis_state_expectation(op, bits), psi.expectation(op),
                1e-12);
}

TEST(HartreeFockBaseline, HfBitsAreOptimalBasisStateNearEquilibrium)
{
    const auto h2 = problems::make_molecular_system("H2", 0.74);
    const BestBitstring best = best_constrained_bitstring(
        h2.hamiltonian,
        {{h2.number_op, 2.0}, {h2.sz_op, 0.0}},
        h2.num_qubits);
    EXPECT_NEAR(best.energy, h2.hf_energy, 1e-9);
    EXPECT_EQ(best.bits, h2.hf_bits);
}

TEST(CliffordTEvaluator, BranchSumMatchesDirectSimulation)
{
    // Random Clifford+T circuits: the exact branch decomposition must
    // reproduce the direct statevector simulation.
    Rng rng(21);
    for (int trial = 0; trial < 6; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 2);
        Circuit c(n);
        int t_count = 0;
        for (int g = 0; g < 18; ++g) {
            const auto q = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
            switch (rng.uniform_int(0, 5)) {
              case 0: c.h(q); break;
              case 1: c.s(q); break;
              case 2: c.ry_param(q); break;
              case 3: c.cx(q, (q + 1) % n); break;
              case 4:
                if (t_count < 4) {
                    c.t(q);
                    ++t_count;
                } else {
                    c.z(q);
                }
                break;
              default: c.rz_param(q); break;
            }
        }
        std::vector<int> steps(c.num_params());
        for (auto& s : steps) {
            s = static_cast<int>(rng.uniform_int(0, 3));
        }

        CliffordTEvaluator branches(c);
        EXPECT_EQ(branches.num_branches(),
                  std::size_t{1} << branches.num_t_gates());
        branches.prepare(steps);

        Statevector direct(n);
        direct.apply_circuit(c, steps_to_angles(steps));

        Rng prng(trial);
        for (int probe = 0; probe < 25; ++probe) {
            PauliString p(n);
            for (std::size_t q = 0; q < n; ++q) {
                p.set_letter(q,
                             static_cast<PauliLetter>(prng.uniform_int(0, 3)));
            }
            PauliSum op(n);
            op.add_term(1.0, p);
            EXPECT_NEAR(branches.expectation(op),
                        direct.expectation(op), 1e-10)
                << p.to_label();
        }
    }
}

TEST(CafqaKt, TGatesDoNotHurtAndCanHelp)
{
    // Stretched H2: Clifford-only CAFQA has a known residual error that
    // a single T gate can reduce (paper Fig. 16a).
    const auto system = problems::make_molecular_system("H2", 1.8);
    const VqaObjective objective = problems::make_objective(system);
    CafqaPipeline pipeline(
        {.ansatz = system.ansatz, .objective = objective,
         .search = {.warmup = 80, .iterations = 80, .seed = 5}});
    const TBoostResult& boost = pipeline.run_t_boost(1);
    EXPECT_LE(boost.best_energy, pipeline.clifford_result().best_energy + 1e-9);
    EXPECT_LE(boost.t_positions.size(), 1u);

    const GroundState exact = lanczos_ground_state(system.hamiltonian);
    EXPECT_GE(boost.best_energy, exact.energy - 1e-9);
}

TEST(VqaTuner, IdealTuningReachesExactFromCafqaInit)
{
    const auto system = problems::make_molecular_system("H2", 1.2);
    VqaObjective objective;
    objective.hamiltonian = system.hamiltonian;

    const CafqaResult cafqa = CafqaPipeline(
        {.ansatz = system.ansatz, .objective = objective,
         .search = {.warmup = 80, .iterations = 80, .seed = 2}})
        .run_clifford_search();
    const GroundState exact = lanczos_ground_state(system.hamiltonian);

    VqaTunerOptions tuner;
    tuner.iterations = 400;
    tuner.seed = 9;
    const VqaTuneResult tuned = CafqaPipeline(
        {.ansatz = system.ansatz, .objective = objective, .tuner = tuner})
        .run_vqa_tune(steps_to_angles(cafqa.best_steps));

    EXPECT_LE(tuned.final_value, cafqa.best_energy + 1e-9);
    EXPECT_NEAR(tuned.final_value, exact.energy, 5e-3);
}

TEST(VqaTuner, ConvergenceMetric)
{
    // trace[0] is the start point: converging there costs 0 steps.
    const std::vector<double> trace = {3.0, 2.0, 1.5, 1.01, 1.0, 1.0};
    EXPECT_EQ(iterations_to_converge(trace, 0.05), 3u);
    EXPECT_EQ(iterations_to_converge(trace, 0.6), 2u);
    EXPECT_EQ(iterations_to_converge(trace, 10.0), 0u);
    EXPECT_EQ(iterations_to_converge({}, 0.1), 0u);
}

TEST(CliffordAnsatz, BitstringStepsPrepareBasisState)
{
    const std::size_t n = 5;
    const Circuit ansatz = make_efficient_su2(n);
    Rng rng(31);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<int> bits(n);
        for (auto& b : bits) {
            b = static_cast<int>(rng.uniform_int(0, 1));
        }
        const std::vector<int> steps =
            efficient_su2_bitstring_steps(n, bits);
        ASSERT_EQ(steps.size(), ansatz.num_params());

        CliffordEvaluator evaluator(ansatz);
        evaluator.prepare(steps);
        // Every single-qubit Z must read back (-1)^bit.
        for (std::size_t q = 0; q < n; ++q) {
            PauliString z(n);
            z.set_letter(q, PauliLetter::Z);
            EXPECT_EQ(evaluator.expectation(z), bits[q] ? -1 : 1)
                << "qubit " << q;
        }
    }
}

TEST(MaxCut, RingOptimumAndHamiltonianConsistency)
{
    const auto ring = problems::make_ring_maxcut(6);
    EXPECT_EQ(ring.edges.size(), 6u);
    EXPECT_NEAR(ring.optimal_cut(), 6.0, 1e-12);
    // Ground energy of the Ising Hamiltonian = -maxcut.
    const GroundState gs = lanczos_ground_state(ring.hamiltonian);
    EXPECT_NEAR(gs.energy, -6.0, 1e-8);
}

TEST(MaxCut, CafqaSolvesMaxCutExactly)
{
    // MaxCut optima are computational basis states, which are inside the
    // Clifford space — CAFQA should find the exact optimum.
    const auto ring = problems::make_ring_maxcut(6);
    VqaObjective objective;
    objective.hamiltonian = ring.hamiltonian;
    const Circuit ansatz = make_efficient_su2(6);
    const CafqaResult result = CafqaPipeline(
        {.ansatz = ansatz, .objective = objective,
         .search = {.warmup = 200, .iterations = 400, .seed = 13}})
        .run_clifford_search();
    EXPECT_NEAR(result.best_energy, -ring.optimal_cut(), 1e-9);
}

TEST(MaxCut, RandomInstanceIsReproducible)
{
    const auto a = problems::make_random_maxcut(8, 0.4, 99, "m1");
    const auto b = problems::make_random_maxcut(8, 0.4, 99, "m1");
    EXPECT_EQ(a.edges, b.edges);
    const auto c = problems::make_random_maxcut(8, 0.4, 100, "m2");
    EXPECT_NE(a.edges, c.edges);
}

TEST(MoleculeFactory, Table1Consistency)
{
    for (const auto& name : problems::supported_molecules()) {
        const auto info = problems::molecule_info(name);
        EXPECT_EQ(info.num_qubits, 2 * info.used_orbitals - 2) << name;
        EXPECT_GE(info.total_orbitals,
                  info.used_orbitals + info.frozen_orbitals)
            << name;
    }
}

TEST(MoleculeFactory, H2SystemShape)
{
    const auto h2 = problems::make_molecular_system("H2", 0.74);
    EXPECT_EQ(h2.num_qubits, 2u);
    EXPECT_TRUE(h2.scf_converged);
    // Full active space: HF determinant expectation == SCF energy.
    EXPECT_NEAR(h2.hf_energy, h2.scf_energy, 1e-8);
    EXPECT_EQ(h2.ansatz.num_params(), 2u * 2u * 2u);
}

TEST(MoleculeFactory, LiHFrozenCoreKeepsHfEnergy)
{
    const auto lih = problems::make_molecular_system("LiH", 1.6);
    EXPECT_EQ(lih.num_qubits, 4u);
    EXPECT_TRUE(lih.scf_converged);
    // The occupied MOs lie inside frozen+active, so the determinant
    // energy is preserved by the truncation.
    EXPECT_NEAR(lih.hf_energy, lih.scf_energy, 1e-7);
}

TEST(MoleculeFactory, SectorFilterSelectsHfState)
{
    const auto lih = problems::make_molecular_system("LiH", 1.6);
    const auto filter = problems::sector_filter(lih);
    std::uint64_t hf_index = 0;
    for (std::size_t q = 0; q < lih.hf_bits.size(); ++q) {
        if (lih.hf_bits[q]) {
            hf_index |= std::uint64_t{1} << q;
        }
    }
    EXPECT_TRUE(filter(hf_index));

    // At least one basis state of the same parity carries a different
    // electron count and must be rejected.
    std::size_t rejected = 0;
    for (std::uint64_t b = 0; b < (std::uint64_t{1} << lih.num_qubits);
         ++b) {
        if (!filter(b)) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0u);
}

TEST(MoleculeFactory, SectorRestrictedLanczosIsAboveGlobal)
{
    const auto lih = problems::make_molecular_system("LiH", 1.6);
    const GroundState global = lanczos_ground_state(lih.hamiltonian);
    LanczosOptions options;
    options.basis_filter = problems::sector_filter(lih);
    const GroundState in_sector =
        lanczos_ground_state(lih.hamiltonian, options);
    EXPECT_GE(in_sector.energy, global.energy - 1e-9);
    // The LiH ground state is the neutral singlet, so both coincide.
    EXPECT_NEAR(in_sector.energy, global.energy, 1e-7);
    // And the sector energy cannot beat HF by more than the full
    // correlation energy (sanity bound).
    EXPECT_LT(in_sector.energy, lih.hf_energy + 1e-9);
}

TEST(MoleculeFactory, UnknownMoleculeThrows)
{
    EXPECT_THROW(problems::make_molecular_system("Xe2", 1.0),
                 std::invalid_argument);
}

} // namespace
} // namespace cafqa
