// Problem-registry tests: key parsing, registry enumeration
// round-trip, the adapters over the legacy molecule/MaxCut factories,
// and the TFIM/XXZ families against independent exact references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/clifford_ansatz.hpp"
#include "core/pipeline.hpp"
#include "exhaustive_search.hpp"
#include "problems/molecule_factory.hpp"
#include "problems/problem.hpp"
#include "problems/spin_chains.hpp"
#include "statevector/lanczos.hpp"

namespace cafqa {
namespace {

using problems::make_problem;
using problems::Problem;
using problems::ProblemKey;

TEST(ProblemKey, ParseAndRoundTrip)
{
    const ProblemKey key =
        ProblemKey::parse("maxcut:er-256?p=0.03&seed=11");
    EXPECT_EQ(key.family, "maxcut");
    EXPECT_EQ(key.instance, "er-256");
    ASSERT_EQ(key.params.size(), 2u);
    EXPECT_EQ(key.params[0].first, "p");
    EXPECT_EQ(key.params[0].second, "0.03");
    EXPECT_EQ(*key.find("seed"), "11");
    EXPECT_FALSE(key.find("missing").has_value());
    EXPECT_EQ(key.to_string(), "maxcut:er-256?p=0.03&seed=11");

    const ProblemKey plain = ProblemKey::parse("tfim:chain-8");
    EXPECT_TRUE(plain.params.empty());
    EXPECT_EQ(plain.to_string(), "tfim:chain-8");
}

TEST(ProblemKey, RejectsMalformedKeys)
{
    EXPECT_THROW(ProblemKey::parse("no-colon"), std::invalid_argument);
    EXPECT_THROW(ProblemKey::parse(":instance"), std::invalid_argument);
    EXPECT_THROW(ProblemKey::parse("family:"), std::invalid_argument);
    EXPECT_THROW(ProblemKey::parse("f:i?"), std::invalid_argument);
    EXPECT_THROW(ProblemKey::parse("f:i?novalue"), std::invalid_argument);
    EXPECT_THROW(ProblemKey::parse("f:i?=v"), std::invalid_argument);
    EXPECT_THROW(ProblemKey::parse("f:i?a=1&a=2"), std::invalid_argument);
}

TEST(ProblemRegistry, BuiltInFamiliesAreRegistered)
{
    const auto families = problems::registered_problem_families();
    for (const char* family : {"molecule", "maxcut", "tfim", "xxz"}) {
        EXPECT_NE(std::find(families.begin(), families.end(), family),
                  families.end())
            << family;
    }
}

TEST(ProblemRegistry, CatalogSampleKeysResolveAndRoundTrip)
{
    // Every advertised sample key must resolve, and the resolved
    // problem's canonical key must resolve to the identical problem.
    for (const auto& info : problems::problem_family_catalog()) {
        SCOPED_TRACE(info.family);
        ASSERT_FALSE(info.sample_key.empty());
        const Problem first = make_problem(info.sample_key);
        EXPECT_EQ(first.family, info.family);
        const Problem second = make_problem(first.key);
        EXPECT_EQ(second.key, first.key);
        EXPECT_EQ(second.num_qubits, first.num_qubits);
        EXPECT_EQ(second.hamiltonian().num_terms(),
                  first.hamiltonian().num_terms());
        EXPECT_EQ(second.ansatz.num_params(), first.ansatz.num_params());
    }
}

TEST(ProblemRegistry, CanonicalKeysRoundTripExactly)
{
    for (const char* key :
         {"molecule:H2?bond=1.1", "maxcut:ring-6",
          "maxcut:er-8?p=0.4&seed=9", "maxcut:ring-6?ansatz=qaoa&layers=2",
          "tfim:chain-5?h=0.7", "tfim:ring-4?j=0.5&h=2",
          "xxz:chain-4?delta=0.5", "xxz:ring-6?j=2&layers=2"}) {
        SCOPED_TRACE(key);
        const Problem first = make_problem(key);
        const Problem second = make_problem(first.key);
        EXPECT_EQ(second.key, first.key);
        ASSERT_EQ(second.hamiltonian().num_terms(),
                  first.hamiltonian().num_terms());
        for (std::size_t t = 0; t < first.hamiltonian().num_terms();
             ++t) {
            EXPECT_EQ(second.hamiltonian().terms()[t].coefficient,
                      first.hamiltonian().terms()[t].coefficient);
            EXPECT_TRUE(second.hamiltonian().terms()[t].string ==
                        first.hamiltonian().terms()[t].string);
        }
        EXPECT_EQ(second.ansatz.num_params(), first.ansatz.num_params());
        EXPECT_EQ(second.seed_steps, first.seed_steps);
    }
}

TEST(ProblemRegistry, MoleculeAdapterMatchesLegacyFactory)
{
    const Problem problem = make_problem("molecule:H2?bond=2.2");
    const auto system = problems::make_molecular_system("H2", 2.2);

    EXPECT_EQ(problem.name, "H2");
    EXPECT_EQ(problem.num_qubits, system.num_qubits);
    EXPECT_EQ(problem.hamiltonian().num_terms(),
              system.hamiltonian.num_terms());
    ASSERT_TRUE(problem.reference_energy.has_value());
    EXPECT_DOUBLE_EQ(*problem.reference_energy, system.hf_energy);
    EXPECT_EQ(problem.reference_name, "HF");
    // The objective matches make_objective: Hamiltonian + 2 penalties.
    EXPECT_EQ(problem.objective.penalties.size(),
              problems::make_objective(system).penalties.size());
    // The seed steps are the HF determinant's Clifford point.
    ASSERT_EQ(problem.seed_steps.size(), 1u);
    EXPECT_EQ(problem.seed_steps.front(),
              efficient_su2_bitstring_steps(system.num_qubits,
                                            system.hf_bits));
    // Case-insensitive lookup canonicalizes.
    EXPECT_EQ(make_problem("molecule:h2?bond=2.2").key, problem.key);

    ASSERT_TRUE(problem.exact_energy().has_value());
    EXPECT_NEAR(*problem.exact_energy(),
                lanczos_ground_state(system.hamiltonian).energy, 1e-9);
}

TEST(ProblemRegistry, MoleculeDefaultBondIsEquilibrium)
{
    const auto info = problems::molecule_info("H2");
    const Problem problem = make_problem("molecule:H2");
    EXPECT_NE(problem.key.find("bond="), std::string::npos);
    EXPECT_DOUBLE_EQ(problem.metric("bond_angstrom").value(),
                     info.equilibrium_bond_length);
}

TEST(ProblemRegistry, DefaultMoleculePipelineMatchesHandWiredPipeline)
{
    // The acceptance bar: a registry-driven run is bit-identical to
    // the hand-wired PR-4 path.
    const Problem problem = make_problem("molecule:H2?bond=2.2");
    PipelineConfig from_registry;
    from_registry.ansatz = problem.ansatz;
    from_registry.objective = problem.objective;
    from_registry.search = {.warmup = 40, .iterations = 40, .seed = 7};
    from_registry.search.seed_steps = problem.seed_steps;

    const auto system = problems::make_molecular_system("H2", 2.2);
    PipelineConfig hand_wired;
    hand_wired.ansatz = system.ansatz;
    hand_wired.objective = problems::make_objective(system);
    hand_wired.search = {.warmup = 40, .iterations = 40, .seed = 7};
    hand_wired.search.seed_steps.push_back(efficient_su2_bitstring_steps(
        system.num_qubits, system.hf_bits));

    CafqaPipeline a(std::move(from_registry));
    CafqaPipeline b(std::move(hand_wired));
    const CafqaResult& ra = a.run_clifford_search();
    const CafqaResult& rb = b.run_clifford_search();
    EXPECT_EQ(ra.best_steps, rb.best_steps);
    EXPECT_EQ(ra.best_energy, rb.best_energy);
    EXPECT_EQ(ra.history, rb.history);
}

TEST(ProblemRegistry, MaxCutAdapterExactEnergyIsBruteForceOptimum)
{
    const Problem even_ring = make_problem("maxcut:ring-6");
    ASSERT_TRUE(even_ring.exact_energy().has_value());
    EXPECT_DOUBLE_EQ(*even_ring.exact_energy(), -6.0);

    const Problem odd_ring = make_problem("maxcut:ring-5");
    EXPECT_DOUBLE_EQ(*odd_ring.exact_energy(), -4.0);

    EXPECT_EQ(even_ring.metric("vertices"), 6.0);
    EXPECT_EQ(even_ring.metric("edges"), 6.0);

    // QAOA ansatz: 2 shared parameters per layer.
    const Problem qaoa =
        make_problem("maxcut:ring-6?ansatz=qaoa&layers=3");
    EXPECT_EQ(qaoa.ansatz.num_params(), 6u);
}

TEST(SpinChains, TfimHamiltonianStructure)
{
    const auto open = problems::make_tfim_chain(5, 1.0, 0.8, false);
    EXPECT_EQ(open.hamiltonian.num_terms(), 4u + 5u);
    const auto ring = problems::make_tfim_chain(5, 1.0, 0.8, true);
    EXPECT_EQ(ring.hamiltonian.num_terms(), 5u + 5u);
}

TEST(SpinChains, TfimExactEnergyMatchesIndependentDiagonalization)
{
    // Independently hand-built Hamiltonian for a 4-site open chain,
    // dense-diagonalized — the registry's lazy exact energy (Lanczos)
    // must agree.
    const double j = 1.0;
    const double h = 1.3;
    PauliSum reference(4);
    for (const char* zz : {"ZZII", "IZZI", "IIZZ"}) {
        reference.add_term(-j, PauliString::from_label(zz));
    }
    for (const char* x : {"XIII", "IXII", "IIXI", "IIIX"}) {
        reference.add_term(-h, PauliString::from_label(x));
    }
    const double expected = dense_spectrum(reference).front();

    const Problem problem = make_problem("tfim:chain-4?h=1.3");
    ASSERT_TRUE(problem.exact_energy().has_value());
    EXPECT_NEAR(*problem.exact_energy(), expected, 1e-8);
    EXPECT_NEAR(lanczos_ground_state(problem.hamiltonian()).energy,
                expected, 1e-8);
}

TEST(SpinChains, TfimClassicalLimitIsProductState)
{
    // At h = 0 the ground state is the ferromagnet |00...0>, which is
    // the problem's reference product state: reference == exact.
    const Problem problem = make_problem("tfim:chain-4?h=0");
    ASSERT_TRUE(problem.reference_energy.has_value());
    ASSERT_TRUE(problem.exact_energy().has_value());
    EXPECT_NEAR(*problem.reference_energy, *problem.exact_energy(),
                1e-9);
    EXPECT_NEAR(*problem.reference_energy, -3.0, 1e-12);
}

TEST(SpinChains, XxzSingletGroundStateOnTwoSites)
{
    // Two-site Heisenberg: XX + YY + ZZ has the singlet at -3 (triplet
    // at +1) — an analytic anchor independent of any solver.
    const Problem problem = make_problem("xxz:chain-2?delta=1");
    ASSERT_TRUE(problem.exact_energy().has_value());
    EXPECT_NEAR(*problem.exact_energy(), -3.0, 1e-9);
}

TEST(SpinChains, XxzExactEnergyMatchesIndependentDiagonalization)
{
    const double delta = 0.5;
    PauliSum reference(3);
    for (const char* xx : {"XXI", "IXX"}) {
        reference.add_term(1.0, PauliString::from_label(xx));
    }
    for (const char* yy : {"YYI", "IYY"}) {
        reference.add_term(1.0, PauliString::from_label(yy));
    }
    for (const char* zz : {"ZZI", "IZZ"}) {
        reference.add_term(delta, PauliString::from_label(zz));
    }
    const double expected = dense_spectrum(reference).front();

    const Problem problem = make_problem("xxz:chain-3?delta=0.5");
    ASSERT_TRUE(problem.exact_energy().has_value());
    EXPECT_NEAR(*problem.exact_energy(), expected, 1e-8);
}

TEST(SpinChains, NeelReferenceEnergy)
{
    // Open 4-site XXZ at delta = 1: the Neel product state scores -1
    // per bond from the ZZ terms and 0 from XX/YY.
    const Problem problem = make_problem("xxz:chain-4");
    ASSERT_TRUE(problem.reference_energy.has_value());
    EXPECT_NEAR(*problem.reference_energy, -3.0, 1e-12);
    EXPECT_EQ(problem.reference_name, "product-state");
}

TEST(SpinChains, CliffordSearchReachesStabilizerOptimum)
{
    // The TFIM paramagnet limit (j = 0): the exact ground state is
    // |+>^n, a stabilizer state, so exhaustive enumeration of the
    // Clifford space must hit the exact energy.
    const Problem problem = make_problem("tfim:chain-2?j=0&h=1");
    const CafqaResult result =
        exhaustive_search(problem.ansatz, problem.objective);
    EXPECT_NEAR(result.best_energy, -2.0, 1e-9);
    ASSERT_TRUE(problem.exact_energy().has_value());
    EXPECT_NEAR(*problem.exact_energy(), -2.0, 1e-9);
}

TEST(ProblemRegistry, SpinChainSeedStepsPrepareTheProductState)
{
    // The prior-injected steps must reproduce the reference product
    // state's energy when evaluated on the ansatz.
    for (const char* key : {"tfim:chain-4?h=0.7", "xxz:chain-5"}) {
        SCOPED_TRACE(key);
        const Problem problem = make_problem(key);
        ASSERT_EQ(problem.seed_steps.size(), 1u);
        BackendConfig backend_config;
        backend_config.kind = "clifford";
        backend_config.ansatz = problem.ansatz;
        const auto backend = make_discrete_backend(backend_config);
        backend->prepare(problem.seed_steps.front());
        EXPECT_NEAR(backend->expectation(problem.hamiltonian()),
                    *problem.reference_energy, 1e-9);
    }
}

TEST(ProblemRegistry, RuntimeRegistrationExtendsTheRegistry)
{
    problems::register_problem_family(
        "toy",
        [](const ProblemKey& key) {
            Problem problem;
            problem.family = "toy";
            problem.name = key.instance;
            problem.key = "toy:" + key.instance;
            problem.num_qubits = 1;
            problem.objective.hamiltonian =
                PauliSum::from_terms(1, {{1.0, "Z"}});
            problem.ansatz = Circuit(1);
            problem.ansatz.ry_param(0);
            return problem;
        },
        "single-qubit toy", "toy:z");
    const auto families = problems::registered_problem_families();
    EXPECT_NE(std::find(families.begin(), families.end(), "toy"),
              families.end());
    const Problem toy = make_problem("toy:z");
    EXPECT_EQ(toy.num_qubits, 1u);
    EXPECT_FALSE(toy.exact_energy().has_value());
}

} // namespace
} // namespace cafqa
