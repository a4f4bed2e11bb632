// Error-contract tests: every module must reject API misuse with
// std::invalid_argument (precondition violations) rather than crash or
// silently misbehave. Each test exercises a distinct guard.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "chem/basis.hpp"
#include "chem/boys.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecule.hpp"
#include "core/backend_registry.hpp"
#include "core/caching_backend.hpp"
#include "core/evaluator.hpp"
#include "core/hartree_fock_baseline.hpp"
#include "core/pipeline.hpp"
#include "core/sampled_evaluator.hpp"
#include "density/density_matrix.hpp"
#include "mapping/encoding.hpp"
#include "mapping/z2_reduction.hpp"
#include "opt/bayes_opt.hpp"
#include "opt/nelder_mead.hpp"
#include "opt/optimizer_registry.hpp"
#include "opt/spsa.hpp"
#include "core/batch_runner.hpp"
#include "core/run_spec.hpp"
#include "problems/maxcut.hpp"
#include "problems/molecule_factory.hpp"
#include "problems/problem.hpp"
#include "problems/spin_chains.hpp"
#include "reference_tableau.hpp"
#include "stabilizer/expectation_engine.hpp"
#include "stabilizer/symplectic_tableau.hpp"
#include "statevector/lanczos.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {
namespace {

using reference::Tableau;

TEST(ErrorContracts, PauliQubitCountMismatch)
{
    PauliString a(3);
    const PauliString b(4);
    EXPECT_THROW(a *= b, std::invalid_argument);
    EXPECT_THROW((void)a.commutes_with(b), std::invalid_argument);
    EXPECT_THROW(a.remove_qubit(3), std::invalid_argument);

    PauliSum sum(3);
    EXPECT_THROW(sum.add_term(1.0, b), std::invalid_argument);
    EXPECT_THROW(PauliSum::from_terms(3, {{1.0, "XX"}}),
                 std::invalid_argument);
    EXPECT_THROW(PauliString::from_label("XQ"), std::invalid_argument);
}

TEST(ErrorContracts, TableauGuards)
{
    Tableau t(2);
    EXPECT_THROW(t.h(2), std::invalid_argument);
    EXPECT_THROW(t.cx(0, 0), std::invalid_argument);
    EXPECT_THROW(t.expectation(PauliString::from_label("ZZZ")),
                 std::invalid_argument);
    // Non-Hermitian Pauli (phase i) rejected.
    EXPECT_THROW(t.expectation(PauliString::from_label("+iZZ")),
                 std::invalid_argument);
    EXPECT_THROW(Tableau(0), std::invalid_argument);

    // The packed production tableau enforces the same contract.
    SymplecticTableau packed(2);
    EXPECT_THROW(packed.h(2), std::invalid_argument);
    EXPECT_THROW(packed.cx(0, 0), std::invalid_argument);
    EXPECT_THROW(packed.expectation(PauliString::from_label("+iZZ")),
                 std::invalid_argument);
    EXPECT_THROW(SymplecticTableau(0), std::invalid_argument);
}

TEST(ErrorContracts, StabilizerSumMustBeHermitian)
{
    // A mapping bug that produces complex coefficients must surface as
    // an error, not silently evaluate `.real()`.
    PauliSum complex_sum(2);
    complex_sum.add_term(std::complex<double>{0.5, 0.25},
                         PauliString::from_label("ZZ"));

    EXPECT_THROW(StabilizerExpectationEngine{complex_sum},
                 std::invalid_argument);

    // The tolerance is 1e-8: roundoff-sized imaginary parts pass, and
    // anything above it is refused.
    PauliSum nearly_real(2);
    nearly_real.add_term(std::complex<double>{1.0, 1e-12},
                         PauliString::from_label("ZZ"));
    EXPECT_NO_THROW(StabilizerExpectationEngine{nearly_real});
    PauliSum just_complex(2);
    just_complex.add_term(std::complex<double>{1.0, 2e-8},
                          PauliString::from_label("ZZ"));
    EXPECT_THROW(StabilizerExpectationEngine{just_complex},
                 std::invalid_argument);
}

TEST(ErrorContracts, StatevectorGuards)
{
    EXPECT_THROW(Statevector(0), std::invalid_argument);
    EXPECT_THROW(Statevector(29), std::invalid_argument);
    EXPECT_THROW(Statevector::basis_state(2, 4), std::invalid_argument);

    Statevector psi(2);
    EXPECT_THROW(psi.apply_cx(0, 0), std::invalid_argument);
    EXPECT_THROW(psi.expectation(PauliString::from_label("Z")),
                 std::invalid_argument);

    Statevector zero(1);
    zero.amplitudes()[0] = {0.0, 0.0};
    EXPECT_THROW(zero.normalize(), std::invalid_argument);

    Circuit wrong(3);
    EXPECT_THROW(psi.apply_circuit(wrong), std::invalid_argument);
}

TEST(ErrorContracts, DensityMatrixGuards)
{
    EXPECT_THROW(DensityMatrix(13), std::invalid_argument);
    DensityMatrix rho(2);
    EXPECT_THROW(rho.depolarize_1q(0, 1.5), std::invalid_argument);
    EXPECT_THROW(rho.depolarize_2q(0, 0, 0.1), std::invalid_argument);
    EXPECT_THROW(rho.amplitude_damp(0, 2.0), std::invalid_argument);
    EXPECT_THROW(rho.apply_kraus_1q({}, 0), std::invalid_argument);
}

TEST(ErrorContracts, LanczosGuards)
{
    const PauliSum empty(2);
    EXPECT_THROW(lanczos_ground_state(empty), std::invalid_argument);

    PauliSum non_hermitian(1);
    non_hermitian.add_term(std::complex<double>{0.0, 1.0},
                           PauliString::from_label("X"));
    EXPECT_THROW(lanczos_ground_state(non_hermitian),
                 std::invalid_argument);

    // A filter that keeps nothing must be detected.
    const PauliSum h = PauliSum::from_terms(2, {{1.0, "ZZ"}});
    LanczosOptions options;
    options.basis_filter = [](std::uint64_t) { return false; };
    EXPECT_THROW(lanczos_ground_state(h, options), std::invalid_argument);

    // The matvec takes buffers of exactly 2^n amplitudes.
    const CompiledPauliSum compiled(h);
    std::vector<Complex> x(4);
    std::vector<Complex> short_y(3);
    EXPECT_THROW(accumulate_matvec(compiled, x, short_y),
                 std::invalid_argument);
    std::vector<Complex> long_x(8);
    std::vector<Complex> long_y(8);
    EXPECT_THROW(accumulate_matvec(compiled, long_x, long_y),
                 std::invalid_argument);
}

TEST(ErrorContracts, ChemistryGuards)
{
    EXPECT_THROW(chem::boys_function(-1, 1.0), std::invalid_argument);
    EXPECT_THROW(chem::element_number("Uuo"), std::invalid_argument);
    EXPECT_THROW(chem::element_symbol(99), std::invalid_argument);
    EXPECT_THROW(chem::Molecule(std::vector<chem::Atom>{}),
                 std::invalid_argument);
    EXPECT_THROW(chem::make_active_space(5, 3, 3), std::invalid_argument);
    // Coincident nuclei are rejected at E_nn evaluation.
    const chem::Molecule bad({chem::Atom{1, {0, 0, 0}},
                              chem::Atom{1, {0, 0, 0}}});
    EXPECT_THROW((void)bad.nuclear_repulsion(), std::invalid_argument);
}

TEST(ErrorContracts, EncodingGuards)
{
    const FermionEncoding enc(EncodingKind::Parity, 3);
    EXPECT_THROW((void)enc.majorana(6), std::invalid_argument);
    EXPECT_THROW((void)enc.occupation_to_bits({1, 0}),
                 std::invalid_argument);
    EXPECT_THROW(FermionEncoding(EncodingKind::Parity, 0),
                 std::invalid_argument);
}

TEST(ErrorContracts, Z2ReductionGuards)
{
    const PauliSum odd(3);
    EXPECT_THROW(reduce_two_qubits(odd, ParitySector{1, 1}),
                 std::invalid_argument);
    EXPECT_THROW(reduce_bits({1, 0, 1}), std::invalid_argument);
}

TEST(ErrorContracts, OptimizerGuards)
{
    EXPECT_THROW(NelderMeadOptimizer().minimize(
                     [](const std::vector<double>&) { return 0.0; }, {}),
                 std::invalid_argument);
    EXPECT_THROW(SpsaOptimizer().minimize(
                     [](const std::vector<double>&) { return 0.0; }, {}),
                 std::invalid_argument);

    DecisionTree tree;
    EXPECT_THROW((void)tree.predict({1.0}), std::invalid_argument);
    RandomForest forest;
    EXPECT_THROW((void)forest.predict({1.0}), std::invalid_argument);

    DiscreteSpace empty;
    EXPECT_THROW(BayesOptimizer().minimize(
                     [](const std::vector<int>&) { return 0.0; }, empty),
                 std::invalid_argument);
    DiscreteSpace zero_card;
    zero_card.cardinalities = {4, 0};
    EXPECT_THROW(BayesOptimizer().minimize(
                     [](const std::vector<int>&) { return 0.0; }, zero_card),
                 std::invalid_argument);
}

/** Runs `call`, which must throw std::invalid_argument whose message
 *  names the problem (`needle`). */
template <class Call>
void
expect_named_error(Call&& call, const std::string& needle)
{
    try {
        call();
        FAIL() << "no error; expected one naming \"" << needle << '"';
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
            << error.what();
    }
}

TEST(ErrorContracts, ForestRejectsBadTrainingData)
{
    // A short row would be read out of bounds, and a NaN breaks the
    // sort order the splits rely on. Both are refused by name, by the
    // forest and by a lone tree.
    const std::vector<std::vector<double>> ragged = {{0, 1}, {1}, {2, 3}};
    const std::vector<std::vector<double>> long_row = {{0}, {1, 2}};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::vector<double>> with_nan = {{0, 1}, {1, nan}};
    const std::vector<std::vector<double>> with_inf = {{-inf, 1}, {1, 0}};
    RandomForest forest;
    DecisionTree tree;
    Rng rng(1);
    for (const auto* x : {&ragged, &long_row}) {
        const std::vector<double> y(x->size(), 0.0);
        expect_named_error([&] { forest.fit(*x, y, 1); },
                           "ragged training rows");
        expect_named_error([&] { tree.fit(*x, y, rng); },
                           "ragged training rows");
    }
    for (const auto* x : {&with_nan, &with_inf}) {
        const std::vector<double> y(x->size(), 0.0);
        expect_named_error([&] { forest.fit(*x, y, 1); },
                           "non-finite training feature");
        expect_named_error([&] { tree.fit(*x, y, rng); },
                           "non-finite training feature");
    }

    // A fitted model predicts only rows of its fitted width.
    forest.fit({{0, 1}, {1, 0}, {1, 1}}, {0, 1, 2}, 1);
    EXPECT_THROW((void)forest.predict({1.0}), std::invalid_argument);
    EXPECT_THROW((void)forest.predict({1.0, 0.0, 0.0}),
                 std::invalid_argument);
    tree.fit({{0}, {1}}, {0, 1}, rng);
    EXPECT_THROW((void)tree.predict({}), std::invalid_argument);
}

TEST(ErrorContracts, OptimizerRegistryGuards)
{
    EXPECT_THROW(make_optimizer(optimizer_config("no-such-kind")),
                 std::invalid_argument);
    // Space/kind mismatches are rejected at construction time.
    EXPECT_THROW(make_discrete_optimizer(optimizer_config("nelder-mead")),
                 std::invalid_argument);
    EXPECT_THROW(make_continuous_optimizer(optimizer_config("anneal")),
                 std::invalid_argument);

    // Pipeline-level mismatch: a continuous tuner key handed to the
    // discrete search stage fails fast inside the stage.
    OptimizerConfig bad = optimizer_config("spsa");
    EXPECT_THROW(make_discrete_optimizer(bad), std::invalid_argument);
}

TEST(ErrorContracts, UnknownRegistryKeysListTheRegisteredOnes)
{
    // A typo'd kind must tell the caller which keys exist, not just
    // that theirs does not: assert the message names the registries'
    // built-ins.
    try {
        BackendConfig config;
        config.kind = "no-such-backend";
        make_backend(config);
        FAIL() << "make_backend accepted an unknown kind";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("no-such-backend"), std::string::npos)
            << message;
        EXPECT_NE(message.find("registered:"), std::string::npos)
            << message;
        for (const char* kind : {"clifford", "clifford_t", "statevector",
                                 "density", "sampled"}) {
            EXPECT_NE(message.find(kind), std::string::npos)
                << "missing \"" << kind << "\" in: " << message;
        }
    }

    // Caching is `BackendConfig::cache`, not a key prefix: "cached:"
    // keys are unknown kinds like any other.
    try {
        BackendConfig config;
        config.kind = "cached:clifford";
        make_backend(config);
        FAIL() << "make_backend accepted a \"cached:\" kind";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("cached:clifford"), std::string::npos);
        EXPECT_NE(message.find("registered:"), std::string::npos);
    }

    try {
        make_optimizer(optimizer_config("no-such-optimizer"));
        FAIL() << "make_optimizer accepted an unknown kind";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("no-such-optimizer"), std::string::npos)
            << message;
        EXPECT_NE(message.find("registered:"), std::string::npos)
            << message;
        for (const char* kind : {"bayes", "anneal", "random", "exhaustive",
                                 "nelder-mead", "spsa"}) {
            EXPECT_NE(message.find(kind), std::string::npos)
                << "missing \"" << kind << "\" in: " << message;
        }
    }
}

TEST(ErrorContracts, PortfolioKeysRejectBadArms)
{
    // An empty arm list must explain the key grammar and name the
    // discrete kinds a portfolio can race.
    try {
        make_optimizer(optimizer_config("portfolio:"));
        FAIL() << "empty portfolio accepted";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("portfolio:<kind1+kind2+...>"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("portfolio:anneal+bayes+random"),
                  std::string::npos)
            << message;
        for (const char* kind : {"anneal", "bayes", "random",
                                 "tempering"}) {
            EXPECT_NE(message.find(kind), std::string::npos)
                << "missing \"" << kind << "\" in: " << message;
        }
    }
    // A dangling separator is an empty arm, not a silent skip.
    EXPECT_THROW(make_optimizer(optimizer_config("portfolio:anneal+")),
                 std::invalid_argument);

    // A typo'd arm names itself, the full key, and the registry's
    // kinds (the inner make_discrete_optimizer error is preserved).
    try {
        make_optimizer(optimizer_config("portfolio:anneal+nope"));
        FAIL() << "unknown portfolio arm accepted";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("portfolio arm \"nope\""),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("portfolio:anneal+nope"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("registered:"), std::string::npos)
            << message;
    }

    // Continuous kinds exist in the registry but cannot race in a
    // discrete portfolio.
    try {
        make_optimizer(optimizer_config("portfolio:anneal+spsa"));
        FAIL() << "continuous portfolio arm accepted";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("portfolio arm \"spsa\""),
                  std::string::npos)
            << message;
    }

    // Portfolios do not nest.
    try {
        make_optimizer(
            optimizer_config("portfolio:anneal+portfolio:random"));
        FAIL() << "nested portfolio accepted";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("cannot nest"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ErrorContracts, WarmStartFieldRejectsMalformedSteps)
{
    // Every malformed token fails the parse with the field grammar.
    EXPECT_THROW(RunSpec::parse("problem=a warm-start=1,9"),
                 std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("problem=a warm-start=x"),
                 std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("problem=a warm-start="),
                 std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("problem=a warm-start=1,,2"),
                 std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("problem=a warm-start=-1"),
                 std::invalid_argument);
    try {
        RunSpec::parse("problem=a warm-start=1,9");
        FAIL() << "out-of-range step accepted";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("warm-start"), std::string::npos)
            << message;
        EXPECT_NE(message.find("quarter-turn steps"), std::string::npos)
            << message;
        EXPECT_NE(message.find("\"9\""), std::string::npos) << message;
    }
    // The underscore alias routes through the same guard.
    EXPECT_THROW(RunSpec::parse("problem=a warm_start=4"),
                 std::invalid_argument);

    // A well-formed value of the wrong length for the problem is
    // rejected when the pipeline config is built, naming both counts.
    RunSpec spec = RunSpec::parse(
        "problem=maxcut:ring-6 warm-start=1,2 warmup=5 iterations=5");
    const problems::Problem problem =
        problems::make_problem(spec.problem);
    try {
        make_pipeline_config(spec, problem);
        FAIL() << "wrong-length warm start accepted";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("warm-start"), std::string::npos)
            << message;
        EXPECT_NE(message.find("2 steps"), std::string::npos) << message;
        EXPECT_NE(message.find("ansatz parameters"), std::string::npos)
            << message;
    }
}

TEST(ErrorContracts, CacheGuards)
{
    Circuit ansatz(2);
    ansatz.ry_param(0);

    BackendConfig config;
    config.kind = "clifford";
    config.ansatz = ansatz;
    config.cache.enabled = true;
    config.cache.capacity = 0;
    EXPECT_THROW(make_backend(config), std::invalid_argument);

    CacheOptions options;
    EXPECT_THROW(CachingDiscreteBackend(nullptr, options),
                 std::invalid_argument);
}

TEST(ErrorContracts, EvaluatorGuards)
{
    Circuit ansatz(2);
    ansatz.ry_param(0);
    const PauliSum op = PauliSum::from_terms(2, {{1.0, "ZZ"}});

    CliffordEvaluator clifford(ansatz);
    EXPECT_THROW((void)clifford.expectation(op), std::invalid_argument);

    IdealEvaluator ideal(ansatz);
    EXPECT_THROW((void)ideal.expectation(op), std::invalid_argument);

    NoisyEvaluator noisy(ansatz, NoiseModel{});
    EXPECT_THROW((void)noisy.expectation(op), std::invalid_argument);

    SampledEvaluator sampled(ansatz, 16, 1);
    EXPECT_THROW((void)sampled.expectation(op), std::invalid_argument);
    EXPECT_THROW(SampledEvaluator(ansatz, 0, 1), std::invalid_argument);
}

TEST(ErrorContracts, DriverGuards)
{
    Circuit ansatz(2);
    ansatz.ry_param(0);
    VqaObjective objective;
    objective.hamiltonian = PauliSum::from_terms(3, {{1.0, "ZZZ"}});
    EXPECT_THROW(CafqaPipeline({.ansatz = ansatz, .objective = objective}),
                 std::invalid_argument);

    VqaObjective ok;
    ok.hamiltonian = PauliSum::from_terms(2, {{1.0, "ZZ"}});

    EXPECT_THROW(
        basis_state_expectation(ok.hamiltonian, {1, 0, 1}),
        std::invalid_argument);

    // Infeasible constraints in the bitstring search.
    EXPECT_THROW(best_constrained_bitstring(
                     ok.hamiltonian,
                     {{PauliSum::from_terms(2, {{1.0, "II"}}), 5.0}}, 2),
                 std::invalid_argument);
}

TEST(ErrorContracts, ProblemGuards)
{
    EXPECT_THROW(problems::make_random_maxcut(1, 0.5, 1, "x"),
                 std::invalid_argument);
    EXPECT_THROW(problems::make_ring_maxcut(2), std::invalid_argument);
    const auto ring = problems::make_ring_maxcut(4);
    EXPECT_THROW(problems::make_qaoa_ansatz(ring, 0),
                 std::invalid_argument);
    EXPECT_THROW(problems::molecule_info("Unobtainium"),
                 std::invalid_argument);

    // Sector that cannot fit the active space.
    problems::MolecularSystemOptions options;
    options.sector_spin_2sz = 8; // H2 has only 2 active orbitals
    EXPECT_THROW(problems::make_molecular_system("H2", 0.74, options),
                 std::invalid_argument);

    // Spin chains need at least two sites (three for a ring).
    EXPECT_THROW(problems::make_tfim_chain(1, 1.0, 1.0, false),
                 std::invalid_argument);
    EXPECT_THROW(problems::make_xxz_chain(2, 1.0, 1.0, true),
                 std::invalid_argument);
}

TEST(ErrorContracts, MaxCutBruteForceLimitIsExplicit)
{
    // optimal_cut must refuse intractable instances with an error that
    // names the limit and the offending size, instead of silently
    // enumerating 2^n assignments.
    const auto big = problems::make_ring_maxcut(25);
    try {
        (void)big.optimal_cut();
        FAIL() << "optimal_cut accepted 25 vertices";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("24"), std::string::npos) << message;
        EXPECT_NE(message.find("25"), std::string::npos) << message;
    }
    // The brute-force cap is part of the public contract.
    EXPECT_EQ(problems::MaxCutProblem::max_brute_force_vertices, 24u);
    // At the registry level, an oversized instance simply has no exact
    // solver instead of a throwing one.
    EXPECT_FALSE(problems::make_problem("maxcut:ring-25")
                     .exact_energy()
                     .has_value());
}

TEST(ErrorContracts, ProblemRegistryUnknownKeysListTheRegisteredOnes)
{
    // A typo'd family must tell the caller which families exist,
    // mirroring the backend/optimizer registry contract.
    try {
        problems::make_problem("no-such-family:thing");
        FAIL() << "make_problem accepted an unknown family";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("no-such-family"), std::string::npos)
            << message;
        EXPECT_NE(message.find("registered:"), std::string::npos)
            << message;
        for (const char* family : {"molecule", "maxcut", "tfim", "xxz"}) {
            EXPECT_NE(message.find(family), std::string::npos)
                << "missing \"" << family << "\" in: " << message;
        }
    }

    // Unknown query parameters are rejected naming the accepted ones.
    try {
        problems::make_problem("tfim:chain-4?bogus=1");
        FAIL() << "make_problem accepted an unknown parameter";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("bogus"), std::string::npos) << message;
        EXPECT_NE(message.find("accepted"), std::string::npos) << message;
        EXPECT_NE(message.find("h"), std::string::npos) << message;
    }

    // Malformed instances and parameter values.
    EXPECT_THROW(problems::make_problem("tfim:blob-4"),
                 std::invalid_argument);
    EXPECT_THROW(problems::make_problem("tfim:chain-x"),
                 std::invalid_argument);
    EXPECT_THROW(problems::make_problem("tfim:chain-4?h=abc"),
                 std::invalid_argument);
    EXPECT_THROW(problems::make_problem("maxcut:er-8?p=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(problems::make_problem("maxcut:ring-6?ansatz=ucc"),
                 std::invalid_argument);
    EXPECT_THROW(problems::make_problem("molecule:H2?bond=-1"),
                 std::invalid_argument);
    EXPECT_THROW(problems::make_problem("molecule:Xe2?bond=1"),
                 std::invalid_argument);
}

TEST(ErrorContracts, RunSpecGuards)
{
    EXPECT_THROW(RunSpec::parse("bogus=1"), std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("warmup=1x"), std::invalid_argument);
    EXPECT_THROW(RunSpec::from_json("[1,2]"), std::invalid_argument);
    EXPECT_THROW(RunSpec{}.validate(), std::invalid_argument);
    EXPECT_THROW(BatchRunner(BatchOptions{.run_threads = 0}),
                 std::invalid_argument);
}

TEST(ErrorContracts, RunSpecRejectsDuplicateFields)
{
    // Duplicates are a hard error (never silent last-wins), in both
    // input forms.
    EXPECT_THROW(RunSpec::parse("problem=a seed=1 seed=2"),
                 std::invalid_argument);
    EXPECT_THROW(
        RunSpec::from_json(R"({"problem":"a","seed":1,"seed":2})"),
        std::invalid_argument);
    try {
        RunSpec::from_json(R"({"problem":"a","seed":1,"seed":2})");
        FAIL() << "duplicate field accepted";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("more than once"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ErrorContracts, JsonlErrorsNameTheOffendingLine)
{
    const std::string text = "{\"problem\":\"maxcut:ring-6\"}\n"
                             "# comment\n"
                             "\n"
                             "{\"problem\":\"a\",\"warmup\":0}\n";
    try {
        parse_run_specs_jsonl(text);
        FAIL() << "bad jsonl accepted";
    } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        // 1-based line number (comments and blanks count) + a snippet
        // of the offending line + the underlying field error.
        EXPECT_NE(what.find("jsonl line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("{\"problem\":\"a\",\"warmup\":0}"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("warmup"), std::string::npos) << what;
    }
}

} // namespace
} // namespace cafqa
