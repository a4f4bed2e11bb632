// Tests for the CafqaPipeline facade: parity with a serial Bayesian
// search, the mapping from stage budgets to every strategy's config,
// determinism across thread counts, observer events, staged execution,
// and the exhaustive-search fan-out.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/clifford_ansatz.hpp"
#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "exhaustive_search.hpp"
#include "opt/optimizer_registry.hpp"
#include "problems/molecule_factory.hpp"
#include "problems/problem.hpp"
#include "statevector/lanczos.hpp"

namespace cafqa {
namespace {

CafqaOptions
small_budget(std::uint64_t seed)
{
    CafqaOptions options;
    options.warmup = 60;
    options.iterations = 60;
    options.seed = seed;
    return options;
}

TEST(CafqaPipeline, BatchedWarmupMatchesSerialBayesOpt)
{
    // The pipeline's thread-pool warm-up must reproduce the exact
    // trajectory of a hand-rolled serial search with the same options.
    const auto system = problems::make_molecular_system("H2", 2.2);
    const VqaObjective objective = problems::make_objective(system);
    const CafqaOptions options = small_budget(19);

    // Serial reference: no batch hook, plain evaluator loop.
    CliffordEvaluator evaluator(system.ansatz);
    const OptimizeOutcome reference =
        BayesOptimizer({.warmup = options.warmup,
                        .iterations = options.iterations,
                        .seed = options.seed})
            .minimize(
                [&](const std::vector<int>& steps) {
                    evaluator.prepare(steps);
                    return objective.evaluate(evaluator);
                },
                clifford_search_space(system.ansatz));

    // Pipeline with a 3-worker pool.
    PipelineConfig config;
    config.ansatz = system.ansatz;
    config.objective = objective;
    config.search = options;
    config.threads = 3;
    CafqaPipeline pipeline(std::move(config));
    const CafqaResult& result = pipeline.run_clifford_search();

    ASSERT_EQ(result.history.size(), reference.history.size());
    for (std::size_t i = 0; i < result.history.size(); ++i) {
        EXPECT_DOUBLE_EQ(result.history[i], reference.history[i])
            << "evaluation " << i;
    }
    EXPECT_EQ(result.best_steps, reference.best_config);
    EXPECT_DOUBLE_EQ(result.best_objective, reference.best_value);
    EXPECT_EQ(result.evaluations_to_best, reference.evaluations_to_best);
}

TEST(CafqaPipeline, SearchStrategyConfigIsTheStageBudget)
{
    // Every discrete strategy, at a zero and a nonzero stage seed, must
    // run exactly as a bare optimizer built from the config written out
    // by hand: the stage seed as the registry seed and the "bayes"
    // seed, the budget as the "bayes" warm-up/model split, and the
    // prior seeds plus the budget as every other strategy's cap.
    const problems::Problem problem =
        problems::make_problem("molecule:H2?bond=2.2");
    ASSERT_FALSE(problem.seed_steps.empty());
    const std::vector<PauliSum> observables =
        problem.objective.gather_observables();
    constexpr std::size_t kWarmup = 20;
    constexpr std::size_t kIterations = 30;

    std::vector<std::string> kinds = registered_discrete_optimizers();
    kinds.push_back("portfolio:anneal+random");
    for (const std::string& kind : kinds) {
        for (const std::uint64_t seed : {0u, 11u}) {
            SCOPED_TRACE(kind + " seed " + std::to_string(seed));
            PipelineConfig config;
            config.ansatz = problem.ansatz;
            config.objective = problem.objective;
            config.search = {.warmup = kWarmup,
                             .iterations = kIterations,
                             .seed = seed,
                             .seed_steps = problem.seed_steps};
            config.search_optimizer = kind;
            CafqaPipeline pipeline(std::move(config));
            const CafqaResult& staged = pipeline.run_clifford_search();

            OptimizerConfig by_hand = optimizer_config(kind);
            by_hand.seed = seed;
            by_hand.bayes.warmup = kWarmup;
            by_hand.bayes.iterations = kIterations;
            by_hand.bayes.seed = seed;
            StoppingCriteria criteria;
            if (kind != "bayes") {
                criteria.max_evaluations =
                    problem.seed_steps.size() + kWarmup + kIterations;
            }
            const auto objective = [&](CliffordEvaluator& evaluator,
                                       const std::vector<int>& steps) {
                evaluator.prepare(steps);
                return problem.objective.combine(
                    evaluator.expectations(observables));
            };
            CliffordEvaluator evaluator(problem.ansatz);
            SearchContext context;
            context.seed_configs = problem.seed_steps;
            context.objective_factory = [&]() -> DiscreteObjective {
                auto own = std::make_shared<CliffordEvaluator>(problem.ansatz);
                return [&objective, own](const std::vector<int>& steps) {
                    return objective(*own, steps);
                };
            };
            const OptimizeOutcome bare =
                make_discrete_optimizer(by_hand)->minimize(
                    [&](const std::vector<int>& steps) {
                        return objective(evaluator, steps);
                    },
                    clifford_search_space(problem.ansatz), criteria,
                    context);

            EXPECT_EQ(staged.history, bare.history);
            EXPECT_EQ(staged.best_steps, bare.best_config);
        }
    }
}

TEST(CafqaPipeline, TuneStrategyConfigIsTheTunerBudget)
{
    // The "spsa" tune runs `tuner.iterations` steps from `tuner.seed`
    // with the pipeline's fixed gains; any other tuner is capped at
    // `tuner.iterations` evaluations.
    const problems::Problem problem =
        problems::make_problem("molecule:H2?bond=2.2");
    const std::vector<PauliSum> observables =
        problem.objective.gather_observables();
    const std::vector<double> start =
        steps_to_angles(problem.seed_steps.front());
    constexpr std::size_t kIterations = 12;

    for (const std::string kind : {"spsa", "nelder-mead"}) {
        for (const std::uint64_t seed : {0u, 11u}) {
            SCOPED_TRACE(kind + " seed " + std::to_string(seed));
            PipelineConfig config;
            config.ansatz = problem.ansatz;
            config.objective = problem.objective;
            config.tuner.iterations = kIterations;
            config.tuner.seed = seed;
            config.tuner_optimizer = kind;
            CafqaPipeline pipeline(std::move(config));
            const VqaTuneResult& staged = pipeline.run_vqa_tune(start);

            OptimizerConfig by_hand = optimizer_config(kind);
            by_hand.seed = seed;
            by_hand.spsa = {.iterations = kIterations,
                            .a = 2.0,
                            .c = 0.2,
                            .alpha = 0.602,
                            .gamma = 0.101,
                            .stability = 20.0,
                            .seed = seed};
            StoppingCriteria criteria;
            if (kind != "spsa") {
                criteria.max_evaluations = kIterations;
            }
            IdealEvaluator evaluator(problem.ansatz);
            const OptimizeOutcome bare =
                make_continuous_optimizer(by_hand)->minimize(
                    [&](const std::vector<double>& params) {
                        evaluator.prepare(params);
                        return problem.objective.combine(
                            evaluator.expectations(observables));
                    },
                    start, criteria);

            EXPECT_EQ(staged.trace, bare.history);
            EXPECT_EQ(staged.final_params, bare.best_x);
        }
    }
}

TEST(CafqaPipeline, DeterministicAcrossThreadCounts)
{
    const auto system = problems::make_molecular_system("H2", 1.5);
    const VqaObjective objective = problems::make_objective(system);

    std::vector<CafqaResult> results;
    for (const std::size_t threads : {1u, 4u}) {
        PipelineConfig config;
        config.ansatz = system.ansatz;
        config.objective = objective;
        config.search = small_budget(7);
        config.threads = threads;
        CafqaPipeline pipeline(std::move(config));
        results.push_back(pipeline.run_clifford_search());
    }
    EXPECT_EQ(results[0].best_steps, results[1].best_steps);
    EXPECT_EQ(results[0].history, results[1].history);
}

TEST(CafqaPipeline, TuneIsIdenticalAcrossThreadCounts)
{
    // With two workers the statevector tune evaluates SPSA's two probes
    // at once; every backend must still give the same result, byte for
    // byte, and the same Progress events in the same order.
    const auto system = problems::make_molecular_system("H2", 1.5);
    const VqaObjective objective = problems::make_objective(system);
    const auto bits = [](const std::vector<double>& values) {
        std::vector<std::uint64_t> out;
        for (const double v : values) {
            out.push_back(std::bit_cast<std::uint64_t>(v));
        }
        return out;
    };

    for (const char* backend : {"statevector", "density", "sampled"}) {
        std::vector<VqaTuneResult> results;
        std::vector<std::vector<std::pair<std::size_t, std::uint64_t>>>
            progress(2);
        for (const std::size_t threads : {1u, 2u}) {
            PipelineConfig config;
            config.ansatz = system.ansatz;
            config.objective = objective;
            config.search = small_budget(11);
            config.tuner.iterations = 15;
            config.tuner.backend = backend;
            config.tuner.shots = 128;
            config.threads = threads;
            CafqaPipeline pipeline(std::move(config));
            pipeline.run_clifford_search();
            auto& seen = progress[results.size()];
            pipeline.set_observer([&seen](const PipelineEvent& event) {
                if (event.event == PipelineEvent::Kind::Progress) {
                    seen.emplace_back(
                        event.evaluation,
                        std::bit_cast<std::uint64_t>(event.best_value));
                }
            });
            results.push_back(pipeline.run_vqa_tune());
        }
        // Start point, then two probes and a step per iteration.
        EXPECT_EQ(progress[0].size(), 1u + 3u * 15u) << backend;
        EXPECT_EQ(progress[0], progress[1]) << backend;
        EXPECT_EQ(bits(results[0].trace), bits(results[1].trace)) << backend;
        EXPECT_EQ(bits(results[0].final_params),
                  bits(results[1].final_params))
            << backend;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(results[0].final_value),
                  std::bit_cast<std::uint64_t>(results[1].final_value))
            << backend;
        EXPECT_EQ(results[0].stop_reason, results[1].stop_reason) << backend;
    }
}

TEST(CafqaPipeline, ObserverSeesStagesAndProgress)
{
    const auto system = problems::make_molecular_system("H2", 1.2);

    PipelineConfig config;
    config.ansatz = system.ansatz;
    config.objective = problems::make_objective(system);
    config.search = small_budget(3);
    config.tuner.iterations = 20;
    CafqaPipeline pipeline(std::move(config));

    std::vector<std::string> stages_begun;
    std::vector<std::string> stages_ended;
    std::size_t progress_events = 0;
    pipeline.set_observer([&](const PipelineEvent& event) {
        switch (event.event) {
          case PipelineEvent::Kind::StageBegin:
            stages_begun.emplace_back(event.stage);
            break;
          case PipelineEvent::Kind::StageEnd:
            stages_ended.emplace_back(event.stage);
            break;
          case PipelineEvent::Kind::Progress:
            ++progress_events;
            break;
        }
    });

    const CafqaResult& search = pipeline.run_clifford_search();
    EXPECT_EQ(stages_begun,
              std::vector<std::string>{"clifford_search"});
    EXPECT_EQ(stages_ended, std::vector<std::string>{"clifford_search"});
    // One progress event per discrete-search evaluation.
    EXPECT_EQ(progress_events, search.history.size());

    pipeline.run_vqa_tune();
    EXPECT_EQ(stages_begun,
              (std::vector<std::string>{"clifford_search", "vqa_tune"}));
    EXPECT_EQ(stages_ended,
              (std::vector<std::string>{"clifford_search", "vqa_tune"}));
    EXPECT_GT(progress_events, search.history.size());
}

TEST(CafqaPipeline, StagesAreIdempotentAndChained)
{
    const auto system = problems::make_molecular_system("H2", 1.8);

    PipelineConfig config;
    config.ansatz = system.ansatz;
    config.objective = problems::make_objective(system);
    config.search = small_budget(5);
    config.tuner.iterations = 30;
    CafqaPipeline pipeline(std::move(config));

    EXPECT_FALSE(pipeline.clifford_search_done());
    EXPECT_THROW(pipeline.clifford_result(), std::invalid_argument);
    EXPECT_THROW(pipeline.best_steps(), std::invalid_argument);

    // run_vqa_tune auto-runs the Clifford stage first.
    const VqaTuneResult& tuned = pipeline.run_vqa_tune();
    EXPECT_TRUE(pipeline.clifford_search_done());
    EXPECT_TRUE(pipeline.vqa_tune_done());

    // Tuning from the CAFQA point can only improve the objective.
    EXPECT_LE(tuned.final_value,
              pipeline.clifford_result().best_objective + 1e-9);

    // Second calls return the cached results.
    const CafqaResult& first = pipeline.run_clifford_search();
    const CafqaResult& second = pipeline.run_clifford_search();
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(&pipeline.run_vqa_tune(), &tuned);

    // The explicit-initialization overload refuses to silently drop a
    // new starting point once tuning has happened.
    EXPECT_THROW(pipeline.run_vqa_tune(pipeline.initial_params()),
                 std::invalid_argument);
}

TEST(CafqaPipeline, TBoostNeverHurtsAndFillsResultTypes)
{
    const auto system = problems::make_molecular_system("H2", 1.8);

    PipelineConfig config;
    config.ansatz = system.ansatz;
    config.objective = problems::make_objective(system);
    config.search = small_budget(13);
    CafqaPipeline pipeline(std::move(config));

    const TBoostResult& boost = pipeline.run_t_boost(1);
    const CafqaResult& base = pipeline.clifford_result();

    EXPECT_LE(boost.best_objective, base.best_objective + 1e-9);
    EXPECT_LE(boost.t_positions.size(), 1u);
    EXPECT_EQ(boost.circuit.count(GateKind::T), boost.t_positions.size());
    if (boost.t_positions.empty()) {
        // No insertion accepted: the boost echoes the Clifford point.
        EXPECT_EQ(boost.best_steps, base.best_steps);
        EXPECT_DOUBLE_EQ(boost.best_energy, base.best_energy);
    }
    EXPECT_EQ(&pipeline.best_circuit(), &boost.circuit);

    const GroundState exact = lanczos_ground_state(system.hamiltonian);
    EXPECT_GE(boost.best_energy, exact.energy - 1e-9);
}

TEST(CafqaPipeline, SampledTuneBackendRunsThroughRegistry)
{
    const auto system = problems::make_molecular_system("H2", 1.2);

    PipelineConfig config;
    config.ansatz = system.ansatz;
    config.objective = problems::make_objective(system);
    config.search = small_budget(29);
    config.tuner.iterations = 10;
    config.tuner.backend = "sampled";
    config.tuner.shots = 256;
    CafqaPipeline pipeline(std::move(config));

    const VqaTuneResult& tuned = pipeline.run_vqa_tune();
    // Start-point value plus one entry per SPSA step.
    EXPECT_EQ(tuned.trace.size(), 11u);
    EXPECT_TRUE(std::isfinite(tuned.final_value));
}

TEST(CafqaPipeline, AnySearchTunerRegistryPairRunsEndToEnd)
{
    const auto system = problems::make_molecular_system("H2", 1.8);
    const VqaObjective objective = problems::make_objective(system);

    for (const std::string search : {"anneal", "random", "exhaustive"}) {
        for (const std::string tuner : {"nelder-mead", "spsa"}) {
            PipelineConfig config;
            config.ansatz = system.ansatz;
            config.objective = objective;
            config.search = small_budget(37);
            config.tuner.iterations = 25;
            config.search_optimizer = search;
            config.tuner_optimizer = tuner;
            CafqaPipeline pipeline(std::move(config));

            const CafqaResult& found = pipeline.run_clifford_search();
            EXPECT_TRUE(std::isfinite(found.best_objective))
                << search << "+" << tuner;
            // Every strategy honors the shared stage budget.
            EXPECT_LE(found.history.size(), 120u) << search;

            const VqaTuneResult& tuned = pipeline.run_vqa_tune();
            EXPECT_TRUE(std::isfinite(tuned.final_value))
                << search << "+" << tuner;
            EXPECT_LE(tuned.final_value, found.best_objective + 1e-9)
                << search << "+" << tuner;
        }
    }
}

TEST(CafqaPipeline, SearchStrategiesAgreeOnSmallProblem)
{
    // H2's Clifford space is small enough that exhaustive enumeration
    // certifies the optimum; the guided strategies must match it at a
    // generous budget (the paper's Section 5 validation).
    const auto system = problems::make_molecular_system("H2", 2.2);
    const VqaObjective objective = problems::make_objective(system);

    auto best_with = [&](const std::string& kind, std::size_t budget) {
        PipelineConfig config;
        config.ansatz = system.ansatz;
        config.objective = objective;
        config.search.warmup = budget / 2;
        config.search.iterations = budget - budget / 2;
        config.search.seed = 11;
        config.search_optimizer = kind;
        CafqaPipeline pipeline(std::move(config));
        return pipeline.run_clifford_search().best_objective;
    };

    const double exhaustive = best_with("exhaustive", 1u << 16);
    EXPECT_NEAR(best_with("bayes", 400), exhaustive, 1e-9);
}

TEST(CafqaPipeline, TargetValueStopsSearchEarly)
{
    const auto system = problems::make_molecular_system("H2", 2.2);
    const VqaObjective objective = problems::make_objective(system);

    // Reference run: full budget, no early exit.
    PipelineConfig full;
    full.ansatz = system.ansatz;
    full.objective = objective;
    full.search = small_budget(19);
    CafqaPipeline full_pipeline(std::move(full));
    const CafqaResult& reference = full_pipeline.run_clifford_search();
    ASSERT_LT(reference.evaluations_to_best, reference.history.size());

    // Same seed with the best value as the target: the stage must stop
    // at the evaluation that reaches it instead of burning the rest of
    // the budget.
    PipelineConfig early;
    early.ansatz = system.ansatz;
    early.objective = objective;
    early.search = small_budget(19);
    early.stopping.target_value = reference.best_objective;
    CafqaPipeline early_pipeline(std::move(early));
    const CafqaResult& stopped = early_pipeline.run_clifford_search();

    EXPECT_EQ(stopped.stop_reason, StopReason::TargetReached);
    EXPECT_EQ(stopped.history.size(), reference.evaluations_to_best);
    EXPECT_LT(stopped.history.size(), reference.history.size());
    EXPECT_DOUBLE_EQ(stopped.best_objective, reference.best_objective);
}

TEST(CafqaPipeline, TargetValueStopsTunerEarly)
{
    const auto system = problems::make_molecular_system("H2", 1.2);

    PipelineConfig config;
    config.ansatz = system.ansatz;
    config.objective = problems::make_objective(system);
    config.search = small_budget(3);
    config.tuner.iterations = 200;
    CafqaPipeline reference_pipeline(std::move(config));
    const VqaTuneResult& reference = reference_pipeline.run_vqa_tune();

    PipelineConfig early;
    early.ansatz = system.ansatz;
    early.objective = problems::make_objective(system);
    early.search = small_budget(3);
    early.tuner.iterations = 200;
    early.stopping.target_value = reference.final_value;
    CafqaPipeline early_pipeline(std::move(early));
    const VqaTuneResult& stopped = early_pipeline.run_vqa_tune();

    EXPECT_EQ(stopped.stop_reason, StopReason::TargetReached);
    EXPECT_LE(stopped.trace.size(), reference.trace.size());
    EXPECT_LE(stopped.final_value, reference.final_value + 1e-12);
}

TEST(ExhaustiveSearch, ParallelScanMatchesSerialReference)
{
    // 4 parameters -> 256 configurations: cheap enough to enumerate
    // three times. The pipeline's "exhaustive" kind must reproduce the
    // serial scan exactly at any thread count, including the
    // first-winner tie-breaking.
    Circuit ansatz(2);
    ansatz.ry_param(0);
    ansatz.ry_param(1);
    ansatz.cx(0, 1);
    ansatz.rz_param(0);
    ansatz.ry_param(1);

    VqaObjective objective;
    objective.hamiltonian = PauliSum::from_terms(
        2, {{0.5, "XX"}, {-0.3, "ZI"}, {0.2, "ZZ"}});

    CliffordEvaluator evaluator(ansatz);
    std::vector<int> steps(ansatz.num_params(), 0);
    std::vector<double> history;
    double best_value = 0.0;
    std::vector<int> best_steps;
    std::size_t best_code = 0;
    const std::uint64_t limit =
        std::uint64_t{1} << (2 * ansatz.num_params());
    for (std::uint64_t code = 0; code < limit; ++code) {
        std::uint64_t rest = code;
        for (std::size_t i = 0; i < steps.size(); ++i) {
            steps[i] = static_cast<int>(rest & 3);
            rest >>= 2;
        }
        evaluator.prepare(steps);
        const double value = objective.evaluate(evaluator);
        history.push_back(value);
        if (code == 0 || value < best_value) {
            best_value = value;
            best_steps = steps;
            best_code = code;
        }
    }

    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const CafqaResult result =
            exhaustive_search(ansatz, objective, threads);
        EXPECT_EQ(result.stop_reason, StopReason::SpaceExhausted);
        EXPECT_EQ(result.best_steps, best_steps);
        EXPECT_DOUBLE_EQ(result.best_objective, best_value);
        EXPECT_EQ(result.evaluations_to_best, best_code + 1);
        EXPECT_EQ(result.history, history);
    }
}

} // namespace
} // namespace cafqa
