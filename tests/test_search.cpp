// Tests for the search orchestration subsystem (src/search/): the
// parallel tempering optimizer, the portfolio racer (parity with bare
// optimizers, merged-trace attribution, kill/rebalance, cancellation)
// and the cross-run warm-start layer (RunSpec field, pipeline seeding,
// BatchRunner hand-off chaining).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "core/batch_runner.hpp"
#include "core/run_spec.hpp"
#include "opt/optimizer_registry.hpp"
#include "search/parallel_tempering.hpp"
#include "search/portfolio.hpp"

namespace cafqa {
namespace {

/** Planted optimum at {1, 3, 0} on {0..3}^3 (64 configurations). */
const std::vector<int> kPlanted = {1, 3, 0};

double
planted_objective(const std::vector<int>& config)
{
    double s = 0.0;
    for (std::size_t i = 0; i < config.size(); ++i) {
        s += std::abs(config[i] - kPlanted[i]);
    }
    return s;
}

DiscreteSpace
planted_space()
{
    DiscreteSpace space;
    space.cardinalities.assign(3, 4);
    return space;
}

void
expect_same_outcome(const OptimizeOutcome& a, const OptimizeOutcome& b)
{
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.best_trace, b.best_trace);
    EXPECT_EQ(a.best_config, b.best_config);
    EXPECT_DOUBLE_EQ(a.best_value, b.best_value);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.evaluations_to_best, b.evaluations_to_best);
    EXPECT_EQ(a.stop_reason, b.stop_reason);
}

// ---------------------------------------------------------------------
// Parallel tempering.
// ---------------------------------------------------------------------

TEST(ParallelTempering, BatchedTrajectoryMatchesSerial)
{
    TemperingOptions options;
    options.seed = 19;
    options.sweeps = 40;
    ParallelTempering serial(options);
    const OptimizeOutcome a =
        serial.minimize(planted_objective, planted_space());

    SearchContext context;
    context.batch = [](const std::vector<std::vector<int>>& block) {
        std::vector<double> values;
        values.reserve(block.size());
        for (const auto& config : block) {
            values.push_back(planted_objective(config));
        }
        return values;
    };
    ParallelTempering batched(options);
    const OptimizeOutcome b =
        batched.minimize(planted_objective, planted_space(), {}, context);
    expect_same_outcome(a, b);
}

TEST(ParallelTempering, SingleReplicaIsValid)
{
    TemperingOptions options;
    options.replicas = 1;
    options.sweeps = 60;
    const OptimizeOutcome r = ParallelTempering(options).minimize(
        planted_objective, planted_space());
    EXPECT_EQ(r.history.size(), 60u);
    EXPECT_EQ(r.stop_reason, StopReason::BudgetExhausted);
}

TEST(ParallelTempering, RejectsBadOptions)
{
    TemperingOptions options;
    options.min_temperature = 0.0;
    EXPECT_THROW(ParallelTempering(options).minimize(planted_objective,
                                                     planted_space()),
                 std::invalid_argument);
    options = {};
    options.replicas = 0;
    EXPECT_THROW(ParallelTempering(options).minimize(planted_objective,
                                                     planted_space()),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Portfolio racing.
// ---------------------------------------------------------------------

/** Bare optimizer vs the same kind wrapped as a one-arm portfolio:
 *  they must be bit-identical (the parity anchor of the subsystem). */
class PortfolioParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PortfolioParity, OneArmPortfolioIsBitIdenticalToBareOptimizer)
{
    StoppingCriteria criteria;
    criteria.max_evaluations = 120;

    OptimizerConfig bare = optimizer_config(GetParam());
    bare.seed = 41;
    const OptimizeOutcome a = make_discrete_optimizer(bare)->minimize(
        planted_objective, planted_space(), criteria);

    OptimizerConfig wrapped =
        optimizer_config("portfolio:" + GetParam());
    wrapped.seed = 41;
    const OptimizeOutcome b = make_discrete_optimizer(wrapped)->minimize(
        planted_objective, planted_space(), criteria);

    expect_same_outcome(a, b);
}

INSTANTIATE_TEST_SUITE_P(Kinds, PortfolioParity,
                         ::testing::Values("anneal", "random",
                                           "tempering"));

TEST(PortfolioSearch, MergedTraceIsArmConcatenationWithAttribution)
{
    StoppingCriteria criteria;
    criteria.max_evaluations = 160;
    OptimizerConfig config = optimizer_config("portfolio:anneal+random");
    config.seed = 13;
    const auto optimizer = make_discrete_optimizer(config);
    const OptimizeOutcome merged = optimizer->minimize(
        planted_objective, planted_space(), criteria);

    auto* portfolio = dynamic_cast<PortfolioSearch*>(optimizer.get());
    ASSERT_NE(portfolio, nullptr);
    const PortfolioSearch::Report& report = portfolio->last_report();
    ASSERT_EQ(report.arms.size(), 2u);
    EXPECT_EQ(report.arms[0].kind, "anneal");
    EXPECT_EQ(report.arms[1].kind, "random");

    // Concatenation in arm order, offsets and attribution consistent.
    std::vector<double> concat;
    std::size_t evaluations = 0;
    for (std::size_t i = 0; i < report.arms.size(); ++i) {
        EXPECT_EQ(report.arms[i].history_offset, concat.size());
        const auto& history = report.arms[i].outcome.history;
        concat.insert(concat.end(), history.begin(), history.end());
        evaluations += report.arms[i].outcome.evaluations;
    }
    EXPECT_EQ(merged.history, concat);
    EXPECT_EQ(merged.evaluations, evaluations);
    ASSERT_EQ(report.trace_arm.size(), merged.history.size());
    for (std::size_t j = 0; j < report.trace_arm.size(); ++j) {
        const std::size_t arm = report.trace_arm[j];
        ASSERT_LT(arm, report.arms.size());
        EXPECT_EQ(
            merged.history[j],
            report.arms[arm]
                .outcome.history[j - report.arms[arm].history_offset]);
    }

    // The winner holds the returned best.
    const PortfolioSearch::ArmReport& winner =
        report.arms[report.winner];
    EXPECT_EQ(merged.best_config, winner.outcome.best_config);
    EXPECT_DOUBLE_EQ(merged.best_value, winner.outcome.best_value);

    // Per-arm budget semantics: each arm runs its full solo
    // trajectory (160 evaluations each), neither dominates long
    // enough to be killed on the planted toy, and the exactly-spent
    // pool denies every restart.
    EXPECT_EQ(merged.history.size(), 2u * 160u);
    EXPECT_EQ(report.arms[0].outcome.history.size(), 160u);
    EXPECT_EQ(report.arms[1].outcome.history.size(), 160u);
}

TEST(PortfolioSearch, DeterministicAcrossRepeatsAndEvalPaths)
{
    StoppingCriteria criteria;
    criteria.max_evaluations = 150;
    OptimizerConfig config =
        optimizer_config("portfolio:anneal+bayes+random");
    config.seed = 7;
    config.bayes.warmup = 20;
    config.bayes.iterations = 40;

    const OptimizeOutcome a = make_discrete_optimizer(config)->minimize(
        planted_objective, planted_space(), criteria);
    const OptimizeOutcome b = make_discrete_optimizer(config)->minimize(
        planted_objective, planted_space(), criteria);
    expect_same_outcome(a, b);

    // The factory path (concurrent evaluation, one objective per arm)
    // must yield the identical trajectory to the serialized path, and
    // must mint exactly one objective per arm.
    std::atomic<int> minted{0};
    SearchContext context;
    context.objective_factory = [&minted]() -> DiscreteObjective {
        ++minted;
        return planted_objective;
    };
    const OptimizeOutcome c = make_discrete_optimizer(config)->minimize(
        planted_objective, planted_space(), criteria, context);
    expect_same_outcome(a, c);
    EXPECT_EQ(minted.load(), 3);
}

/** An arm that only ever re-evaluates the worst corner — guaranteed to
 *  be dominated once the grace window passes. */
class StuckOptimizer final : public DiscreteOptimizer
{
  public:
    std::string_view name() const override { return "stuck"; }

    OptimizeOutcome minimize(const DiscreteObjective& objective,
                             const DiscreteSpace& space,
                             const StoppingCriteria& criteria,
                             const SearchContext& context) override
    {
        validate_space(space);
        OutcomeRecorder recorder(criteria, criteria.max_evaluations,
                                 context.progress);
        std::vector<int> corner(space.num_parameters());
        for (std::size_t i = 0; i < corner.size(); ++i) {
            corner[i] = space.cardinalities[i] - 1;
        }
        corner[0] = 0; // {0,3,3}: value 4 on the planted objective
        try {
            while (true) {
                recorder.record(corner, objective(corner));
            }
        } catch (const OutcomeRecorder::EarlyStop&) {
        }
        return recorder.finish(StopReason::BudgetExhausted);
    }
};

TEST(PortfolioSearch, DominatedArmIsKilledAndBudgetFlowsToSurvivor)
{
    // Arm seeds as "portfolio:anneal+stuck" with seed 23 would assign
    // them: arm i gets seed + i (the stuck arm ignores its seed).
    OptimizerConfig anneal_config = optimizer_config("anneal");
    anneal_config.seed = 23;
    std::vector<PortfolioArm> arms;
    arms.push_back({"anneal", make_discrete_optimizer(anneal_config)});
    arms.push_back({"stuck", std::make_unique<StuckOptimizer>()});
    PortfolioSearch portfolio(std::move(arms), "portfolio:anneal+stuck");

    StoppingCriteria criteria;
    criteria.max_evaluations = 320;
    const OptimizeOutcome merged = portfolio.minimize(
        planted_objective, planted_space(), criteria);

    const PortfolioSearch::Report& report = portfolio.last_report();
    ASSERT_EQ(report.arms.size(), 2u);
    const PortfolioSearch::ArmReport& anneal = report.arms[0];
    const PortfolioSearch::ArmReport& stuck = report.arms[1];

    // The stuck arm is dominated from its first round and never
    // improves, so it is killed once both the grace window (2 rounds)
    // and the staleness window (8 rounds) have passed — eight 32-eval
    // rounds — and records at most one further value while its
    // recorder observes the token.
    EXPECT_TRUE(stuck.killed);
    EXPECT_EQ(stuck.outcome.stop_reason, StopReason::Cancelled);
    EXPECT_LE(stuck.outcome.history.size(), 8u * 32u + 1u);
    // Its unspent budget flowed to the survivor: anneal first runs
    // its own full 320-eval budget, then is restarted (warm-started
    // from its best) on the reclaimed evaluations — well past what a
    // solo run could spend.
    EXPECT_GE(anneal.restarts, 1u);
    EXPECT_GE(anneal.outcome.history.size(), 320u + 64u);
    EXPECT_EQ(merged.stop_reason, StopReason::BudgetExhausted);
    EXPECT_EQ(report.winner, 0u);
    EXPECT_EQ(merged.best_config, kPlanted);
}

TEST(PortfolioSearch, TargetReachedWinsAndStopsEveryArm)
{
    StoppingCriteria criteria;
    criteria.max_evaluations = 400;
    criteria.target_value = 0.0;
    OptimizerConfig config = optimizer_config("portfolio:anneal+random");
    config.seed = 3;
    const OptimizeOutcome merged = make_discrete_optimizer(config)
                                       ->minimize(planted_objective,
                                                  planted_space(),
                                                  criteria);
    EXPECT_EQ(merged.stop_reason, StopReason::TargetReached);
    EXPECT_EQ(merged.best_value, 0.0);
    EXPECT_EQ(merged.best_config, kPlanted);
    EXPECT_LT(merged.history.size(), 400u);
}

TEST(PortfolioSearch, ExternalCancelStopsTheRace)
{
    const auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::atomic<int> calls{0};
    const auto objective = [&](const std::vector<int>& config) {
        if (++calls == 9) {
            cancel->store(true, std::memory_order_relaxed);
        }
        return planted_objective(config);
    };
    StoppingCriteria criteria;
    criteria.max_evaluations = 400;
    criteria.cancel = cancel;
    OptimizerConfig config = optimizer_config("portfolio:anneal+random");
    config.seed = 29;
    const OptimizeOutcome merged = make_discrete_optimizer(config)
                                       ->minimize(objective,
                                                  planted_space(),
                                                  criteria);
    EXPECT_EQ(merged.stop_reason, StopReason::Cancelled);
    // Every arm observes its token within one further evaluation.
    EXPECT_LE(merged.history.size(), 9u + 2u);
    ASSERT_FALSE(merged.best_config.empty());
    EXPECT_DOUBLE_EQ(planted_objective(merged.best_config),
                     merged.best_value);
}

// ---------------------------------------------------------------------
// Warm-start layer.
// ---------------------------------------------------------------------

TEST(WarmStart, SpecParsesEmitsAndRoundTrips)
{
    const RunSpec spec = RunSpec::parse(
        "problem=molecule:H2?bond=1.5 warm-start=1,3,0,2");
    EXPECT_EQ(spec.warm_start, (std::vector<int>{1, 3, 0, 2}));

    // Both serialized forms round-trip the field.
    EXPECT_EQ(RunSpec::parse(spec.to_string()), spec);
    EXPECT_EQ(RunSpec::from_json(spec.to_json()), spec);
    EXPECT_NE(spec.to_json().find("\"warm-start\":\"1,3,0,2\""),
              std::string::npos);

    // The underscore alias is accepted (canonical emission is
    // hyphenated, like every other multi-word field).
    RunSpec alias;
    alias.set("warm_start", "1,3,0,2");
    EXPECT_EQ(alias.warm_start, spec.warm_start);
}

TEST(WarmStart, StepsSeedThePipelineAfterHartreeFock)
{
    const problems::Problem problem =
        problems::make_problem("molecule:H2?bond=1.5");
    RunSpec spec;
    spec.problem = "molecule:H2?bond=1.5";
    spec.warm_start.assign(problem.ansatz.num_params(), 1);

    const PipelineConfig config = make_pipeline_config(spec, problem);
    ASSERT_GE(config.search.seed_steps.size(), 2u);
    EXPECT_EQ(config.search.seed_steps.back(), spec.warm_start);
    EXPECT_EQ(config.search.seed_steps.front(),
              problem.seed_steps.front());

    // Without hf_seed the warm start is the only seed.
    RunSpec bare = spec;
    bare.hf_seed = false;
    EXPECT_EQ(make_pipeline_config(bare, problem).search.seed_steps,
              std::vector<std::vector<int>>{spec.warm_start});

    // Wrong length is rejected with the counts in the message.
    RunSpec wrong = spec;
    wrong.warm_start.push_back(0);
    EXPECT_THROW(make_pipeline_config(wrong, problem),
                 std::invalid_argument);
}

TEST(WarmStart, RecordCarriesStepsAndWarmRunCannotBeWorse)
{
    // Bond lengths far out on the dissociation tail, where the best
    // Clifford assignment lands within chemical accuracy of exact
    // (closer in, CAFQA's discrete optimum is > 1.6 mHa away and
    // evals_to_accuracy is correctly absent).
    RunSpec cold = RunSpec::parse(
        "problem=molecule:H2?bond=2.8 warmup=25 iterations=25 seed=9");
    const RunRecord first = execute_run_spec(cold);
    ASSERT_TRUE(first.ok);
    ASSERT_FALSE(first.best_steps.empty());
    EXPECT_GE(first.evaluations, first.evaluations_to_best);
    ASSERT_TRUE(first.evals_to_accuracy.has_value());
    EXPECT_LE(*first.evals_to_accuracy, first.evaluations);
    EXPECT_NE(first.to_json().find("\"best_steps\":["),
              std::string::npos);
    EXPECT_NE(first.to_json().find("\"evaluations\":"),
              std::string::npos);

    // A neighboring bond length, warm-started from the first record:
    // the seed is evaluated before any exploration, so the warm run's
    // best can never be worse than the seed assignment's value there —
    // and on this smooth curve it reaches chemical accuracy
    // immediately.
    RunSpec warm = RunSpec::parse(
        "problem=molecule:H2?bond=3.0 warmup=25 iterations=25 seed=9");
    warm.warm_start = first.best_steps;
    const RunRecord second = execute_run_spec(warm);
    ASSERT_TRUE(second.ok);
    ASSERT_TRUE(second.evals_to_accuracy.has_value());

    RunSpec cold2 = warm;
    cold2.warm_start.clear();
    const RunRecord cold_second = execute_run_spec(cold2);
    ASSERT_TRUE(cold_second.ok);
    EXPECT_LE(second.best_objective,
              cold_second.best_objective + 1e-9);
    ASSERT_TRUE(cold_second.evals_to_accuracy.has_value());
    EXPECT_LE(*second.evals_to_accuracy,
              *cold_second.evals_to_accuracy);
}

TEST(WarmStart, BatchRunnerHookChainsRecords)
{
    const std::vector<RunSpec> specs = {
        RunSpec::parse("problem=molecule:H2?bond=1.5 warmup=20 "
                       "iterations=20 seed=5"),
        RunSpec::parse("problem=molecule:H2?bond=1.7 warmup=20 "
                       "iterations=20 seed=6"),
    };

    BatchOptions options;
    options.concurrency = 1;
    BatchRunner runner(options);
    std::vector<std::vector<int>> injected;
    runner.set_warm_start(
        [&injected](std::size_t index, const RunSpec&,
                    const std::vector<RunRecord>& records)
            -> std::vector<int> {
            if (index == 0 || !records[index - 1].ok) {
                return {};
            }
            injected.push_back(records[index - 1].best_steps);
            return records[index - 1].best_steps;
        });
    const std::vector<RunRecord> records = runner.run(specs);
    ASSERT_EQ(records.size(), 2u);
    ASSERT_TRUE(records[0].ok);
    ASSERT_TRUE(records[1].ok);
    ASSERT_EQ(injected.size(), 1u);
    EXPECT_EQ(injected[0], records[0].best_steps);
    // The reported spec stays as submitted (no warm_start leak).
    EXPECT_EQ(records[1].spec, specs[1]);

    // The chained run is bit-identical to a solo run with the same
    // warm start set explicitly.
    RunSpec solo = specs[1];
    solo.warm_start = records[0].best_steps;
    solo.threads = 1; // the runner's per-run pool remap
    const RunRecord reference = execute_run_spec(solo);
    EXPECT_EQ(records[1].best_objective, reference.best_objective);
    EXPECT_EQ(records[1].best_steps, reference.best_steps);
    EXPECT_EQ(records[1].evaluations, reference.evaluations);
}

TEST(PortfolioSearch, RunsEndToEndThroughRunSpec)
{
    const RunSpec spec = RunSpec::parse(
        "problem=molecule:H2?bond=1.5 search=portfolio:anneal+random "
        "budget=200 seed=12");
    const RunRecord record = execute_run_spec(spec);
    ASSERT_TRUE(record.ok) << record.error;
    EXPECT_EQ(record.stop_reason, "budget");
    // budget= is per arm: the two-arm portfolio may spend up to twice
    // the budget across its arms.
    EXPECT_GE(record.evaluations, 200u);
    EXPECT_LE(record.evaluations, 2u * 200u + 2u);
    // Round-trips the wire format (the job server submits flat JSON
    // RunSpecs, so surviving from_json(to_json(...)) is the wire
    // contract).
    EXPECT_EQ(RunSpec::from_json(spec.to_json()), spec);
}

} // namespace
} // namespace cafqa
