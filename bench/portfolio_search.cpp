// Portfolio search bench: the three acceptance claims of the search
// orchestration subsystem, on the paper's molecules plus one MaxCut.
//
//  (a) racing "portfolio:anneal+bayes+random" (per-arm budgets, so
//      every arm runs its solo trajectory) reaches at least the single
//      best arm's energy — without knowing in advance which strategy
//      wins — for no more wall-clock than trying the three arms
//      sequentially (and, with one core per arm, for roughly the best
//      arm's wall-clock alone);
//  (b) parallel tempering beats plain annealing on evaluations to the
//      best known Clifford value on LiH (the ladder escapes local
//      minima the single-temperature schedule gets stuck in; absolute
//      chemical accuracy is out of reach for the reduced 4-qubit LiH
//      ansatz, so nearness to the best known assignment is the
//      operative metric);
//  (c) warm-starting each dissociation-scan point from its left
//      neighbor's best Clifford assignment cuts total evaluations and
//      evaluations-to-accuracy versus independent cold searches.
//
// Everything is seeded: the portfolio is run twice and checked
// bit-identical before any numbers are reported. Emits
// BENCH_portfolio.json (override with --json <path>) so CI can archive
// a perf baseline and gate regressions with bench_check.

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <memory>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "core/batch_runner.hpp"
#include "core/evaluator.hpp"
#include "core/run_spec.hpp"
#include "opt/optimizer_registry.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

std::string json_lines; // accumulated metric records for the JSON dump

void
json_metric(const std::string& name, double value)
{
    if (!json_lines.empty()) {
        json_lines += ",\n  ";
    }
    json_lines += json_quote(name) + ": " + format_real(value);
}

std::string
evals_to_accuracy(const OptimizeOutcome& outcome, double exact)
{
    for (std::size_t i = 0; i < outcome.best_trace.size(); ++i) {
        if (outcome.best_trace[i] <= exact + chemical_accuracy) {
            return std::to_string(i + 1);
        }
    }
    return "-";
}

bool
identical(const OptimizeOutcome& a, const OptimizeOutcome& b)
{
    return a.history == b.history && a.best_config == b.best_config &&
           a.best_value == b.best_value &&
           a.stop_reason == b.stop_reason;
}

/** Claim (a) on one problem: each arm sequentially, then the race. */
void
race_on(const std::string& problem_key, std::uint64_t seed,
        std::size_t budget, const std::string& json_prefix)
{
    const auto problem = problems::make_problem(problem_key);
    CliffordEvaluator evaluator(problem.ansatz);
    auto objective_fn = [&](const std::vector<int>& steps) {
        evaluator.prepare(steps);
        return problem.objective.evaluate(evaluator);
    };
    const DiscreteSpace space = clifford_search_space(problem.ansatz);
    const double exact = problem.exact_energy().value();

    StoppingCriteria criteria;
    criteria.max_evaluations = budget;
    SearchContext context;
    context.seed_configs = problem.seed_steps;
    // The concurrent-evaluation path: each arm mints its own evaluator
    // (the pipeline does the same with clone()d backends).
    context.objective_factory = [&problem]() -> DiscreteObjective {
        auto eval =
            std::make_shared<CliffordEvaluator>(problem.ansatz);
        return [eval, &problem](const std::vector<int>& steps) {
            eval->prepare(steps);
            return problem.objective.evaluate(*eval);
        };
    };

    Table table(problem_key + ", " + std::to_string(budget) +
                "-evaluation budget");
    table.set_header(
        {"Strategy", "Error(Ha)", "EvalsToChemAcc", "Wall(ms)"});

    const std::vector<std::string> arms = {"anneal", "bayes", "random"};
    double best_arm_value = 0.0;
    double best_arm_wall = 0.0;
    double sequential_wall = 0.0;
    bool first_arm = true;
    for (std::size_t i = 0; i < arms.size(); ++i) {
        // Seed offset mirrors the portfolio's own arm seeding, so the
        // sequential baseline runs the exact arms the race runs.
        const auto optimizer = make_discrete_optimizer(
            strategy_config(arms[i], budget, seed + i));
        const auto start = std::chrono::steady_clock::now();
        const OptimizeOutcome outcome =
            optimizer->minimize(objective_fn, space, criteria, context);
        const double wall =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        sequential_wall += wall;
        if (first_arm || outcome.best_value < best_arm_value) {
            first_arm = false;
            best_arm_value = outcome.best_value;
            best_arm_wall = wall;
        }
        table.add_row(
            {arms[i],
             Table::sci(std::max(outcome.best_value - exact, 1e-10), 2),
             evals_to_accuracy(outcome, exact), Table::num(wall, 1)});
    }

    const auto portfolio = make_discrete_optimizer(
        strategy_config("portfolio:anneal+bayes+random", budget, seed));
    const auto start = std::chrono::steady_clock::now();
    const OptimizeOutcome raced =
        portfolio->minimize(objective_fn, space, criteria, context);
    const double raced_wall =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const OptimizeOutcome again =
        portfolio->minimize(objective_fn, space, criteria, context);
    table.add_row(
        {"portfolio (race)",
         Table::sci(std::max(raced.best_value - exact, 1e-10), 2),
         evals_to_accuracy(raced, exact), Table::num(raced_wall, 1)});
    table.print(std::cout);

    std::cout << "  deterministic re-run: "
              << (identical(raced, again) ? "bit-identical"
                                          : "MISMATCH (bug)")
              << "; race best " << Table::num(raced.best_value, 6)
              << " vs sequential best arm "
              << Table::num(best_arm_value, 6) << "\n  race wall "
              << Table::num(raced_wall, 1) << " ms vs "
              << Table::num(sequential_wall, 1)
              << " ms trying all three arms sequentially ("
              << Table::num(best_arm_wall, 1)
              << " ms for the winning arm alone — the race's floor"
                 " given one core per arm)\n\n";
    json_metric(json_prefix + "_race_wall_ms", raced_wall);
    json_metric(json_prefix + "_sequential_wall_ms", sequential_wall);
    json_metric(json_prefix + "_best_arm_wall_ms", best_arm_wall);
    json_metric(json_prefix + "_race_energy_gap",
                raced.best_value - best_arm_value);
}

/** Claim (b): tempering vs plain annealing on LiH, seed-averaged.
 *  The reduced 4-qubit LiH ansatz cannot represent the ground state
 *  to absolute chemical accuracy at this geometry, so the metric is
 *  evaluations to within chemical accuracy of the best Clifford value
 *  either strategy ever finds (a miss is censored at the budget). */
void
tempering_vs_anneal()
{
    const auto problem = problems::make_problem("molecule:LiH?bond=3.4");
    CliffordEvaluator evaluator(problem.ansatz);
    auto objective_fn = [&](const std::vector<int>& steps) {
        evaluator.prepare(steps);
        return problem.objective.evaluate(evaluator);
    };
    const DiscreteSpace space = clifford_search_space(problem.ansatz);
    const double exact = problem.exact_energy().value();
    const std::size_t budget = pick(400, 2000);
    const std::vector<std::uint64_t> seeds = {71, 7, 13, 29, 42};

    StoppingCriteria criteria;
    criteria.max_evaluations = budget;
    SearchContext context;
    context.seed_configs = problem.seed_steps;

    const std::vector<std::string> kinds = {"anneal", "tempering"};
    std::vector<std::vector<OptimizeOutcome>> outcomes(kinds.size());
    double best_known = 0.0;
    bool first = true;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        for (const std::uint64_t seed : seeds) {
            const auto optimizer = make_discrete_optimizer(
                strategy_config(kinds[k], budget, seed));
            outcomes[k].push_back(optimizer->minimize(
                objective_fn, space, criteria, context));
            if (first || outcomes[k].back().best_value < best_known) {
                first = false;
                best_known = outcomes[k].back().best_value;
            }
        }
    }

    Table table("LiH @ 3.4 A: tempering vs anneal, " +
                std::to_string(budget) + " evaluations, " +
                std::to_string(seeds.size()) + " seeds");
    table.set_header({"Strategy", "MeanError(Ha)", "SeedsAtBestKnown",
                      "MeanEvalsToBestKnown"});
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        double error_sum = 0.0;
        std::size_t hits = 0;
        double evals_sum = 0.0;
        for (const OptimizeOutcome& outcome : outcomes[k]) {
            error_sum += outcome.best_value - exact;
            std::size_t evals = budget; // censored: never got close
            for (std::size_t i = 0; i < outcome.best_trace.size();
                 ++i) {
                if (outcome.best_trace[i] <=
                    best_known + chemical_accuracy) {
                    evals = i + 1;
                    ++hits;
                    break;
                }
            }
            evals_sum += static_cast<double>(evals);
        }
        const double mean_evals =
            evals_sum / static_cast<double>(seeds.size());
        table.add_row(
            {kinds[k],
             Table::sci(error_sum / static_cast<double>(seeds.size()),
                        2),
             std::to_string(hits) + "/" + std::to_string(seeds.size()),
             Table::num(mean_evals, 1)});
        json_metric("lih_" + kinds[k] + "_mean_evals_to_best_known",
                    mean_evals);
    }
    table.print(std::cout);
    std::cout << "  Expected: the temperature ladder reaches the best"
                 " known Clifford value on more seeds, and in fewer"
                 " evaluations, than the single annealing schedule.\n\n";
}

/** Claim (c): warm vs cold dissociation scan (the example's workflow,
 *  sized for a bench run). */
void
warm_vs_cold_scan()
{
    const std::size_t points = pick(5, 12);
    const std::size_t warmup = pick(40, 300);
    const std::size_t iterations = pick(60, 500);

    const auto scan = [&](bool warm) {
        std::vector<RunSpec> specs;
        const auto info = problems::molecule_info("H2");
        const std::vector<double> bonds = linspace(
            info.min_bond_length, info.max_bond_length, points);
        for (std::size_t i = 0; i < points; ++i) {
            RunSpec spec;
            spec.problem =
                "molecule:H2?bond=" + format_real(bonds[i]);
            spec.warmup = warmup;
            spec.iterations = iterations;
            spec.seed = 3 + i;
            specs.push_back(std::move(spec));
        }
        BatchOptions options;
        options.concurrency = 1;
        BatchRunner runner(options);
        if (warm) {
            runner.set_warm_start(
                [](std::size_t index, const RunSpec&,
                   const std::vector<RunRecord>& records)
                    -> std::vector<int> {
                    if (index == 0 || !records[index - 1].ok) {
                        return {};
                    }
                    return records[index - 1].best_steps;
                });
        }
        return runner.run(specs);
    };

    Table table("H2 dissociation scan, " + std::to_string(points) +
                " points: warm start vs cold");
    table.set_header({"Mode", "TotalEvals", "MeanEvalsToChemAcc",
                      "PointsAtChemAcc"});
    for (const bool warm : {false, true}) {
        const std::vector<RunRecord> records = scan(warm);
        std::size_t total = 0;
        std::size_t hits = 0;
        std::size_t hit_evals = 0;
        for (const RunRecord& record : records) {
            total += record.evaluations;
            if (record.evals_to_accuracy.has_value()) {
                ++hits;
                hit_evals += *record.evals_to_accuracy;
            }
        }
        table.add_row(
            {warm ? "warm" : "cold", std::to_string(total),
             hits > 0 ? Table::num(static_cast<double>(hit_evals) /
                                       static_cast<double>(hits),
                                   1)
                      : "-",
             std::to_string(hits) + "/" + std::to_string(points)});
        json_metric(warm ? "scan_warm_mean_evals_to_acc"
                         : "scan_cold_mean_evals_to_acc",
                    hits > 0 ? static_cast<double>(hit_evals) /
                                   static_cast<double>(hits)
                             : 0.0);
    }
    table.print(std::cout);
    std::cout << "  Expected: warm reaches chemical accuracy in fewer"
                 " evaluations per point (the neighbor's optimum is"
                 " evaluated right after the HF seed).\n\n";
}

void
print_portfolio_bench()
{
    banner("Portfolio search, parallel tempering and warm-start "
           "transfer");
    // Bond 2.8 is the shortest H2 geometry where the Clifford optimum
    // sits within chemical accuracy of exact, so the accuracy column
    // is meaningful.
    race_on("molecule:H2?bond=2.8", 71, pick(240, 1200), "h2");
    race_on("molecule:LiH?bond=3.4", 71, pick(300, 1500), "lih");
    race_on("maxcut:ring-8", 71, pick(240, 1200), "maxcut");
    tempering_vs_anneal();
    warm_vs_cold_scan();
}

void
BM_PortfolioRace(benchmark::State& state)
{
    const auto problem = problems::make_problem("molecule:H2?bond=2.2");
    CliffordEvaluator evaluator(problem.ansatz);
    auto objective_fn = [&](const std::vector<int>& steps) {
        evaluator.prepare(steps);
        return problem.objective.evaluate(evaluator);
    };
    const DiscreteSpace space = clifford_search_space(problem.ansatz);
    StoppingCriteria criteria;
    criteria.max_evaluations = 96;
    for (auto _ : state) {
        const auto portfolio = make_discrete_optimizer(
            strategy_config("portfolio:anneal+random", 96, 5));
        benchmark::DoNotOptimize(
            portfolio->minimize(objective_fn, space, criteria));
    }
}
BENCHMARK(BM_PortfolioRace);

} // namespace

int
main(int argc, char** argv)
{
    std::string json_path = "BENCH_portfolio.json";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc) {
            json_path = argv[i + 1];
            // Swallow the pair so google-benchmark's own flag parser
            // does not reject it below.
            for (int j = i; j + 2 < argc; ++j) {
                argv[j] = argv[j + 2];
            }
            argc -= 2;
            --i;
        }
    }

    print_portfolio_bench();

    std::ofstream json(json_path);
    if (json) {
        json << "{\n  \"bench\": \"portfolio_search\",\n  \"scale\": "
             << json_quote(scale_name()) << ",\n  " << json_lines
             << "\n}\n";
        std::cout << "wrote " << json_path << '\n';
    }

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
