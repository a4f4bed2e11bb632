// RunSpec (parse/serialize round-trip, bad-spec rejection),
// BatchRunner (concurrent execution equals solo execution, observer
// fan-in, per-run error capture) and ExactEnergyMemo (one solve per
// key, memoized errors, LRU bound) tests.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/batch_runner.hpp"
#include "core/exact_memo.hpp"
#include "core/run_spec.hpp"

namespace cafqa {
namespace {

TEST(RunSpec, DefaultsMirrorTheHistoricalCli)
{
    const RunSpec spec;
    EXPECT_EQ(spec.warmup, 200u);
    EXPECT_EQ(spec.iterations, 300u);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.search, "bayes");
    EXPECT_EQ(spec.tuner, "spsa");
    EXPECT_TRUE(spec.hf_seed);
    EXPECT_EQ(spec.tune, 0u);
    EXPECT_FALSE(spec.cache);
}

TEST(RunSpec, ParsesEveryField)
{
    const RunSpec spec = RunSpec::parse(
        "problem=molecule:LiH?bond=2.4 label=demo warmup=10 "
        "iterations=20 seed=3 search=anneal hf-seed=0 max-t=1 tune=50 "
        "tune-backend=sampled tuner=nelder-mead budget=100 "
        "target-energy=-7.5 threads=2 cache=1 cache-capacity=4096");
    EXPECT_EQ(spec.problem, "molecule:LiH?bond=2.4");
    EXPECT_EQ(spec.label, "demo");
    EXPECT_EQ(spec.warmup, 10u);
    EXPECT_EQ(spec.iterations, 20u);
    EXPECT_EQ(spec.seed, 3u);
    EXPECT_EQ(spec.search, "anneal");
    EXPECT_FALSE(spec.hf_seed);
    EXPECT_EQ(spec.max_t, 1u);
    EXPECT_EQ(spec.tune, 50u);
    EXPECT_EQ(spec.tune_backend, "sampled");
    EXPECT_EQ(spec.tuner, "nelder-mead");
    EXPECT_EQ(spec.budget, 100u);
    EXPECT_DOUBLE_EQ(spec.target_energy.value(), -7.5);
    EXPECT_EQ(spec.threads, 2u);
    EXPECT_TRUE(spec.cache);
    EXPECT_EQ(spec.cache_capacity, 4096u);
}

TEST(RunSpec, TextRoundTrip)
{
    for (const char* text :
         {"problem=molecule:H2?bond=2.2",
          "problem=maxcut:ring-8 warmup=60 search=anneal",
          "problem=tfim:chain-6?h=1.25 iterations=40 seed=0 "
          "target-energy=-8.25 cache=1",
          "problem=xxz:chain-4 hf-seed=0 tune=50 tuner=nelder-mead "
          "max-t=2 budget=500 threads=3 cache-capacity=128 label=x"}) {
        SCOPED_TRACE(text);
        const RunSpec spec = RunSpec::parse(text);
        const RunSpec reparsed = RunSpec::parse(spec.to_string());
        EXPECT_EQ(reparsed, spec);
    }
}

TEST(RunSpec, JsonRoundTrip)
{
    const RunSpec spec = RunSpec::parse(
        "problem=molecule:LiH?bond=2.4 warmup=10 iterations=20 seed=3 "
        "search=anneal hf-seed=0 tune=50 target-energy=-7.5 cache=1");
    const std::string json = spec.to_json();
    EXPECT_EQ(RunSpec::from_json(json), spec);

    // Hand-written JSON with whitespace and reordered fields.
    const RunSpec parsed = RunSpec::from_json(
        R"({ "warmup": 60, "problem": "maxcut:ring-8", "cache": true })");
    EXPECT_EQ(parsed.problem, "maxcut:ring-8");
    EXPECT_EQ(parsed.warmup, 60u);
    EXPECT_TRUE(parsed.cache);
}

TEST(RunSpec, RejectsBadSpecs)
{
    // Unknown field, malformed token, bad numbers, duplicates.
    EXPECT_THROW(RunSpec::parse("bogus=1"), std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("warmup"), std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("=5"), std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("warmup=abc"), std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("warmup=0"), std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("threads=0"), std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("target-energy=nan"),
                 std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("cache=maybe"), std::invalid_argument);
    EXPECT_THROW(RunSpec::parse("seed=1 seed=2"), std::invalid_argument);

    // The error names the accepted fields.
    try {
        RunSpec::parse("bogus=1");
        FAIL() << "unknown field accepted";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("bogus"), std::string::npos) << message;
        EXPECT_NE(message.find("accepted fields"), std::string::npos)
            << message;
        EXPECT_NE(message.find("problem"), std::string::npos) << message;
    }

    // Malformed JSON forms.
    EXPECT_THROW(RunSpec::from_json("not json"), std::invalid_argument);
    EXPECT_THROW(RunSpec::from_json("{\"problem\":"),
                 std::invalid_argument);
    EXPECT_THROW(RunSpec::from_json("{\"warmup\":0}"),
                 std::invalid_argument);
    EXPECT_THROW(RunSpec::from_json("{\"problem\":\"x\"} trailing"),
                 std::invalid_argument);
    EXPECT_THROW(RunSpec::from_json("{\"nope\":1}"),
                 std::invalid_argument);

    // A spec without a problem fails validation, not parsing.
    EXPECT_NO_THROW(RunSpec::parse("warmup=10"));
    EXPECT_THROW(RunSpec::parse("warmup=10").validate(),
                 std::invalid_argument);
}

TEST(RunSpec, SetOverridesAnyField)
{
    // The CLI's override hook: an explicit assignment wins even when
    // the assigned value equals the field's default.
    RunSpec spec = RunSpec::parse("problem=maxcut:ring-6 warmup=500");
    spec.set("warmup", "200"); // 200 is also the default
    EXPECT_EQ(spec.warmup, 200u);
    spec.set("tune-backend", "auto");
    EXPECT_EQ(spec.tune_backend, "");
    EXPECT_THROW(spec.set("bogus", "1"), std::invalid_argument);
    EXPECT_THROW(spec.set("warmup", "x"), std::invalid_argument);
}

TEST(RunSpec, RejectsWhitespaceInTextFields)
{
    // Text fields must survive the whitespace-tokenized text form, so
    // values with spaces or control characters are rejected in every
    // input form (this is what keeps parse(to_string()) lossless).
    EXPECT_THROW(RunSpec::from_json(R"({"label":"two words"})"),
                 std::invalid_argument);
    EXPECT_THROW(RunSpec::from_json("{\"problem\":\"a\\tb\"}"),
                 std::invalid_argument);
    RunSpec spec;
    EXPECT_THROW(spec.set("label", "two words"), std::invalid_argument);
    EXPECT_NO_THROW(spec.set("label", "two-words"));
}

TEST(RunSpec, ExactFlagSkipsTheReferenceSolve)
{
    RunSpec spec = RunSpec::parse(
        "problem=maxcut:ring-6 warmup=20 iterations=20 exact=0");
    EXPECT_FALSE(spec.exact);
    EXPECT_EQ(RunSpec::parse(spec.to_string()), spec); // round-trips
    const RunRecord record = execute_run_spec(spec);
    EXPECT_TRUE(record.ok);
    EXPECT_FALSE(record.exact_energy.has_value());
}

TEST(RunSpec, JsonlParsesLinesAndSkipsComments)
{
    const auto specs = parse_run_specs_jsonl(
        "# batch file\n"
        "{\"problem\":\"maxcut:ring-6\"}\n"
        "\n"
        "{\"problem\":\"tfim:chain-4\",\"warmup\":30}\n");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].problem, "maxcut:ring-6");
    EXPECT_EQ(specs[1].warmup, 30u);
}

TEST(RunSpec, PipelineConfigMirrorsTheCliWiring)
{
    const RunSpec spec = RunSpec::parse(
        "problem=tfim:chain-4 warmup=30 iterations=40 seed=9 tune=20 "
        "search=anneal tuner=nelder-mead budget=100 target-energy=-4.5 "
        "cache-capacity=64");
    const auto problem = problems::make_problem(spec.problem);
    const PipelineConfig config = make_pipeline_config(spec, problem);
    EXPECT_EQ(config.search.warmup, 30u);
    EXPECT_EQ(config.search.iterations, 40u);
    EXPECT_EQ(config.search.seed, 9u);
    EXPECT_EQ(config.tuner.iterations, 20u);
    EXPECT_EQ(config.tuner.seed, 10u); // historical CLI: seed + 1
    EXPECT_EQ(config.search_optimizer, "anneal");
    EXPECT_EQ(config.tuner_optimizer, "nelder-mead");
    EXPECT_EQ(config.stopping.max_evaluations, 100u);
    EXPECT_DOUBLE_EQ(config.stopping.target_value.value(), -4.5);
    ASSERT_NE(config.cache, nullptr); // implied by cache-capacity
    EXPECT_EQ(config.cache->capacity(), 64u);
    EXPECT_EQ(config.search.seed_steps, problem.seed_steps);

    RunSpec no_seed = spec;
    no_seed.hf_seed = false;
    EXPECT_TRUE(make_pipeline_config(no_seed, problem)
                    .search.seed_steps.empty());
}

TEST(RunSpec, TBoostedCircuitKeepsItsParametersForTheTune)
{
    // Regression: the T-boosted circuit was rebuilt gate by gate without
    // its parameter count, so once a T gate was accepted the tune
    // failed "initial parameter count mismatch".
    const RunSpec spec = RunSpec::parse(
        "problem=molecule:H2?bond=2.2 search=anneal seed=0 max-t=1 "
        "tune=20 warmup=30 iterations=30");
    const auto problem = problems::make_problem(spec.problem);
    CafqaPipeline pipeline(make_pipeline_config(spec, problem));
    ASSERT_EQ(pipeline.run_t_boost(1).t_positions.size(), 1u);
    EXPECT_EQ(pipeline.best_circuit().num_params(),
              problem.ansatz.num_params());

    const RunRecord record = execute_run_spec(spec, problem);
    EXPECT_TRUE(record.ok) << record.error;
    EXPECT_EQ(record.t_gates, 1u);
    EXPECT_TRUE(record.tuned_value.has_value());
}

TEST(RunSpec, ThreadCountNeverChangesTheRecord)
{
    // LiH and the sampled H6 tune are the specs the CI smoke step
    // diffs; tfim:chain-14 is large enough that the tune's expectations
    // and the exact solve's matvecs split across the pool, and H6's
    // sampled tune splits its measurement groups. 0 builds the run's
    // own pool sized to the hardware.
    for (const char* text :
         {"problem=molecule:LiH?bond=2.4 search=anneal tune=20 exact=1",
          "problem=tfim:chain-14 search=anneal warmup=20 iterations=20 "
          "tune=10 exact=1",
          "problem=molecule:H6 search=anneal warmup=20 iterations=20 "
          "tune=8 tune-backend=sampled exact=1"}) {
        SCOPED_TRACE(text);
        const RunSpec base = RunSpec::parse(text);
        std::string want;
        for (const std::size_t threads : {1, 2, 3, 0}) {
            RunSpec spec = base;
            spec.threads = threads;
            RunRecord record = execute_run_spec(spec);
            ASSERT_TRUE(record.ok) << record.error;
            ASSERT_TRUE(record.tuned_value.has_value());
            ASSERT_TRUE(record.exact_energy.has_value());
            // The spec echo names the thread count and wall_ms is a
            // timing; everything else must match byte for byte.
            record.spec = base;
            std::string json = record.to_json();
            const std::size_t at = json.find("\"wall_ms\":");
            json.erase(at, json.find(',', at) + 1 - at);
            if (threads == 1) {
                want = json;
            } else {
                EXPECT_EQ(json, want) << threads << " threads";
            }
        }
    }
}

/** The four-family batch used by the concurrency regression tests. */
std::vector<RunSpec>
sample_specs()
{
    return {
        RunSpec::parse("problem=molecule:H2?bond=1.5 warmup=30 "
                       "iterations=30 seed=5"),
        RunSpec::parse("problem=maxcut:ring-6 warmup=30 iterations=30 "
                       "search=anneal seed=6"),
        RunSpec::parse("problem=tfim:chain-4?h=0.8 warmup=30 "
                       "iterations=30 seed=7 tune=10"),
        RunSpec::parse("problem=xxz:chain-4?delta=0.5 warmup=30 "
                       "iterations=30 seed=8 max-t=1"),
    };
}

TEST(BatchRunner, ConcurrentResultsEqualSoloResults)
{
    const std::vector<RunSpec> specs = sample_specs();

    // Solo: each spec alone, sequentially.
    std::vector<RunRecord> solo;
    for (const auto& spec : specs) {
        solo.push_back(execute_run_spec(spec));
    }

    // Batch: all specs concurrently.
    BatchRunner runner;
    const std::vector<RunRecord> batch = runner.run(specs);

    ASSERT_EQ(batch.size(), solo.size());
    for (std::size_t i = 0; i < solo.size(); ++i) {
        SCOPED_TRACE(specs[i].problem);
        EXPECT_TRUE(batch[i].ok);
        EXPECT_EQ(batch[i].spec, specs[i]);
        EXPECT_EQ(batch[i].problem_key, solo[i].problem_key);
        // Bit-identical results regardless of concurrency.
        EXPECT_EQ(batch[i].best_objective, solo[i].best_objective);
        EXPECT_EQ(batch[i].cafqa_energy, solo[i].cafqa_energy);
        EXPECT_EQ(batch[i].tuned_value, solo[i].tuned_value);
        EXPECT_EQ(batch[i].evaluations_to_best,
                  solo[i].evaluations_to_best);
        EXPECT_EQ(batch[i].t_gates, solo[i].t_gates);
        EXPECT_EQ(batch[i].stop_reason, solo[i].stop_reason);
        EXPECT_EQ(batch[i].exact_energy, solo[i].exact_energy);
    }

    // A bounded-concurrency pool reproduces the same records too.
    BatchRunner bounded(BatchOptions{.concurrency = 2});
    const std::vector<RunRecord> with_two = bounded.run(specs);
    for (std::size_t i = 0; i < solo.size(); ++i) {
        EXPECT_EQ(with_two[i].cafqa_energy, solo[i].cafqa_energy);
        EXPECT_EQ(with_two[i].best_objective, solo[i].best_objective);
    }
}

TEST(BatchRunner, ObserverFanInTagsEveryRun)
{
    const std::vector<RunSpec> specs = sample_specs();

    BatchRunner runner;
    std::map<std::size_t, std::size_t> stage_ends;
    runner.set_observer([&](std::size_t index, const RunSpec& spec,
                            const PipelineEvent& event) {
        EXPECT_LT(index, specs.size());
        EXPECT_EQ(spec.problem, specs[index].problem);
        if (event.event == PipelineEvent::Kind::StageEnd) {
            ++stage_ends[index];
        }
    });
    const auto records = runner.run(specs);
    ASSERT_EQ(records.size(), specs.size());
    // Every run emitted at least its clifford_search StageEnd.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_GE(stage_ends[i], 1u) << "run " << i;
    }
}

TEST(BatchRunner, CapturesPerRunErrorsWithoutAbortingTheBatch)
{
    std::vector<RunSpec> specs = sample_specs();
    specs[1].problem = "molecule:Unobtainium?bond=1.0";
    specs.resize(3);

    BatchRunner runner;
    const auto records = runner.run(specs);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_TRUE(records[0].ok);
    EXPECT_FALSE(records[1].ok);
    EXPECT_NE(records[1].error.find("Unobtainium"), std::string::npos)
        << records[1].error;
    EXPECT_TRUE(records[2].ok);

    const std::string report = batch_results_json(records);
    EXPECT_NE(report.find("\"failed\": 1"), std::string::npos) << report;
    EXPECT_NE(report.find("\"total\": 3"), std::string::npos) << report;
}

TEST(BatchRunner, RecordJsonIsWellFormedAndRoundTripsTheSpec)
{
    const RunSpec spec = RunSpec::parse(
        "problem=maxcut:ring-6 warmup=30 iterations=30 label=ring");
    const RunRecord record = execute_run_spec(spec);
    const std::string json = record.to_json();
    EXPECT_NE(json.find("\"ok\":true"), std::string::npos) << json;
    EXPECT_NE(json.find("\"label\":\"ring\""), std::string::npos) << json;

    // The embedded spec string parses back to the submitted spec.
    const auto spec_pos = json.find("\"spec\":\"");
    ASSERT_NE(spec_pos, std::string::npos);
    const auto start = spec_pos + 8;
    const auto end = json.find('"', start);
    EXPECT_EQ(RunSpec::parse(json.substr(start, end - start)), spec);
}

TEST(BatchRunner, RespectsExplicitPerRunThreadCounts)
{
    // A spec that pins its own thread count keeps it (and still
    // produces identical results).
    RunSpec spec = RunSpec::parse(
        "problem=tfim:chain-4 warmup=30 iterations=30 threads=2");
    const RunRecord solo = execute_run_spec(spec);
    BatchRunner runner;
    const auto records = runner.run({spec});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(records[0].ok);
    EXPECT_EQ(records[0].cafqa_energy, solo.cafqa_energy);
    EXPECT_EQ(records[0].spec.threads, 2u);
}

TEST(BatchRunner, CancelWithTBoostRequestedKeepsCliffordBest)
{
    // Regression: a cancel during the Clifford stage skips run_t_boost.
    // Reading the record's best_objective must then fall back to the
    // Clifford result instead of throwing "run_t_boost() has not been
    // called" — which used to surface as a non-cancelled error record,
    // breaking the cancellation contract for specs with max-t > 0.
    RunContext context;
    context.cancel = std::make_shared<std::atomic<bool>>(true);
    const RunSpec spec = RunSpec::parse(
        "problem=maxcut:ring-6 warmup=4 iterations=4 max-t=2 tune=4");
    const RunRecord record = execute_run_spec(spec, context);
    EXPECT_TRUE(record.ok) << record.error;
    EXPECT_TRUE(record.cancelled);
    EXPECT_EQ(record.stop_reason, "cancelled");
    // The stages after the cancel never started...
    EXPECT_EQ(record.t_gates, 0u);
    EXPECT_FALSE(record.tuned_value.has_value());
    // ...and the Clifford best made it into the record.
    EXPECT_TRUE(std::isfinite(record.best_objective));
    EXPECT_NE(record.to_json().find("\"cancelled\":true"),
              std::string::npos);
}

// ------------------------------------------------------ exact memo

/** A small spec whose record asks for the exact reference. */
const RunSpec&
memo_spec()
{
    static const RunSpec spec =
        RunSpec::parse("problem=tfim:chain-4 warmup=4 iterations=4");
    return spec;
}

/** tfim:chain-4 with its exact solve replaced by `solver`; every call
 *  is counted in `calls`. */
problems::Problem
problem_with_solver(std::atomic<int>& calls,
                    std::function<std::optional<double>()> solver)
{
    problems::Problem problem = problems::make_problem(memo_spec().problem);
    problem.exact_solver = [&calls, solver = std::move(solver)](ThreadPool*) {
        calls.fetch_add(1);
        return solver();
    };
    return problem;
}

TEST(ExactEnergyMemo, ConcurrentFirstRequestsRunOneSolve)
{
    std::atomic<int> calls{0};
    const problems::Problem problem =
        problem_with_solver(calls, [] {
            // Long enough that the other requests arrive while it runs.
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            return std::optional<double>(-42.5);
        });
    RunContext context;
    context.exact_memo = std::make_shared<ExactEnergyMemo>();

    constexpr std::size_t kThreads = 4;
    std::vector<RunRecord> records(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const problems::Problem own = problem; // per-run copy
            start.arrive_and_wait();
            records[t] = execute_run_spec(memo_spec(), own, context);
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(calls.load(), 1);
    for (const RunRecord& record : records) {
        EXPECT_TRUE(record.ok) << record.error;
        EXPECT_EQ(record.exact_energy, std::optional<double>(-42.5));
    }
}

TEST(ExactEnergyMemo, SolverErrorIsMemoizedWithItsText)
{
    std::atomic<int> calls{0};
    const problems::Problem problem =
        problem_with_solver(calls, []() -> std::optional<double> {
            throw CafqaError("exact solve did not converge: test");
        });
    const auto error_of = [&](const RunContext& context) {
        try {
            execute_run_spec(memo_spec(), problems::Problem(problem),
                             context);
        } catch (const CafqaError& error) {
            return std::string(error.what());
        }
        ADD_FAILURE() << "the run did not throw a CafqaError";
        return std::string();
    };
    const std::string solo = error_of(RunContext{});
    EXPECT_EQ(calls.load(), 1);

    RunContext context;
    context.exact_memo = std::make_shared<ExactEnergyMemo>();
    for (int run = 0; run < 3; ++run) {
        EXPECT_EQ(error_of(context), solo);
    }
    EXPECT_EQ(calls.load(), 2); // one solo solve, one memoized solve
}

TEST(ExactEnergyMemo, OtherExceptionsAreNotMemoized)
{
    std::atomic<int> calls{0};
    const problems::Problem problem =
        problem_with_solver(calls, [&calls]() -> std::optional<double> {
            if (calls.load() == 1) {
                throw std::bad_alloc();
            }
            return -1.0;
        });
    ExactEnergyMemo memo;
    EXPECT_THROW(memo.exact_energy(problem), std::bad_alloc);
    EXPECT_EQ(memo.exact_energy(problem), std::optional<double>(-1.0));
    EXPECT_EQ(memo.exact_energy(problem), std::optional<double>(-1.0));
    EXPECT_EQ(calls.load(), 2); // the failed solve, then one memoized
}

TEST(ExactEnergyMemo, EvictsTheLeastRecentlyUsedKeyAtItsBound)
{
    std::atomic<int> calls{0};
    const problems::Problem problem = problem_with_solver(
        calls, [] { return std::optional<double>(-2.0); });
    const auto solve = [&problem](ExactEnergyMemo& memo, std::size_t key) {
        problems::Problem keyed = problem;
        keyed.key = "k" + std::to_string(key);
        memo.exact_energy(keyed);
    };
    constexpr int kBound = static_cast<int>(kExactMemoEntries);

    ExactEnergyMemo memo;
    for (std::size_t key = 0; key < kExactMemoEntries; ++key) {
        solve(memo, key);
    }
    EXPECT_EQ(calls.load(), kBound);
    solve(memo, 0); // hit: k0 is now the newest, k1 the oldest
    EXPECT_EQ(calls.load(), kBound);
    solve(memo, kExactMemoEntries); // one past the bound: evicts k1
    EXPECT_EQ(calls.load(), kBound + 1);
    solve(memo, 0);
    solve(memo, 2);
    EXPECT_EQ(calls.load(), kBound + 1);
    solve(memo, 1); // solved again
    EXPECT_EQ(calls.load(), kBound + 2);
}

} // namespace
} // namespace cafqa
