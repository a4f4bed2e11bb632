#include "core/batch_runner.hpp"

#include <chrono>
#include <cmath>

#include "common/thread_safety.hpp"

#include "common/error.hpp"
#include "common/text.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace cafqa {

namespace {

/** Shortest round-trip decimal; non-finite values become JSON null. */
std::string
json_number(double value)
{
    return std::isfinite(value) ? format_real(value) : "null";
}

} // namespace

std::string
RunRecord::to_json() const
{
    std::string out = "{";
    const auto field = [&out](const std::string& name,
                              const std::string& value) {
        if (out.size() > 1) {
            out += ",";
        }
        out += json_quote(name) + ":" + value;
    };
    field("problem", json_quote(problem_key.empty() ? spec.problem
                                                    : problem_key));
    if (!spec.label.empty()) {
        field("label", json_quote(spec.label));
    }
    field("name", json_quote(problem_name));
    field("qubits", std::to_string(num_qubits));
    field("ok", ok ? "true" : "false");
    if (cancelled) {
        // Emitted only when set: uncancelled records keep the exact
        // byte layout of pre-cancellation builds (the server's
        // bit-identical-to-solo contract).
        field("cancelled", "true");
    }
    if (!ok) {
        field("error", json_quote(error));
    } else {
        field("best_objective", json_number(best_objective));
        field("cafqa_energy", json_number(cafqa_energy));
        if (tuned_value.has_value()) {
            field("tuned_value", json_number(*tuned_value));
        }
        if (reference_energy.has_value()) {
            field("reference_energy", json_number(*reference_energy));
        }
        if (exact_energy.has_value()) {
            field("exact_energy", json_number(*exact_energy));
        }
        field("evals_to_best", std::to_string(evaluations_to_best));
        field("evaluations", std::to_string(evaluations));
        if (evals_to_accuracy.has_value()) {
            field("evals_to_accuracy",
                  std::to_string(*evals_to_accuracy));
        }
        if (!best_steps.empty()) {
            std::string steps;
            for (const int step : best_steps) {
                if (!steps.empty()) {
                    steps += ',';
                }
                steps += std::to_string(step);
            }
            field("best_steps", "[" + steps + "]");
        }
        field("t_gates", std::to_string(t_gates));
        field("stop_reason", json_quote(stop_reason));
        if (!tune_stop_reason.empty()) {
            field("tune_stop_reason", json_quote(tune_stop_reason));
        }
    }
    if (!metrics.empty()) {
        std::string nested;
        for (const auto& [name, value] : metrics) {
            if (!nested.empty()) {
                nested += ",";
            }
            nested += json_quote(name) + ":" + json_number(value);
        }
        field("metrics", "{" + nested + "}");
    }
    field("wall_ms", json_number(wall_ms));
    field("spec", json_quote(spec.to_string()));
    out += "}";
    return out;
}

RunRecord
execute_run_spec(const RunSpec& spec, const RunContext& context)
{
    spec.validate();
    const problems::Problem problem = problems::make_problem(spec.problem);
    return execute_run_spec(spec, problem, context);
}

RunRecord
execute_run_spec(const RunSpec& spec, const problems::Problem& problem,
                 const RunContext& context)
{
    // Fetched at entry, before any work (and with no lock held — run
    // execution never starts under a named mutex).
    auto& registry = telemetry::MetricsRegistry::instance();
    telemetry::Counter& runs_metric = registry.counter(
        "cafqa_runs_total", {}, "RunSpec executions started");
    telemetry::Histogram& run_wall_metric = registry.histogram(
        "cafqa_run_wall_ms", {},
        "Wall milliseconds per RunSpec execution");
    runs_metric.add();

    const auto start = std::chrono::steady_clock::now();

    RunRecord record;
    record.spec = spec;
    record.problem_key = problem.key;
    record.problem_name = problem.name;
    record.num_qubits = problem.num_qubits;
    record.metrics = problem.metrics;
    record.reference_energy = problem.reference_energy;

    PipelineConfig config = make_pipeline_config(spec, problem);
    config.stopping.cancel = context.cancel;
    CafqaPipeline pipeline(std::move(config));
    if (context.observer) {
        pipeline.set_observer(context.observer);
    }

    // A raised token stops the in-flight stage at its next recorded
    // evaluation (StopReason::Cancelled); later stages are skipped here
    // so a cancelled run never starts new work.
    const auto is_cancelled = [&context] {
        return context.cancel &&
               context.cancel->load(std::memory_order_relaxed);
    };

    pipeline.run_clifford_search();
    if (spec.max_t > 0 && !is_cancelled()) {
        pipeline.run_t_boost(spec.max_t);
        record.t_gates = pipeline.t_boost_result().t_positions.size();
    }
    if (spec.tune > 0 && !is_cancelled()) {
        record.tuned_value = pipeline.run_vqa_tune().final_value;
        record.tune_stop_reason =
            to_string(pipeline.tune_result().stop_reason);
    }

    // Gate on the stage having actually run, not on the spec asking for
    // it: a cancel during the Clifford stage skips run_t_boost, and
    // t_boost_result() would throw — turning a clean best-so-far
    // cancelled record into an error record.
    record.best_objective = pipeline.t_boost_done()
                                ? pipeline.t_boost_result().best_objective
                                : pipeline.clifford_result().best_objective;
    record.cafqa_energy = pipeline.best_energy();
    record.best_steps = pipeline.best_steps();
    record.evaluations = pipeline.clifford_result().history.size();
    record.evaluations_to_best =
        pipeline.clifford_result().evaluations_to_best;
    record.stop_reason =
        to_string(pipeline.clifford_result().stop_reason);
    if (spec.exact && !is_cancelled()) {
        // The pipeline's pool splits the solve (same bits as serial).
        ThreadPool* const pool = pipeline.kernel_pool();
        record.exact_energy =
            context.exact_memo
                ? context.exact_memo->exact_energy(problem, pool)
                : problem.exact_energy(pool);
    }
    if (record.exact_energy.has_value()) {
        // Evals-to-chemical-accuracy, read off the recorded best trace
        // after the fact (the search itself is untouched). The trace
        // holds the penalized objective >= the bare energy, so this is
        // a conservative count.
        const double threshold = *record.exact_energy + 1.6e-3;
        const std::vector<double>& trace =
            pipeline.clifford_result().best_trace;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            if (trace[i] <= threshold) {
                record.evals_to_accuracy = i + 1;
                break;
            }
        }
    }
    record.cancelled = is_cancelled();
    record.ok = true;

    record.wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    run_wall_metric.observe(record.wall_ms);
    return record;
}

BatchRunner::BatchRunner(BatchOptions options)
    : options_(options)
{
    CAFQA_REQUIRE(options_.run_threads >= 1,
                  "per-run thread count must be at least 1");
}

void
BatchRunner::set_observer(BatchObserver observer)
{
    observer_ = std::move(observer);
}

void
BatchRunner::set_warm_start(WarmStartHook hook)
{
    warm_start_ = std::move(hook);
}

std::vector<RunRecord>
BatchRunner::run(const std::vector<RunSpec>& specs)
{
    std::vector<RunRecord> records(specs.size());
    if (specs.empty()) {
        return records;
    }

    ThreadPool pool(options_.concurrency);

    Mutex observer_mutex{"observer_mutex"};
    pool.parallel_for(specs.size(), [&](std::size_t worker,
                                        std::size_t index) {
        (void)worker;
        RunSpec spec = specs[index];
        if (spec.threads == 0) {
            // Runs already go side by side; a hardware-sized pool per
            // run would oversubscribe the cores, so the run gets a pool
            // of `run_threads`. Thread count never changes results —
            // evaluation batching is trajectory-preserving.
            spec.threads = options_.run_threads;
        }
        if (warm_start_) {
            const std::vector<int> steps =
                warm_start_(index, specs[index], records);
            if (!steps.empty()) {
                spec.warm_start = steps;
            }
        }
        RunContext context;
        if (observer_) {
            context.observer = [&, index](const PipelineEvent& event) {
                MutexLock lock(observer_mutex);
                observer_(index, specs[index], event);
            };
        }
        try {
            records[index] = execute_run_spec(spec, context);
        } catch (const std::exception& error) {
            records[index] = RunRecord{};
            records[index].ok = false;
            records[index].error = error.what();
        }
        // Report the spec as submitted, not the thread-count override.
        records[index].spec = specs[index];
    });
    return records;
}

std::string
batch_results_json(const std::vector<RunRecord>& records)
{
    std::size_t failed = 0;
    std::string runs;
    for (const auto& record : records) {
        if (!record.ok) {
            ++failed;
        }
        runs += runs.empty() ? "\n  " : ",\n  ";
        runs += record.to_json();
    }
    std::string out = "{\n \"total\": ";
    out += std::to_string(records.size());
    out += ",\n \"failed\": ";
    out += std::to_string(failed);
    out += ",\n \"runs\": [";
    out += runs;
    out += runs.empty() ? "]" : "\n ]";
    out += "\n}";
    return out;
}

} // namespace cafqa
