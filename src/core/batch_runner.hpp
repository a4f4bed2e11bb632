/**
 * @file
 * Concurrent multi-run execution — the first step toward the
 * serve-many-requests north star: hand the runner a list of `RunSpec`s
 * and it executes them concurrently over a thread pool, each run fully
 * isolated (its own pipeline, backends and caches), and returns
 * machine-readable per-run records plus an aggregated JSON report.
 *
 *   BatchRunner runner;
 *   const auto records = runner.run({
 *       RunSpec::parse("problem=molecule:H2?bond=2.2 warmup=60"),
 *       RunSpec::parse("problem=maxcut:ring-8 search=anneal"),
 *   });
 *   std::cout << batch_results_json(records) << '\n';
 *
 * Concurrency never changes results: every record is bit-identical to
 * executing its spec alone with `execute_run_spec` (regression-tested),
 * because runs share nothing and each pipeline's own evaluation
 * batching is trajectory-preserving.
 */
#ifndef CAFQA_CORE_BATCH_RUNNER_HPP
#define CAFQA_CORE_BATCH_RUNNER_HPP

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/exact_memo.hpp"
#include "core/pipeline.hpp"
#include "core/run_spec.hpp"
#include "problems/problem.hpp"

namespace cafqa {

/** Outcome of one spec execution. */
struct RunRecord
{
    /** The spec as submitted. */
    RunSpec spec;
    /** Canonical problem key (round-trips through make_problem). */
    std::string problem_key;
    std::string problem_name;
    std::size_t num_qubits = 0;

    /** False when the run threw; `error` then holds the message and
     *  the result fields are meaningless. */
    bool ok = false;
    std::string error;
    /** True when a cancel token stopped the run early (the result
     *  fields hold the best point found before cancellation; stages
     *  that had not started were skipped). Serialized only when set,
     *  so uncancelled records are byte-identical to pre-cancel runs. */
    bool cancelled = false;

    /** Objective (energy + penalties) at the best discrete point. */
    double best_objective = 0.0;
    /** Bare Hamiltonian energy at the best discrete point (after
     *  T-boost when the spec enabled it). */
    double cafqa_energy = 0.0;
    /** Final tuned objective value (when `spec.tune > 0`). */
    std::optional<double> tuned_value;
    /** Problem baselines, when the family provides them. */
    std::optional<double> reference_energy;
    std::optional<double> exact_energy;
    /** Instance metrics copied from the problem (bond length, edge
     *  count, couplings, ...). */
    std::vector<std::pair<std::string, double>> metrics;

    /** Best discrete assignment (quarter-turn steps) — the payload a
     *  later run can warm-start from (`RunSpec::warm_start`). */
    std::vector<int> best_steps;
    /** Recorded evaluations of the discrete search stage. */
    std::size_t evaluations = 0;
    std::size_t evaluations_to_best = 0;
    /** 1-based evaluation index where the search objective first came
     *  within chemical accuracy (1.6e-3 Ha) of the exact energy;
     *  unset when `exact` is off or accuracy was never reached.
     *  Computed post-hoc from the best trace — it never changes the
     *  search itself. */
    std::optional<std::size_t> evals_to_accuracy;
    std::size_t t_gates = 0;
    /** Stop reason of the discrete search stage. */
    std::string stop_reason;
    /** Stop reason of the tuning stage (empty when `spec.tune == 0`). */
    std::string tune_stop_reason;
    /** Wall-clock duration of this run (not deterministic). */
    double wall_ms = 0.0;

    /** One flat JSON object (one line, no trailing newline). */
    std::string to_json() const;
};

/**
 * Per-run execution hooks threaded through `execute_run_spec` — the
 * serving integration surface. All fields optional; the default context
 * reproduces a plain solo run exactly.
 */
struct RunContext
{
    /** Receives the pipeline's stage events. */
    PipelineObserver observer;
    /**
     * Cooperative cancel token (`StoppingCriteria::cancel`): when
     * another thread stores true, the in-flight stage stops at its next
     * recorded evaluation with stop reason "cancelled" and later stages
     * are skipped; the record keeps the best point found so far with
     * `RunRecord::cancelled` set. Latency is one evaluation (one block
     * in batched phases).
     */
    std::shared_ptr<std::atomic<bool>> cancel;
    /** Cross-run exact-energy memo (the job server's): when set, the
     *  record's exact reference comes from it instead of a solve of this
     *  run's own (same value, same error text). */
    std::shared_ptr<ExactEnergyMemo> exact_memo;
};

/**
 * Execute one spec end to end: resolve the problem, run the discrete
 * search, the optional T-boost and the optional continuous tuning, and
 * collect the record. Throws on failure (the batch runner catches and
 * records instead). `context` carries the observer, cancel token and
 * exact-energy memo; the default reproduces a plain solo run.
 */
RunRecord execute_run_spec(const RunSpec& spec,
                           const RunContext& context = {});

/** Same, over an already-resolved problem (the CLI resolves once so it
 *  can also report problem metadata on its own). */
RunRecord execute_run_spec(const RunSpec& spec,
                           const problems::Problem& problem,
                           const RunContext& context = {});

/** Batch execution controls. */
struct BatchOptions
{
    /** Concurrent runs: the size of the pool `run` builds for the
     *  batch; 0 sizes it to the hardware. */
    std::size_t concurrency = 0;
    /**
     * Worker threads given to each run whose spec leaves `threads` at
     * 0. Runs already execute side by side, and a hardware-sized pool
     * per run would oversubscribe the cores, so 0 is re-mapped to this
     * per-run pool size; 1 (the default) keeps every core busy
     * running whole specs side by side.
     */
    std::size_t run_threads = 1;
};

/** Observer fan-in: every run's pipeline events funnel through one
 *  callback, tagged with the run index (serialized by the runner, so
 *  the callback needs no locking of its own). */
using BatchObserver = std::function<void(
    std::size_t run_index, const RunSpec& spec, const PipelineEvent&)>;

/**
 * Warm-start provider, consulted as each run is about to start: a
 * nonempty return is injected as that run's `RunSpec::warm_start`
 * (the reported record keeps the spec as submitted). This is the
 * cross-run transfer hook — e.g. seed each run from a neighboring
 * run's `RunRecord::best_steps`. `records` is the in-progress result
 * array (`ok` is false for runs that have not finished). Chained
 * hand-offs (run i seeds run i+1) need `concurrency == 1`, which runs
 * the specs in index order — with more workers, reading a peer's
 * record races with its writer and finish order is timing-dependent.
 */
using WarmStartHook = std::function<std::vector<int>(
    std::size_t run_index, const RunSpec& spec,
    const std::vector<RunRecord>& records)>;

/** Executes many RunSpecs concurrently with per-run isolation. */
class BatchRunner
{
  public:
    explicit BatchRunner(BatchOptions options = {});

    /** Install (or clear) the fan-in observer. */
    void set_observer(BatchObserver observer);

    /** Install (or clear) the cross-run warm-start provider. */
    void set_warm_start(WarmStartHook hook);

    /**
     * Execute every spec (order of the result matches the input). A
     * run that throws yields a record with `ok == false` and the error
     * message; it never aborts the other runs.
     */
    std::vector<RunRecord> run(const std::vector<RunSpec>& specs);

  private:
    BatchOptions options_;
    BatchObserver observer_;
    WarmStartHook warm_start_;
};

/** Aggregated machine-readable report: {"runs": [...], "total": N,
 *  "failed": M}. */
std::string batch_results_json(const std::vector<RunRecord>& records);

} // namespace cafqa

#endif // CAFQA_CORE_BATCH_RUNNER_HPP
