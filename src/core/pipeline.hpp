/**
 * @file
 * The CAFQA pipeline facade — the paper's full Fig. 4 flow behind one
 * object:
 *
 *   PipelineConfig config{.ansatz = ..., .objective = ...};
 *   CafqaPipeline pipeline(std::move(config));
 *   pipeline.run_clifford_search();        // discrete stabilizer stage
 *   pipeline.run_t_boost(2);               // optional Clifford + kT
 *   pipeline.run_vqa_tune();               // continuous SPSA stage
 *
 * Each stage consumes the best initialization produced so far; stages
 * are idempotent (a second call returns the cached result). Every
 * backend is resolved through the string-keyed registry
 * (`core/backend_registry.hpp`) and every search strategy through the
 * optimizer registry (`opt/optimizer_registry.hpp`): set
 * `PipelineConfig::search_optimizer`/`tuner_optimizer` to a strategy
 * kind to swap the discrete search or the continuous tuner, and
 * `PipelineConfig::stopping` for uniform early exits (target value such
 * as chemical accuracy, patience, cancellation). The pipeline builds
 * each stage's strategy from its budget (`search` or `tuner`); the
 * strategies' other knobs keep their registry defaults, apart from the
 * tuner's SPSA gains, which are a constant of the pipeline. Candidate
 * evaluation in block-generated phases, and a statevector tune's two
 * SPSA probes, are batched across a thread pool with per-worker backend
 * clones; the same pool splits each statevector or sampled expectation
 * of the tune (and, through `kernel_pool()`, the run's exact solve).
 * Observers receive begin/progress/end events per stage, which is how
 * the bench harness collects its traces.
 *
 * Concurrency contract: a `CafqaPipeline` is THREAD-CONFINED — drive
 * it from one thread. It deliberately owns no mutex of its own (the
 * `lint_invariants` naked-mutex rule would flag one anyway): all of
 * its parallelism lives behind `ThreadPool::parallel_for`, whose
 * internals carry clang thread-safety annotations
 * (`common/thread_safety.hpp`), and observer callbacks fire on the
 * calling thread in deterministic order. Run CONCURRENT pipelines by
 * giving each its own object — each owns its pool, and the shared
 * registries they touch are internally synchronized.
 */
#ifndef CAFQA_CORE_PIPELINE_HPP
#define CAFQA_CORE_PIPELINE_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/thread_pool.hpp"
#include "core/backend_registry.hpp"
#include "core/caching_backend.hpp"
#include "core/objective.hpp"
#include "density/noise_model.hpp"
#include "opt/optimizer.hpp"

namespace cafqa {

/** Clifford-search stage budget (paper Section 3, red box of Fig. 4). */
struct CafqaOptions
{
    /** Random warm-up evaluations (paper Fig. 7 uses 1000). */
    std::size_t warmup = 200;
    /** Model-guided search evaluations. */
    std::size_t iterations = 300;
    std::uint64_t seed = 2023;
    /** Step assignments evaluated before the warm-up (prior injection).
     *  Seeding the Hartree-Fock point guarantees CAFQA never returns a
     *  state worse than the HF baseline — the paper's "equal to or
     *  better than" property. */
    std::vector<std::vector<int>> seed_steps{};
};

/** Search outcome: the Clifford initialization for subsequent VQA. */
struct CafqaResult
{
    /** Best quarter-turn assignment (one entry per ansatz parameter). */
    std::vector<int> best_steps;
    /** Bare Hamiltonian expectation at the best steps. */
    double best_energy = 0.0;
    /** Objective (energy + penalties) at the best steps. */
    double best_objective = 0.0;
    /** Objective of every evaluation in order. */
    std::vector<double> history;
    /** Running best objective. */
    std::vector<double> best_trace;
    /** Evaluation count at which the best configuration appeared
     *  (Fig. 15 metric). */
    std::size_t evaluations_to_best = 0;
    std::size_t num_parameters = 0;
    /** Why the search ended (budget, target-value early exit, ...). */
    StopReason stop_reason = StopReason::BudgetExhausted;
};

/**
 * Outcome of the greedy Clifford + kT boost stage (paper Section 8 /
 * Fig. 16). When no T insertion improves the objective, `t_positions`
 * is empty and the fields echo the Clifford-stage optimum over the
 * unmodified ansatz.
 */
struct TBoostResult
{
    /** Rotation-slot indices where T gates were inserted, in acceptance
     *  order. */
    std::vector<std::size_t> t_positions;
    /** Best quarter-turn assignment over `circuit`. */
    std::vector<int> best_steps;
    /** Bare Hamiltonian expectation at the best steps. */
    double best_energy = 0.0;
    /** Objective (energy + penalties) at the best steps. */
    double best_objective = 0.0;
    /** The ansatz with the accepted T gates inserted. */
    Circuit circuit;
};

/** Post-CAFQA variational tuning controls (paper Section 7.3 /
 *  Fig. 14): the budget and backend of the continuous stage. */
struct VqaTunerOptions
{
    /** SPSA iterations, or the evaluation cap of another tuner. */
    std::size_t iterations = 500;
    std::uint64_t seed = 7;
    /** Noise model; an all-zero model selects the ideal backend. */
    NoiseModel noise;
    /**
     * Backend registry kind for the continuous stage. Empty picks
     * automatically: "density" when `noise` is enabled, else
     * "statevector". Set "sampled" for finite-shot tuning.
     */
    std::string backend;
    /** Measurement shots per commuting group ("sampled" backend). */
    std::size_t shots = 4096;
};

/** Tuning outcome. */
struct VqaTuneResult
{
    /** Recorded objective trace: the start-point value followed by the
     *  value after each tuning step (for SPSA) or every evaluation
     *  (other tuners). */
    std::vector<double> trace;
    std::vector<double> final_params;
    double final_value = 0.0;
    /** Why the tuner ended (budget, target-value early exit, ...). */
    StopReason stop_reason = StopReason::BudgetExhausted;
};

/**
 * Convergence metric for Fig. 14: the number of tuning steps until the
 * trace value is within `tolerance` of the eventual best. `trace[0]`
 * is the start point (0 steps), so an initialization already within
 * tolerance returns 0. Returns trace.size() if the trace never reaches
 * the tolerance band.
 */
std::size_t iterations_to_converge(const std::vector<double>& trace,
                                   double tolerance);

/** One observer notification. */
struct PipelineEvent
{
    enum class Kind {
        /** A stage started. */
        StageBegin,
        /** One objective evaluation completed (`evaluation`,
         *  `best_value` filled). */
        Progress,
        /** A stage finished (`best_value` holds its final best). */
        StageEnd,
    };

    Kind event = Kind::Progress;
    /** "clifford_search", "t_boost" or "vqa_tune". */
    std::string_view stage;
    /** 1-based evaluation count within the stage (Progress only). */
    std::size_t evaluation = 0;
    /** Best objective value seen so far in the stage. */
    double best_value = 0.0;
    /** The run cache's counters so far — non-null only on StageEnd
     *  when `PipelineConfig::cache` is set. Valid for the duration of
     *  the observer call. */
    const CacheStats* cache = nullptr;
    /** Stage wall milliseconds (StageEnd only) — the same measurement
     *  the telemetry `cafqa_stage_ms{stage=...}` histogram records, so
     *  observers see the stage timing whether or not telemetry
     *  recording is enabled. */
    double stage_ms = 0.0;
};

/** Observer callback; invoked synchronously from the running stage. */
using PipelineObserver = std::function<void(const PipelineEvent&)>;

/** Everything the pipeline needs up front. Every field after the
 *  ansatz and objective has a default member initializer, so a
 *  designated initializer names only what it sets:
 *  `CafqaPipeline({.ansatz = a, .objective = o, .search = s})`. (The
 *  tuner options are initialized by a call rather than by `{}`: GCC 12
 *  reports a false -Wmaybe-uninitialized at callers for the `{}`
 *  form.) */
struct PipelineConfig
{
    /** The parameterized (Clifford) ansatz circuit. */
    Circuit ansatz;
    /** Hamiltonian + constraint penalties. */
    VqaObjective objective;
    /** Discrete-search stage budget: warm-up, iterations, seed and
     *  prior seeds. */
    CafqaOptions search{};
    /** Continuous-stage controls (budget, seed, noise, backend kind). */
    VqaTunerOptions tuner = VqaTunerOptions();
    /** Worker threads for batched candidate evaluation (block phases
     *  of the discrete searches), for the slices of each
     *  "statevector" or "sampled" tune expectation and, on the
     *  "statevector" tune backend, for SPSA's two gradient probes;
     *  `kernel_pool()` hands the same pool to the exact
     *  solve. The pipeline owns the pool; 0 sizes it to the
     *  hardware. Results never depend on the count, to the bit. */
    std::size_t threads = 0;
    /** Registry kind of the discrete search backend. */
    std::string search_backend = "clifford";
    /** Discrete search strategy: any optimizer-registry kind that
     *  minimizes over a `DiscreteSpace`, or a "portfolio:<k1+k2+...>"
     *  race; "bayes" reproduces the paper. `search.seed` seeds every
     *  strategy ("bayes" always; the others only when it is nonzero).
     *  "bayes" splits the stage budget into `search.warmup` and
     *  `search.iterations`; every other strategy is capped at the prior
     *  seeds plus warm-up plus iterations. */
    std::string search_optimizer = "bayes";
    /** Continuous tuning strategy: any optimizer-registry kind that
     *  minimizes from an `x0`; "spsa" reproduces the paper, running
     *  `tuner.iterations` steps from `tuner.seed` with the pipeline's
     *  fixed gains. Every other strategy is capped at
     *  `tuner.iterations` evaluations. */
    std::string tuner_optimizer = "spsa";
    /** Uniform stopping criteria applied to every stage: target-value
     *  early exit (e.g. exact energy + chemical accuracy), patience,
     *  cancellation. A nonzero `max_evaluations` replaces the stage
     *  caps above. */
    StoppingCriteria stopping{};
    /**
     * The run's memoizing evaluation cache (`core/caching_backend.hpp`);
     * null runs uncached. Every stage backend — discrete search, T-boost
     * candidates, continuous tuner — is wrapped over this one cache,
     * with `backend_config_hash` salting the keys so distinct circuits
     * and kinds never alias. `execute_run_spec` gives each run with
     * `cache=1` a cache of its own, served or solo. StageEnd events
     * carry its counters so far. Results stay bit-identical to an uncached run
     * for deterministic backends (the cache is a pure memoizer); a
     * *stochastic* backend ("sampled") replays the frozen shot noise of
     * each point's first evaluation.
     */
    std::shared_ptr<EvaluationCache> cache{};
};

/**
 * Facade over the three CAFQA stages. Construct once per problem; run
 * the stages in order (later stages auto-run the Clifford search if it
 * has not happened yet).
 */
class CafqaPipeline
{
  public:
    explicit CafqaPipeline(PipelineConfig config);
    ~CafqaPipeline();

    CafqaPipeline(const CafqaPipeline&) = delete;
    CafqaPipeline& operator=(const CafqaPipeline&) = delete;

    /** Install (or clear) the stage observer. */
    void set_observer(PipelineObserver observer);

    /**
     * Stage 1 (red box of Fig. 4): Bayesian optimization over the
     * discrete Clifford space, warm-up fanned out across the thread
     * pool. Idempotent.
     */
    const CafqaResult& run_clifford_search();

    /**
     * Optional stage 1b (Section 8): greedily insert up to
     * `max_t_gates` T gates, re-searching Clifford parameters with the
     * exact branch backend per candidate slot. Runs stage 1 first if
     * needed. Idempotent (the first call's `max_t_gates` wins).
     */
    const TBoostResult& run_t_boost(std::size_t max_t_gates);

    /**
     * Stage 2 (blue box of Fig. 4): continuous SPSA tuning on the
     * backend selected by the tuner options, starting from the best
     * initialization produced by the earlier stages (runs stage 1 first
     * if needed). Idempotent.
     */
    const VqaTuneResult& run_vqa_tune();

    /** Stage 2 from an explicit initialization (no discrete stage
     *  required); tunes over the current best circuit. Unlike the
     *  no-argument overload this is NOT idempotent: a second call
     *  throws rather than silently ignoring the new initialization —
     *  use one pipeline per initialization to compare starts. */
    const VqaTuneResult& run_vqa_tune(const std::vector<double>& initial);

    // ---- Current best across the stages run so far. ----

    /** Quarter-turn assignment of the best discrete point found. */
    const std::vector<int>& best_steps() const;
    /** Bare Hamiltonian energy at the best discrete point. */
    double best_energy() const;
    /** The circuit the best discrete point lives on (the ansatz, or the
     *  T-boosted circuit once a T gate was accepted). */
    const Circuit& best_circuit() const;
    /** Radian parameters equivalent to `best_steps()` — the VQA
     *  initialization. */
    std::vector<double> initial_params() const;

    // ---- Per-stage results (throw if the stage has not run). ----

    bool clifford_search_done() const { return clifford_.has_value(); }
    bool t_boost_done() const { return boost_.has_value(); }
    bool vqa_tune_done() const { return tuned_.has_value(); }

    const CafqaResult& clifford_result() const;
    const TBoostResult& t_boost_result() const;
    const VqaTuneResult& tune_result() const;

    /** The run's pool for dense kernels outside the stages (the exact
     *  solve `execute_run_spec` runs): null on a one-thread run, else
     *  the pool the stages use, started on first use. */
    ThreadPool* kernel_pool();

    const PipelineConfig& config() const { return config_; }

  private:
    void emit(PipelineEvent::Kind kind, std::string_view stage,
              std::size_t evaluation, double best_value) const;

    /** StageEnd, with the run cache's counters so far when cached. */
    void emit_stage_end(std::string_view stage, std::size_t evaluation,
                        double best_value, double stage_ms) const;

    /** Stage backend config, wrapped over the run cache when set. */
    BackendConfig stage_backend_config(std::string kind,
                                       Circuit ansatz) const;

    ThreadPool& pool();

    /** Objective values for a block of step candidates, fanned out over
     *  the pool with per-worker clones of `prototype`. */
    std::vector<double>
    batch_objective(const DiscreteBackend& prototype,
                    const std::vector<std::vector<int>>& candidates);

    /** One discrete search over `space` on `backend` with the
     *  configured strategy (shared by the Clifford stage and every
     *  T-boost round). */
    OptimizeOutcome discrete_search(DiscreteBackend& backend,
                                    const DiscreteSpace& space,
                                    const CafqaOptions& options,
                                    std::string_view stage);

    PipelineConfig config_;
    PipelineObserver observer_;
    std::vector<PauliSum> observables_;
    std::unique_ptr<ThreadPool> own_pool_;

    std::optional<CafqaResult> clifford_;
    std::optional<TBoostResult> boost_;
    std::optional<VqaTuneResult> tuned_;
};

} // namespace cafqa

#endif // CAFQA_CORE_PIPELINE_HPP
