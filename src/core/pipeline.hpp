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
 * optimizer registry (`opt/optimizer_registry.hpp`) — set
 * `PipelineConfig::search_optimizer`/`tuner_optimizer` to swap the
 * discrete search or the continuous tuner without touching any other
 * code, and `PipelineConfig::stopping` for uniform early exits
 * (target value such as chemical accuracy, patience, cancellation).
 * Candidate evaluation in block-generated phases is batched across a
 * thread pool with per-worker backend clones. Observers receive
 * begin/progress/end events per stage, which is how the bench harness
 * collects its traces.
 *
 * Concurrency contract: a `CafqaPipeline` is THREAD-CONFINED — drive
 * it from one thread. It deliberately owns no mutex of its own (the
 * `lint_invariants` naked-mutex rule would flag one anyway): all of
 * its parallelism lives behind `ThreadPool::parallel_for`, whose
 * internals carry clang thread-safety annotations
 * (`common/thread_safety.hpp`), and observer callbacks fire on the
 * calling thread in deterministic order. Run CONCURRENT pipelines by
 * giving each its own object — the shared registries and the shared()
 * pool they touch are internally synchronized.
 */
#ifndef CAFQA_CORE_PIPELINE_HPP
#define CAFQA_CORE_PIPELINE_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "circuit/circuit.hpp"
#include "common/thread_pool.hpp"
#include "core/backend_registry.hpp"
#include "core/caching_backend.hpp"
#include "core/cafqa_driver.hpp"
#include "core/objective.hpp"
#include "core/vqa_tuner.hpp"
#include "opt/optimizer_registry.hpp"

namespace cafqa {

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
    /** Memoizing-cache counters of the stage's backend — non-null only
     *  on StageEnd when `PipelineConfig::cache` was enabled. Valid for
     *  the duration of the observer call. */
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
 *  string-holding option structs are initialized by a call rather than
 *  by `{}`: GCC 12 reports a false -Wmaybe-uninitialized at callers
 *  for the `{}` form.) */
struct PipelineConfig
{
    /** The parameterized (Clifford) ansatz circuit. */
    Circuit ansatz;
    /** Hamiltonian + constraint penalties. */
    VqaObjective objective;
    /** Discrete-search stage budget: warm-up, iterations, seed and
     *  prior seeds. */
    CafqaOptions search{};
    /** Continuous-stage controls (SPSA budget, noise, backend kind). */
    VqaTunerOptions tuner = VqaTunerOptions();
    /** Worker threads for batched candidate evaluation; 0 uses the
     *  process-wide shared pool (sized to the hardware). */
    std::size_t threads = 0;
    /** Registry kind of the discrete search backend. */
    std::string search_backend = "clifford";
    /** Discrete search strategy (any optimizer-registry kind that
     *  minimizes over a `DiscreteSpace`); "bayes" reproduces the
     *  paper. The stage budget (`search.warmup + search.iterations`)
     *  and `search.seed` apply to every strategy; "bayes" takes its
     *  warm-up/model split and seed from `search` and its forest
     *  from `search_optimizer.bayes`. The other option fields (`anneal`,
     *  `random`, ...) are forwarded untouched. */
    OptimizerConfig search_optimizer = optimizer_config("bayes");
    /** Continuous tuning strategy (any optimizer-registry kind that
     *  minimizes from an `x0`); "spsa" reproduces the paper. As above,
     *  the default strategy's knobs live in `tuner.spsa` (this config's
     *  own `spsa` field is replaced by it); `nelder_mead` etc. are
     *  forwarded untouched. */
    OptimizerConfig tuner_optimizer = optimizer_config("spsa");
    /** Uniform stopping criteria applied to every stage: target-value
     *  early exit (e.g. exact energy + chemical accuracy), patience,
     *  cancellation. A zero `max_evaluations` defers to the stage
     *  budgets above. */
    StoppingCriteria stopping{};
    /** Memoizing evaluation cache (`core/caching_backend.hpp`). When
     *  `cache.enabled`, every stage backend — discrete search, T-boost
     *  rounds, continuous tuner — is wrapped so re-visited points skip
     *  state preparation; per-stage `CacheStats` arrive on the
     *  observer's StageEnd events. The cache is a pure memoizer:
     *  results are bit-identical to the uncached run. */
    CacheOptions cache{};
    /**
     * Cross-run shared evaluation cache (the job server's process-wide
     * cache). When set, every stage backend is wrapped over this cache
     * — config-hash-salted keys keep distinct circuits/kinds from
     * aliasing — instead of a per-stage fresh one. Results stay
     * bit-identical to an uncached run for deterministic backends (the
     * cache is a pure memoizer); a *stochastic* backend ("sampled")
     * would replay the first job's frozen shot noise into later jobs.
     * StageEnd cache stats then report the shared cache's global
     * counters.
     */
    std::shared_ptr<EvaluationCache> shared_cache{};
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

    const PipelineConfig& config() const { return config_; }

  private:
    void emit(PipelineEvent::Kind kind, std::string_view stage,
              std::size_t evaluation, double best_value,
              const CacheStats* cache = nullptr,
              double stage_ms = 0.0) const;

    /** Stage backend config with the pipeline's cache block applied. */
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
