/**
 * @file
 * The polymorphic optimizer interfaces every search strategy in the
 * repository conforms to (paper Section 5 ablates discrete strategies,
 * Fig. 4/14 the continuous tuners):
 *
 *   - `DiscreteOptimizer`   minimizes over a `DiscreteSpace` (CAFQA's
 *     Clifford quarter-turn search and its ablation baselines);
 *   - `ContinuousOptimizer` minimizes from a start point `x0` (the
 *     post-CAFQA VQA tuners).
 *
 * All implementations return the shared `OptimizeOutcome` (best point,
 * best value, evaluation trace, termination reason) and honor the same
 * `StoppingCriteria` (evaluation budget, target-value early exit such
 * as chemical accuracy, no-improvement patience, cancellation), so
 * callers can swap strategy without touching any other code. Concrete
 * optimizers are constructible by string key through
 * `opt/optimizer_registry.hpp`, mirroring the backend registry.
 */
#ifndef CAFQA_OPT_OPTIMIZER_HPP
#define CAFQA_OPT_OPTIMIZER_HPP

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace cafqa {

/** A discrete configuration space: parameter i takes values
 *  0..cardinalities[i]-1. */
struct DiscreteSpace
{
    std::vector<int> cardinalities;

    std::size_t num_parameters() const { return cardinalities.size(); }
    /** log10 of the space size (the spaces themselves overflow). */
    double log10_size() const;
};

/** Why a minimization run ended. */
enum class StopReason {
    /** The evaluation budget (criteria or the optimizer's own) ran out. */
    BudgetExhausted,
    /** `StoppingCriteria::target_value` was reached. */
    TargetReached,
    /** No improvement within the patience window. */
    Stalled,
    /** The optimizer's own convergence test fired (e.g. Nelder-Mead's
     *  simplex f-spread tolerance). */
    Converged,
    /** An exhaustive search enumerated the entire space. */
    SpaceExhausted,
    /** `StoppingCriteria::cancel` was raised by another thread (the
     *  job server's cancel verb or `shutdown now`). */
    Cancelled,
};

/** Human-readable stop reason ("budget", "target", ...). */
std::string_view to_string(StopReason reason);

/**
 * Uniform stopping controls honored by every optimizer. All fields
 * compose: the run ends as soon as any enabled criterion fires.
 */
struct StoppingCriteria
{
    /** Hard cap on objective evaluations (0 = the optimizer's own
     *  budget, e.g. warmup+iterations for Bayesian optimization). */
    std::size_t max_evaluations = 0;
    /** Stop once the best value is <= this (e.g. exact energy plus
     *  chemical accuracy). Unset = off. */
    std::optional<double> target_value;
    /** Stop after this many recorded evaluations without an
     *  improvement of at least 1e-12 (0 = off). */
    std::size_t patience = 0;
    /**
     * Cooperative cancellation token: when another thread stores `true`
     * here, the run stops at the next recorded evaluation with
     * `StopReason::Cancelled` (the best point found so far is still
     * returned). Latency is one evaluation — or one block in batched
     * phases such as the Bayesian warm-up, where the block is evaluated
     * before it is recorded. Null (the default) disables the check.
     */
    std::shared_ptr<const std::atomic<bool>> cancel;
};

/**
 * Shared result of every optimizer. Exactly one of
 * `best_config`/`best_x` is populated, matching the optimizer's domain.
 */
struct OptimizeOutcome
{
    /** Best discrete configuration (discrete optimizers). */
    std::vector<int> best_config;
    /** Best continuous point (continuous optimizers). */
    std::vector<double> best_x;
    double best_value = 0.0;
    /** Recorded objective values in evaluation order. (SPSA records the
     *  start point and then one post-step value per iteration; its +/-
     *  gradient probes count toward `evaluations` but are not
     *  recorded.) */
    std::vector<double> history;
    /** Running minimum of `history`. */
    std::vector<double> best_trace;
    /** Total objective calls (>= history.size()). */
    std::size_t evaluations = 0;
    /** 1-based index into `history` where the best value appeared —
     *  the "iterations to converge" metric of Fig. 15. */
    std::size_t evaluations_to_best = 0;
    StopReason stop_reason = StopReason::BudgetExhausted;
};

using DiscreteObjective = std::function<double(const std::vector<int>&)>;
using ContinuousObjective =
    std::function<double(const std::vector<double>&)>;
/** Progress callback: (1-based recorded-evaluation index, best so far). */
using ProgressCallback = std::function<void(std::size_t, double)>;
/** Batched evaluator: values for a block of configurations, in order. */
using DiscreteBatchEvaluator =
    std::function<std::vector<double>(const std::vector<std::vector<int>>&)>;
/** Batched evaluator over continuous points, values in order. */
using ContinuousBatchEvaluator = std::function<std::vector<double>(
    const std::vector<std::vector<double>>&)>;

/**
 * Optional per-run inputs shared by all optimizers. Fields an optimizer
 * cannot use are ignored (continuous optimizers ignore the discrete
 * seeds and `batch`; discrete ones ignore `continuous_batch`).
 */
struct SearchContext
{
    /** Invoked after every recorded evaluation. */
    ProgressCallback progress{};
    /** Discrete configurations evaluated before the strategy's own
     *  exploration (prior injection, e.g. the Hartree-Fock point). */
    std::vector<std::vector<int>> seed_configs{};
    /** Batched evaluator for block-generated candidates (Bayesian
     *  warm-up, random search, exhaustive scan); the trajectory must
     *  stay identical to the serial path, only the fan-out changes. */
    DiscreteBatchEvaluator batch{};
    /** Batched evaluator for independent continuous points (SPSA's two
     *  gradient probes); each value must equal the plain objective's
     *  at that point, so only the fan-out changes. */
    ContinuousBatchEvaluator continuous_batch{};
    /** Mints an independent, thread-safe equivalent of the objective
     *  (the pipeline returns one wrapping a `clone()`d backend, so
     *  clones share the memoizing cache). Lets concurrent strategies
     *  (`search/portfolio.hpp`) evaluate in parallel; without it they
     *  serialize calls to the plain objective. */
    std::function<DiscreteObjective()> objective_factory{};
};

/** Root of the optimizer hierarchy (see the registry for keys). */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;
    /** Registry-style key of the algorithm ("bayes", "spsa", ...). */
    virtual std::string_view name() const = 0;
};

/** Minimizes a black-box objective over a finite discrete space. */
class DiscreteOptimizer : public Optimizer
{
  public:
    virtual OptimizeOutcome minimize(const DiscreteObjective& objective,
                                     const DiscreteSpace& space,
                                     const StoppingCriteria& criteria = {},
                                     const SearchContext& context = {}) = 0;
};

/** Minimizes a black-box objective from a continuous start point. */
class ContinuousOptimizer : public Optimizer
{
  public:
    virtual OptimizeOutcome minimize(const ContinuousObjective& objective,
                                     std::vector<double> x0,
                                     const StoppingCriteria& criteria = {},
                                     const SearchContext& context = {}) = 0;
};

/**
 * Implementation helper used by every optimizer to honor the
 * `StoppingCriteria` uniformly: call `record` after each objective
 * evaluation; it updates the outcome (history, running best, progress
 * callback) and throws the private `EarlyStop` token once any criterion
 * fires. Wrap the search loop in `try { ... } catch (EarlyStop) {}` and
 * call `finish` with the reason the loop would otherwise end with.
 */
class OutcomeRecorder
{
  public:
    /** Internal control-flow token thrown by `record`. */
    struct EarlyStop
    {
    };

    /** `max_evaluations` is the resolved evaluation cap: the criteria
     *  cap when set, else the optimizer's own budget (0 = uncapped). */
    OutcomeRecorder(const StoppingCriteria& criteria,
                    std::size_t max_evaluations, ProgressCallback progress);

    std::size_t evaluations() const { return outcome_.evaluations; }
    /** Objective calls still allowed (huge value when uncapped). */
    std::size_t remaining_budget() const;
    /** True if `upcoming` more objective calls fit in the budget. */
    bool has_budget(std::size_t upcoming) const;

    /** Count an objective call that is not recorded in the history
     *  (e.g. SPSA's +/- gradient probes); it consumes budget. */
    void count_evaluation() { ++outcome_.evaluations; }

    /** Record a discrete evaluation; throws EarlyStop when a criterion
     *  fires (after the value is recorded). */
    void record(const std::vector<int>& config, double value);
    /** Record a continuous evaluation; throws EarlyStop likewise. */
    void record(const std::vector<double>& x, double value);

    double best_value() const { return outcome_.best_value; }
    bool empty() const { return outcome_.history.empty(); }

    /** Finalize and take the outcome. `reason` applies only when no
     *  criterion fired earlier. */
    OptimizeOutcome finish(StopReason reason);

  private:
    void after_record(double value, bool improved);

    StoppingCriteria criteria_;
    std::size_t max_evaluations_;
    ProgressCallback progress_;
    std::size_t since_improvement_ = 0;
    std::optional<StopReason> stopped_;
    OptimizeOutcome outcome_;
};

/**
 * Evaluate `block` and record each configuration in block order; the
 * returned values are in the same order. Uses `context.batch` when set
 * (one fan-out, then the records). Otherwise each configuration is
 * evaluated and recorded before the next is evaluated, so an early
 * stop costs no objective call beyond the one that triggered it.
 * Either way the recorded trajectory is the same. Throws
 * `OutcomeRecorder::EarlyStop` like `record`.
 */
std::vector<double> record_block(const std::vector<std::vector<int>>& block,
                                 const DiscreteObjective& objective,
                                 const SearchContext& context,
                                 OutcomeRecorder& recorder);

/** Throws std::invalid_argument unless `space` is non-empty with all
 *  positive cardinalities. */
void validate_space(const DiscreteSpace& space);

/** Throws std::invalid_argument unless every seed configuration
 *  matches `space` (size and per-parameter range). */
void validate_seed_configs(
    const std::vector<std::vector<int>>& seed_configs,
    const DiscreteSpace& space);

} // namespace cafqa

#endif // CAFQA_OPT_OPTIMIZER_HPP
