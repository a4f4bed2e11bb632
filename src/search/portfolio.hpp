/**
 * @file
 * Portfolio search: race several registry optimizers ("arms") over
 * threads against a shared incumbent, kill dominated arms early, and
 * merge the per-arm traces into one attributed `OptimizeOutcome`.
 *
 * Registry key: `"portfolio:<k1+k2+...>"` (e.g.
 * `"portfolio:anneal+bayes+random"`). Arm i runs the bare optimizer
 * `ki` with seed `parent_seed + i`, so a one-arm portfolio is
 * bit-identical to the bare optimizer — the parity anchor the tests
 * pin down.
 *
 * Budget semantics: `StoppingCriteria::max_evaluations` is the PER-ARM
 * budget, exactly what the same optimizer would get solo — an arm's
 * trajectory is eval-for-eval identical to its solo run (annealing
 * cooling schedules and Bayesian warmup splits resolve against the
 * same budget either way), which is what makes the race comparable to
 * running the best arm alone. The merged outcome therefore holds up to
 * `arms * budget` evaluations; the race buys wall-clock (arms run
 * concurrently) and the kill rule buys back compute.
 *
 * Scheduling is round-based so results do not depend on thread timing:
 * every arm draws 32 evaluations (one round) from the shared pool
 * (`arms * budget` total), then blocks at a generation barrier.
 * Kill/restart decisions happen only when every live arm has arrived —
 * a deterministic cut for any thread count. After 2 grace rounds (which
 * let slow starters such as the Bayesian warm-up matter), at most the
 * single worst arm is killed per round, and only when it is strictly
 * dominated AND has not improved for 8 rounds (domination alone is not
 * enough: slow-burn strategies trail mid-run and win late; 8 rounds
 * never misfires on the bench race problems while still reclaiming a
 * stuck arm's budget well before a typical run ends). A killed arm's
 * unspent budget stays in the pool, and an arm that exhausts its own
 * budget while the pool still holds reclaimed evaluations is
 * RESTARTED, warm-started from its best configuration — the "budget
 * rebalanced to survivors" contract. A killed arm records at most one
 * further evaluation (the recorder checks its cancel token after each
 * record).
 *
 * Evaluation is concurrent when `SearchContext::objective_factory` is
 * set (the pipeline supplies per-arm `clone()`d backends that share
 * the memoizing cache — arms are cache-cooperative); without a factory
 * the arms serialize on a mutex so plain objectives stay safe.
 */
#ifndef CAFQA_SEARCH_PORTFOLIO_HPP
#define CAFQA_SEARCH_PORTFOLIO_HPP

#include <memory>
#include <string>
#include <vector>

#include "opt/optimizer.hpp"
#include "telemetry/metrics.hpp"

namespace cafqa {

/** One racing strategy: its registry key and the optimizer itself. */
struct PortfolioArm
{
    std::string kind;
    std::unique_ptr<DiscreteOptimizer> optimizer;
};

/**
 * Races its arms concurrently (one thread per arm) and returns the
 * merged outcome: per-arm histories concatenated in arm order (see
 * `last_report()` for the arm attribution of every entry), best point
 * over all arms, `evaluations` summed. Stop-reason precedence:
 * external cancel > any arm reaching the target > pool exhausted >
 * the winning arm's own reason.
 *
 * Deterministic under a fixed seed and criteria regardless of thread
 * count or machine; the merged history may exceed the evaluation pool
 * (`arms * max_evaluations`) by at most one entry per arm (a killed
 * arm records once more — the recorder observes the raised token after
 * recording). A one-arm portfolio has no overshoot: the arm's own
 * recorder caps it at exactly the budget, and the dry pool denies the
 * restart.
 */
class PortfolioSearch final : public DiscreteOptimizer
{
  public:
    /** Per-arm outcome with its placement in the merged trace. */
    struct ArmReport
    {
        std::string kind;
        /** All of the arm's attempts combined (restarted arms append
         *  their warm-started continuation to the first leg). */
        OptimizeOutcome outcome;
        /** Offset of this arm's history within the merged history. */
        std::size_t history_offset = 0;
        /** True if the orchestrator killed the arm (dominated-stale,
         *  pool exhausted, or another arm reached the target). */
        bool killed = false;
        /** Times the arm was restarted on reclaimed budget. */
        std::size_t restarts = 0;
    };

    /** Attribution of the last `minimize` call. */
    struct Report
    {
        std::vector<ArmReport> arms;
        /** For merged history entry j, the index of the arm that
         *  produced it. */
        std::vector<std::size_t> trace_arm;
        /** Arm index holding the returned best (tie: lowest index). */
        std::size_t winner = 0;
    };

    /** `key` is the full registry key ("portfolio:anneal+bayes"),
     *  reported by `name()`. */
    PortfolioSearch(std::vector<PortfolioArm> arms, std::string key);

    std::string_view name() const override { return key_; }

    OptimizeOutcome minimize(const DiscreteObjective& objective,
                             const DiscreteSpace& space,
                             const StoppingCriteria& criteria = {},
                             const SearchContext& context = {}) override;

    /** Per-arm attribution of the most recent `minimize` call. */
    const Report& last_report() const { return report_; }

  private:
    std::vector<PortfolioArm> arms_;
    std::string key_;
    Report report_;
    /** Registry references fetched in the constructor — registration
     *  must not happen inside `minimize` (parts of it run under
     *  `control_mutex`, and the registering accessors take
     *  `metrics_mutex`). One entry per arm, parallel to `arms_`. */
    std::vector<telemetry::Counter*> arm_evals_metrics_;
    telemetry::Counter* kills_metric_ = nullptr;
    telemetry::Counter* restarts_metric_ = nullptr;
};

} // namespace cafqa

#endif // CAFQA_SEARCH_PORTFOLIO_HPP
