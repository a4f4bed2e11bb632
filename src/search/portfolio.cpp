#include "search/portfolio.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "common/thread_safety.hpp"
#include "telemetry/metrics.hpp"

namespace cafqa {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/** Evaluations each live arm runs between synchronization barriers
 *  (one "round"). */
constexpr std::size_t kSyncEvals = 32;
/** Rounds every arm is immune from killing. */
constexpr std::size_t kGraceRounds = 2;
/** Rounds without improving its own best before a dominated arm is
 *  killed. */
constexpr std::size_t kStaleRounds = 8;

/** Orchestrator state shared by the arm threads. All fields are
 *  guarded by `control_mutex` except the per-arm kill tokens (atomics
 *  read by the arms' recorders). */
struct Control
{
    struct Arm
    {
        std::shared_ptr<std::atomic<bool>> kill =
            std::make_shared<std::atomic<bool>>(false);
        /** Evaluations this arm may still run before its next barrier
         *  arrival. */
        std::size_t allowance = 0;
        /** Best value the arm has recorded so far. */
        double best = kInf;
        /** Round in which `best` last improved (staleness clock). */
        std::size_t last_improve_round = 0;
        /** Parked at the barrier, waiting for the round to turn. */
        bool waiting = false;
        /** Exhausted its own budget and parked awaiting a restart
         *  grant from the reclaimed pool. */
        bool pending = false;
        /** Budget cap granted for the arm's next warm-started attempt
         *  (nonzero = restart approved). */
        std::size_t restart_budget = 0;
        /** Warm restarts taken so far. */
        std::size_t restarts = 0;
        /** The arm is done: its optimizer returned and no restart is
         *  coming. */
        bool finished = false;
        bool killed = false;
    };

    Mutex control_mutex{"control_mutex"};
    CondVar cv;
    /** Serializes objective calls when no objective_factory is set. */
    Mutex eval_mutex{"eval_mutex"};

    /** Per-arm slots: the vector itself is sized once before the arm
     *  threads start, but every field of every slot is part of the
     *  round-barrier invariant. */
    std::vector<Arm> arms CAFQA_GUARDED_BY(control_mutex);
    /** Remaining shared evaluation pool (when capped): arms x the
     *  per-arm budget. */
    std::size_t pool CAFQA_GUARDED_BY(control_mutex) = 0;
    bool pool_capped CAFQA_GUARDED_BY(control_mutex) = false;
    std::size_t round CAFQA_GUARDED_BY(control_mutex) = 0;
    std::size_t generation CAFQA_GUARDED_BY(control_mutex) = 0;
    bool external_cancel CAFQA_GUARDED_BY(control_mutex) = false;
    bool target_seen CAFQA_GUARDED_BY(control_mutex) = false;

    // Set once before the arm threads start, read-only afterwards.
    std::shared_ptr<const std::atomic<bool>> parent_cancel;
    ProgressCallback progress;

    std::size_t progress_evals CAFQA_GUARDED_BY(control_mutex) = 0;
    double progress_best CAFQA_GUARDED_BY(control_mutex) = kInf;

    bool live(std::size_t i) const CAFQA_REQUIRES(control_mutex)
    {
        return !arms[i].finished && !arms[i].killed;
    }

    void kill(std::size_t i) CAFQA_REQUIRES(control_mutex)
    {
        if (live(i)) {
            arms[i].killed = true;
            arms[i].kill->store(true, std::memory_order_relaxed);
            // Its unspent allowance flows back to the pool for the
            // survivors — the "rebalanced to survivors" contract.
            if (pool_capped) {
                pool += arms[i].allowance;
            }
            arms[i].allowance = 0;
        }
    }

    void kill_everyone() CAFQA_REQUIRES(control_mutex)
    {
        for (std::size_t i = 0; i < arms.size(); ++i) {
            kill(i);
        }
        // Arms parked at the barrier must observe their raised token.
        cv.notify_all();
    }

    /** True when no live arm is still running evaluations — every one
     *  is parked with an empty allowance, either at the evaluation
     *  barrier or pending a restart grant. Killed arms (possibly mid
     *  final evaluation) do not hold the round open. */
    bool round_closed() const CAFQA_REQUIRES(control_mutex)
    {
        for (std::size_t i = 0; i < arms.size(); ++i) {
            const bool parked = (arms[i].waiting || arms[i].pending) &&
                                arms[i].allowance == 0;
            if (live(i) && !parked) {
                return false;
            }
        }
        return true;
    }

    /** Turn the round: decide kills from the arms' round-boundary
     *  bests, grant restarts to budget-exhausted arms from the
     *  reclaimed pool, refill allowances, advance the generation.
     *  Runs under `mutex`, triggered by whichever arm closes the
     *  round — the decisions depend only on per-round state, never on
     *  thread timing. */
    void complete_round() CAFQA_REQUIRES(control_mutex)
    {
        ++round;

        // Kill at most the single worst live arm per round, once the
        // grace window has passed and a race still exists — and only
        // when that arm is stale: dominance alone is not enough,
        // because slow-burn strategies (annealing before it cools)
        // legitimately trail mid-run and win late.
        std::size_t live_count = 0;
        for (std::size_t i = 0; i < arms.size(); ++i) {
            live_count += live(i) ? 1 : 0;
        }
        if (round > kGraceRounds && live_count > 1) {
            std::size_t best_arm = arms.size();
            std::size_t worst_arm = arms.size();
            for (std::size_t i = 0; i < arms.size(); ++i) {
                if (!live(i)) {
                    continue;
                }
                if (best_arm == arms.size() ||
                    arms[i].best < arms[best_arm].best) {
                    best_arm = i;
                }
                if (worst_arm == arms.size() ||
                    arms[i].best >= arms[worst_arm].best) {
                    worst_arm = i;
                }
            }
            if (worst_arm != best_arm &&
                arms[worst_arm].best > arms[best_arm].best &&
                round - arms[worst_arm].last_improve_round >=
                    kStaleRounds) {
                kill(worst_arm);
            }
        }

        // Reclaimed budget flows to arms that spent their own: a
        // pending arm restarts (warm-started by its thread) when the
        // pool can still fund at least one round, capped by the pool
        // as it stands at this barrier; otherwise it is done. Arm
        // order keeps the grants deterministic.
        for (std::size_t i = 0; i < arms.size(); ++i) {
            if (!live(i) || !arms[i].pending) {
                continue;
            }
            if (pool_capped && pool >= kSyncEvals) {
                arms[i].restart_budget = pool;
            } else {
                arms[i].finished = true;
            }
        }

        // Refill allowances in arm order; an arm the pool cannot fund
        // at all is out of budget.
        for (std::size_t i = 0; i < arms.size(); ++i) {
            if (!live(i)) {
                continue;
            }
            if (!pool_capped) {
                arms[i].allowance = kSyncEvals;
                continue;
            }
            const std::size_t grant = std::min(kSyncEvals, pool);
            pool -= grant;
            arms[i].allowance = grant;
            if (grant == 0) {
                kill(i);
            }
        }

        ++generation;
        cv.notify_all();
    }
};

/** Fold an arm's attempts (first leg plus warm-started restarts) into
 *  the single outcome the merged trace and the report carry. */
OptimizeOutcome
combine_attempts(std::vector<OptimizeOutcome> attempts)
{
    if (attempts.size() == 1) {
        // The common path — and the parity path: a one-arm portfolio
        // must return the bare optimizer's outcome verbatim.
        return std::move(attempts.front());
    }
    OptimizeOutcome combined;
    combined.best_value = kInf;
    for (OptimizeOutcome& attempt : attempts) {
        combined.history.insert(combined.history.end(),
                                attempt.history.begin(),
                                attempt.history.end());
        combined.evaluations += attempt.evaluations;
        if (!attempt.best_config.empty() &&
            attempt.best_value < combined.best_value) {
            combined.best_value = attempt.best_value;
            combined.best_config = std::move(attempt.best_config);
        }
        combined.stop_reason = attempt.stop_reason;
    }
    combined.best_trace.reserve(combined.history.size());
    double running = kInf;
    combined.evaluations_to_best = 0;
    for (std::size_t j = 0; j < combined.history.size(); ++j) {
        if (combined.history[j] < running) {
            running = combined.history[j];
            if (running == combined.best_value &&
                combined.evaluations_to_best == 0) {
                combined.evaluations_to_best = j + 1;
            }
        }
        combined.best_trace.push_back(running);
    }
    return combined;
}

} // namespace

PortfolioSearch::PortfolioSearch(std::vector<PortfolioArm> arms,
                                 std::string key)
    : arms_(std::move(arms)), key_(std::move(key))
{
    CAFQA_REQUIRE(!arms_.empty(), "portfolio needs at least one arm");
    for (const PortfolioArm& arm : arms_) {
        CAFQA_REQUIRE(arm.optimizer != nullptr,
                      "portfolio arm has no optimizer");
    }
    auto& registry = telemetry::MetricsRegistry::instance();
    arm_evals_metrics_.reserve(arms_.size());
    for (const PortfolioArm& arm : arms_) {
        arm_evals_metrics_.push_back(&registry.counter(
            "cafqa_portfolio_evals_total", {{"arm", arm.kind}},
            "Objective evaluations recorded, per portfolio arm kind"));
    }
    kills_metric_ = &registry.counter(
        "cafqa_portfolio_kills_total", {},
        "Portfolio arms killed by the round orchestrator");
    restarts_metric_ = &registry.counter(
        "cafqa_portfolio_restarts_total", {},
        "Warm restarts granted to budget-exhausted portfolio arms");
}

OptimizeOutcome
PortfolioSearch::minimize(const DiscreteObjective& objective,
                          const DiscreteSpace& space,
                          const StoppingCriteria& criteria,
                          const SearchContext& context)
{
    validate_space(space);
    validate_seed_configs(context.seed_configs, space);

    const std::size_t n = arms_.size();
    Control control;
    // Uncontended (no arm thread exists yet), but the analysis wants
    // every touch of the guarded round state under the lock.
    MutexLock setup_lock(control.control_mutex);
    control.arms.resize(n);
    control.pool_capped = criteria.max_evaluations > 0;
    // max_evaluations is the PER-ARM budget (each arm's trajectory is
    // eval-for-eval its solo run), so the shared pool holds one full
    // budget per arm; kills hand what is left back to the pool and
    // restarts spend it.
    control.pool = criteria.max_evaluations * n;
    control.parent_cancel = criteria.cancel;
    control.progress = context.progress;

    // Round zero's allowances, granted before any thread starts.
    for (std::size_t i = 0; i < n; ++i) {
        if (control.pool_capped) {
            const std::size_t grant = std::min(kSyncEvals, control.pool);
            control.pool -= grant;
            control.arms[i].allowance = grant;
            if (grant == 0) {
                control.kill(i);
            }
        } else {
            control.arms[i].allowance = kSyncEvals;
        }
    }
    setup_lock.unlock();

    std::vector<OptimizeOutcome> outcomes(n);
    // lint:allow(raw-thread) the arms must run CONCURRENTLY (they
    // synchronize at round barriers); ThreadPool::parallel_for runs
    // indices in whatever order workers grab them and may serialize
    // them on a small pool, which would deadlock the barrier.
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            // Each arm evaluates through its own objective when the
            // caller can mint thread-safe clones (pipeline: one
            // clone()d backend per arm, shared cache); otherwise all
            // arms serialize on one mutex around the shared objective.
            DiscreteObjective own;
            if (context.objective_factory) {
                own = context.objective_factory();
            }
            const DiscreteObjective* eval =
                own ? &own : &objective;

            DiscreteObjective gated =
                [&](const std::vector<int>& config) {
                    {
                        MutexLock lock(control.control_mutex);
                        if (control.parent_cancel &&
                            control.parent_cancel->load(
                                std::memory_order_relaxed) &&
                            !control.external_cancel) {
                            control.external_cancel = true;
                            control.kill_everyone();
                        }
                        Control::Arm& me = control.arms[i];
                        // A killed arm passes straight through: this
                        // one evaluation lets its recorder observe the
                        // raised token and stop with best-so-far.
                        while (!me.killed && me.allowance == 0) {
                            me.waiting = true;
                            if (control.round_closed()) {
                                control.complete_round();
                            } else {
                                control.cv.wait(lock);
                            }
                            me.waiting = false;
                        }
                        if (!me.killed) {
                            --me.allowance;
                        }
                    }
                    double value;
                    if (own) {
                        value = (*eval)(config);
                    } else {
                        MutexLock guard(control.eval_mutex);
                        value = (*eval)(config);
                    }
                    {
                        MutexLock lock(control.control_mutex);
                        Control::Arm& me = control.arms[i];
                        if (value < me.best) {
                            me.best = value;
                            me.last_improve_round = control.round;
                        }
                        ++control.progress_evals;
                        control.progress_best =
                            std::min(control.progress_best, value);
                        if (control.progress) {
                            control.progress(control.progress_evals,
                                             control.progress_best);
                        }
                    }
                    return value;
                };

            // The arm's cap is the caller's budget unchanged, so its
            // schedules (annealing's cooling span, Bayesian warm-up
            // split) resolve exactly as they would solo. The kill
            // token is copied out under the lock (the shared_ptr slot
            // is guarded state; the atomic it points to is lock-free
            // by design).
            StoppingCriteria arm_criteria = criteria;
            {
                MutexLock lock(control.control_mutex);
                arm_criteria.cancel = control.arms[i].kill;
            }

            SearchContext arm_context;
            arm_context.seed_configs = context.seed_configs;

            std::vector<OptimizeOutcome> attempts;
            while (true) {
                OptimizeOutcome outcome;
                try {
                    outcome = arms_[i].optimizer->minimize(
                        gated, space, arm_criteria, arm_context);
                    // lint:allow(catch-swallow) the failure IS
                    // recorded, as a finished empty arm: an arm
                    // throwing mid-race must not strand its peers at
                    // the barrier, and best_value = inf loses every
                    // merge.
                } catch (...) {
                    outcome = OptimizeOutcome{};
                    outcome.best_value = kInf;
                }

                MutexLock lock(control.control_mutex);
                Control::Arm& me = control.arms[i];
                const StopReason reason = outcome.stop_reason;
                const bool has_config = !outcome.best_config.empty();
                attempts.push_back(std::move(outcome));
                if (control.pool_capped) {
                    control.pool += me.allowance;
                }
                me.allowance = 0;
                if (!me.killed && reason == StopReason::TargetReached) {
                    control.target_seen = true;
                    control.kill_everyone();
                }
                // Only an arm that ran out of its own budget while the
                // race goes on is a restart candidate; killed arms,
                // target hits, and optimizers that stopped for their
                // own reasons (converged, space exhausted) are done.
                const bool wants_restart =
                    control.pool_capped && !me.killed &&
                    !control.target_seen &&
                    reason == StopReason::BudgetExhausted && has_config;
                if (!wants_restart) {
                    me.finished = true;
                    if (control.round_closed()) {
                        control.complete_round();
                    } else {
                        control.cv.notify_all();
                    }
                    break;
                }

                me.pending = true;
                if (control.round_closed()) {
                    control.complete_round();
                } else {
                    control.cv.notify_all();
                }
                while (me.pending && me.restart_budget == 0 &&
                       !me.finished && !me.killed) {
                    control.cv.wait(lock);
                }
                me.pending = false;
                if (me.finished || me.killed) {
                    me.finished = true;
                    if (control.round_closed()) {
                        control.complete_round();
                    } else {
                        control.cv.notify_all();
                    }
                    break;
                }

                // Restart granted: rerun the same optimizer capped by
                // the reclaimed budget, warm-started from this arm's
                // best configuration so the continuation refines
                // rather than starts over.
                ++me.restarts;
                arm_criteria.max_evaluations = me.restart_budget;
                me.restart_budget = 0;
                std::vector<int> warm;
                double warm_best = kInf;
                for (const OptimizeOutcome& attempt : attempts) {
                    if (!attempt.best_config.empty() &&
                        attempt.best_value < warm_best) {
                        warm_best = attempt.best_value;
                        warm = attempt.best_config;
                    }
                }
                arm_context.seed_configs = {std::move(warm)};
            }

            outcomes[i] = combine_attempts(std::move(attempts));
        });
    }
    // lint:allow(raw-thread) joining the arm threads spawned above.
    for (std::thread& thread : threads) {
        thread.join();
    }

    // Merge: arm histories concatenated in arm index order (the
    // deterministic canonical order, independent of finish order).
    // The joins above are the real synchronization; the lock (held to
    // the end, uncontended) is for the analysis.
    MutexLock merge_lock(control.control_mutex);
    report_ = Report{};
    OptimizeOutcome merged;
    std::size_t offset = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ArmReport arm_report;
        arm_report.kind = arms_[i].kind;
        arm_report.outcome = outcomes[i];
        arm_report.history_offset = offset;
        arm_report.killed = control.arms[i].killed;
        arm_report.restarts = control.arms[i].restarts;
        // References pre-fetched in the constructor; these bumps are
        // lock-free and safe under merge_lock.
        arm_evals_metrics_[i]->add(outcomes[i].history.size());
        if (control.arms[i].killed) {
            kills_metric_->add();
        }
        restarts_metric_->add(control.arms[i].restarts);
        report_.arms.push_back(std::move(arm_report));

        merged.history.insert(merged.history.end(),
                              outcomes[i].history.begin(),
                              outcomes[i].history.end());
        report_.trace_arm.insert(report_.trace_arm.end(),
                                 outcomes[i].history.size(), i);
        merged.evaluations += outcomes[i].evaluations;
        offset += outcomes[i].history.size();
    }

    // Winner: lowest best value, ties to the lowest arm index.
    std::size_t winner = 0;
    for (std::size_t i = 1; i < n; ++i) {
        if (!outcomes[i].best_config.empty() &&
            (outcomes[winner].best_config.empty() ||
             outcomes[i].best_value < outcomes[winner].best_value)) {
            winner = i;
        }
    }
    report_.winner = winner;
    merged.best_config = outcomes[winner].best_config;
    merged.best_value = outcomes[winner].best_value;

    merged.best_trace.reserve(merged.history.size());
    double running = kInf;
    merged.evaluations_to_best = 0;
    for (std::size_t j = 0; j < merged.history.size(); ++j) {
        if (merged.history[j] < running) {
            running = merged.history[j];
            if (running == merged.best_value &&
                merged.evaluations_to_best == 0) {
                merged.evaluations_to_best = j + 1;
            }
        }
        merged.best_trace.push_back(running);
    }

    if (control.external_cancel) {
        merged.stop_reason = StopReason::Cancelled;
    } else if (control.target_seen) {
        merged.stop_reason = StopReason::TargetReached;
    } else if (control.pool_capped && control.pool < kSyncEvals) {
        // The leftover (if any) is too small to fund another round —
        // the pool is spent.
        merged.stop_reason = StopReason::BudgetExhausted;
    } else {
        merged.stop_reason = outcomes[winner].stop_reason;
    }

    CAFQA_REQUIRE(!merged.history.empty(),
                  "portfolio produced no evaluations (every arm "
                  "failed before recording)");
    return merged;
}

} // namespace cafqa
