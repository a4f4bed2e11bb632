#include "core/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/clifford_ansatz.hpp"
#include "opt/optimizer_registry.hpp"
#include "telemetry/metrics.hpp"

namespace cafqa {

namespace {

/** The per-stage wall-time histogram (`cafqa_stage_ms{stage=...}`).
 *  Fetched at stage entry — the pipeline is thread-confined and holds
 *  no named lock, so registration is always safe here. */
telemetry::Histogram&
stage_histogram(const char* stage)
{
    return telemetry::MetricsRegistry::instance().histogram(
        "cafqa_stage_ms", {{"stage", stage}},
        "Wall milliseconds per pipeline stage");
}

/** The tuner's SPSA gains, sized for VQE angle landscapes in radians.
 *  The iteration count and seed come from `VqaTunerOptions`. */
constexpr SpsaOptions kTunerSpsaGains{
    .a = 2.0, .c = 0.2, .alpha = 0.602, .gamma = 0.101, .stability = 20.0};

/** A stage's strategy and the criteria it runs under. */
struct StageStrategy
{
    OptimizerConfig optimizer;
    StoppingCriteria stopping;
};

/** The Clifford-search strategy `kind` over the stage budget `search`:
 *  "bayes" splits the budget into its warm-up and model-guided phases;
 *  every other discrete strategy is capped at the same total (the prior
 *  seeds count against the cap) unless `stopping` sets its own cap. */
StageStrategy
search_strategy(const std::string& kind, const CafqaOptions& search,
                StoppingCriteria stopping)
{
    OptimizerConfig optimizer = optimizer_config(kind);
    optimizer.seed = search.seed;
    optimizer.bayes.warmup = search.warmup;
    optimizer.bayes.iterations = search.iterations;
    optimizer.bayes.seed = search.seed;
    if (stopping.max_evaluations == 0 && kind != "bayes") {
        stopping.max_evaluations =
            search.seed_steps.size() + search.warmup + search.iterations;
    }
    return {std::move(optimizer), std::move(stopping)};
}

/** The tuning strategy `kind` over the tuner budget: "spsa" runs
 *  `tuner.iterations` steps (three objective calls each) with the fixed
 *  gains; every other continuous strategy is capped at
 *  `tuner.iterations` evaluations unless `stopping` sets its own cap. */
StageStrategy
tune_strategy(const std::string& kind, const VqaTunerOptions& tuner,
              StoppingCriteria stopping)
{
    OptimizerConfig optimizer = optimizer_config(kind);
    optimizer.seed = tuner.seed;
    optimizer.spsa = kTunerSpsaGains;
    optimizer.spsa.iterations = tuner.iterations;
    optimizer.spsa.seed = tuner.seed;
    if (stopping.max_evaluations == 0 && kind != "spsa") {
        stopping.max_evaluations = tuner.iterations;
    }
    return {std::move(optimizer), std::move(stopping)};
}

} // namespace

std::size_t
iterations_to_converge(const std::vector<double>& trace, double tolerance)
{
    if (trace.empty()) {
        return 0;
    }
    const double best = *std::min_element(trace.begin(), trace.end());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i] <= best + tolerance) {
            // trace[0] is the start point: converging there took 0 steps.
            return i;
        }
    }
    return trace.size();
}

CafqaPipeline::CafqaPipeline(PipelineConfig config)
    : config_(std::move(config)),
      observables_(config_.objective.gather_observables())
{
    CAFQA_REQUIRE(config_.objective.hamiltonian.num_qubits() ==
                      config_.ansatz.num_qubits(),
                  "Hamiltonian and ansatz qubit counts differ");
}

CafqaPipeline::~CafqaPipeline() = default;

void
CafqaPipeline::set_observer(PipelineObserver observer)
{
    observer_ = std::move(observer);
}

void
CafqaPipeline::emit(PipelineEvent::Kind kind, std::string_view stage,
                    std::size_t evaluation, double best_value) const
{
    if (observer_) {
        observer_(PipelineEvent{kind, stage, evaluation, best_value});
    }
}

void
CafqaPipeline::emit_stage_end(std::string_view stage, std::size_t evaluation,
                              double best_value, double stage_ms) const
{
    if (!observer_) {
        return;
    }
    std::optional<CacheStats> stats;
    if (config_.cache) {
        stats = config_.cache->stats();
    }
    observer_(PipelineEvent{PipelineEvent::Kind::StageEnd, stage, evaluation,
                            best_value, stats ? &*stats : nullptr,
                            stage_ms});
}

BackendConfig
CafqaPipeline::stage_backend_config(std::string kind, Circuit ansatz) const
{
    BackendConfig backend_config;
    backend_config.kind = std::move(kind);
    backend_config.ansatz = std::move(ansatz);
    backend_config.shared_cache = config_.cache;
    return backend_config;
}

ThreadPool&
CafqaPipeline::pool()
{
    if (!own_pool_) {
        own_pool_ = std::make_unique<ThreadPool>(config_.threads);
    }
    return *own_pool_;
}

ThreadPool*
CafqaPipeline::kernel_pool()
{
    return config_.threads == 1 ? nullptr : &pool();
}

std::vector<double>
CafqaPipeline::batch_objective(const DiscreteBackend& prototype,
                               const std::vector<std::vector<int>>& candidates)
{
    ThreadPool& workers = pool();
    std::vector<double> values(candidates.size());
    std::vector<std::unique_ptr<DiscreteBackend>> clones(workers.size());
    workers.parallel_for(
        candidates.size(), [&](std::size_t worker, std::size_t index) {
            auto& backend = clones[worker];
            if (!backend) {
                backend = prototype.clone_discrete();
            }
            backend->prepare(candidates[index]);
            values[index] =
                config_.objective.combine(backend->expectations(observables_));
        });
    return values;
}

OptimizeOutcome
CafqaPipeline::discrete_search(DiscreteBackend& backend,
                               const DiscreteSpace& space,
                               const CafqaOptions& options,
                               std::string_view stage)
{
    const StageStrategy strategy = search_strategy(
        config_.search_optimizer, options, config_.stopping);

    auto objective_fn = [&](const std::vector<int>& steps) {
        backend.prepare(steps);
        return config_.objective.combine(backend.expectations(observables_));
    };

    SearchContext context;
    context.seed_configs = options.seed_steps;
    context.batch = [&](const std::vector<std::vector<int>>& block) {
        return batch_objective(backend, block);
    };
    context.progress = [&](std::size_t evaluation, double best) {
        emit(PipelineEvent::Kind::Progress, stage, evaluation, best);
    };
    context.objective_factory = [this, &backend]() -> DiscreteObjective {
        // One clone()d backend per minted objective: concurrent
        // strategies (portfolio arms) evaluate independently while a
        // memoizing backend's clones share the sharded cache, keeping
        // the race cache-cooperative.
        std::shared_ptr<DiscreteBackend> clone = backend.clone_discrete();
        return [this, clone](const std::vector<int>& steps) {
            clone->prepare(steps);
            return config_.objective.combine(
                clone->expectations(observables_));
        };
    };

    const auto optimizer = make_discrete_optimizer(strategy.optimizer);
    return optimizer->minimize(objective_fn, space, strategy.stopping,
                               context);
}

const CafqaResult&
CafqaPipeline::run_clifford_search()
{
    if (clifford_) {
        return *clifford_;
    }
    emit(PipelineEvent::Kind::StageBegin, "clifford_search", 0, 0.0);
    telemetry::TraceSpan span(stage_histogram("clifford_search"));

    const auto backend = make_discrete_backend(
        stage_backend_config(config_.search_backend, config_.ansatz));

    const OptimizeOutcome search =
        discrete_search(*backend, clifford_search_space(config_.ansatz),
                        config_.search, "clifford_search");

    CafqaResult result;
    result.best_steps = search.best_config;
    result.best_objective = search.best_value;
    result.history = search.history;
    result.best_trace = search.best_trace;
    result.evaluations_to_best = search.evaluations_to_best;
    result.num_parameters = config_.ansatz.num_params();
    result.stop_reason = search.stop_reason;

    backend->prepare(result.best_steps);
    result.best_energy = config_.objective.energy(*backend);
    clifford_ = std::move(result);

    emit_stage_end("clifford_search", clifford_->history.size(),
                   clifford_->best_objective, span.stop());
    return *clifford_;
}

namespace {

/** Insert a T gate immediately after the rotation with parameter slot
 *  `slot`. */
Circuit
with_t_after_slot(const Circuit& ansatz, std::size_t slot)
{
    Circuit out(ansatz.num_qubits());
    for (const auto& op : ansatz.ops()) {
        out.push(op);
        if (is_rotation(op.kind) && op.param >= 0 &&
            static_cast<std::size_t>(op.param) == slot) {
            out.push(GateOp{GateKind::T, op.q0, 0, -1, 0.0});
        }
    }
    return out;
}

/** Reduced search budget of a T placement round (the paper limits this
 *  exploration to "under 10 T gates" with careful cost control). */
CafqaOptions
t_round_options(const CafqaOptions& options,
                const std::vector<int>& incumbent_steps)
{
    CafqaOptions reduced = options;
    reduced.warmup = std::max<std::size_t>(options.warmup / 4, 16);
    reduced.iterations = std::max<std::size_t>(options.iterations / 4, 32);
    reduced.seed = options.seed + 101;
    // Prior-inject the incumbent Clifford assignment so a T insertion
    // can only be accepted when it genuinely improves on it.
    reduced.seed_steps = {incumbent_steps};
    return reduced;
}

} // namespace

const TBoostResult&
CafqaPipeline::run_t_boost(std::size_t max_t_gates)
{
    if (boost_) {
        return *boost_;
    }
    const CafqaResult& base = run_clifford_search();
    emit(PipelineEvent::Kind::StageBegin, "t_boost", 0, 0.0);
    telemetry::TraceSpan span(stage_histogram("t_boost"));

    TBoostResult result;
    result.best_steps = base.best_steps;
    result.best_energy = base.best_energy;
    result.best_objective = base.best_objective;
    result.circuit = config_.ansatz;

    DiscreteSpace space;
    space.cardinalities.assign(config_.ansatz.num_params(), 4);

    for (std::size_t round = 0; round < max_t_gates; ++round) {
        bool improved = false;
        Circuit best_circuit = result.circuit;
        std::vector<int> best_steps = result.best_steps;
        double round_best = result.best_objective;
        std::size_t best_slot = 0;

        for (std::size_t slot = 0; slot < config_.ansatz.num_params();
             ++slot) {
            const Circuit candidate =
                with_t_after_slot(result.circuit, slot);
            const auto backend = make_discrete_backend(
                stage_backend_config("clifford_t", candidate));
            const OptimizeOutcome search = discrete_search(
                *backend, space,
                t_round_options(config_.search, result.best_steps),
                "t_boost");
            if (search.best_value < round_best - 1e-10) {
                round_best = search.best_value;
                best_circuit = candidate;
                best_steps = search.best_config;
                best_slot = slot;
                improved = true;
            }
        }
        if (!improved) {
            break; // no single T insertion helps further
        }
        result.t_positions.push_back(best_slot);
        result.circuit = std::move(best_circuit);
        result.best_steps = std::move(best_steps);
        result.best_objective = round_best;

        BackendConfig backend_config;
        backend_config.kind = "clifford_t";
        backend_config.ansatz = result.circuit;
        const auto backend = make_discrete_backend(backend_config);
        backend->prepare(result.best_steps);
        result.best_energy = config_.objective.energy(*backend);
    }

    boost_ = std::move(result);
    emit_stage_end("t_boost", boost_->t_positions.size(),
                   boost_->best_objective, span.stop());
    return *boost_;
}

const VqaTuneResult&
CafqaPipeline::run_vqa_tune()
{
    if (tuned_) {
        return *tuned_;
    }
    run_clifford_search();
    return run_vqa_tune(initial_params());
}

const VqaTuneResult&
CafqaPipeline::run_vqa_tune(const std::vector<double>& initial)
{
    // Unlike the no-argument overload, silently returning the cached
    // result here would discard the caller's initialization; refuse
    // instead.
    CAFQA_REQUIRE(!tuned_.has_value(),
                  "run_vqa_tune has already run on this pipeline; use a "
                  "fresh pipeline to tune from a different "
                  "initialization");
    const Circuit& circuit = best_circuit();
    CAFQA_REQUIRE(initial.size() == circuit.num_params(),
                  "initial parameter count mismatch");
    emit(PipelineEvent::Kind::StageBegin, "vqa_tune", 0, 0.0);
    telemetry::TraceSpan span(stage_histogram("vqa_tune"));

    const VqaTunerOptions& options = config_.tuner;
    BackendConfig backend_config = stage_backend_config(
        options.backend.empty()
            ? (options.noise.enabled() ? std::string("density")
                                       : std::string("statevector"))
            : options.backend,
        circuit);
    backend_config.noise = options.noise;
    backend_config.shots = options.shots;
    backend_config.seed = options.seed;
    // The pool splits each "statevector" and "sampled" expectation;
    // clones share it and split inline on a worker. A one-thread run
    // never starts a pool here.
    backend_config.pool = kernel_pool();
    auto backend = make_continuous_backend(backend_config);
    // The probe fan-out only for "statevector": a "sampled" value
    // depends on how many calls its instance has served, and a
    // "density" clone costs a 4^n matrix for a small gain.
    ThreadPool* const workers =
        backend->kind() == "statevector" ? backend_config.pool : nullptr;
    const bool pooled = workers != nullptr && workers->size() > 1;

    std::size_t evaluations = 0;
    double best_seen = 0.0;
    // Counts one evaluation and reports it, on the calling thread.
    auto note = [&](double value) {
        ++evaluations;
        if (evaluations == 1 || value < best_seen) {
            best_seen = value;
        }
        emit(PipelineEvent::Kind::Progress, "vqa_tune", evaluations,
             best_seen);
    };
    auto evaluate = [this](ContinuousBackend& on,
                           const std::vector<double>& params) {
        on.prepare(params);
        return config_.objective.combine(on.expectations(observables_));
    };
    auto objective_fn = [&](const std::vector<double>& params) {
        const double value = evaluate(*backend, params);
        note(value);
        return value;
    };

    // Independent points (SPSA's two probes) fan out over the pool with
    // one clone per worker, kept for the stage; counting and Progress
    // stay here, in point order.
    SearchContext context;
    std::vector<std::unique_ptr<ContinuousBackend>> clones;
    if (pooled) {
        clones.resize(workers->size());
        context.continuous_batch =
            [&](const std::vector<std::vector<double>>& points) {
                std::vector<double> values(points.size());
                workers->parallel_for(
                    points.size(), [&](std::size_t worker, std::size_t i) {
                        auto& clone = clones[worker];
                        if (!clone) {
                            clone = backend->clone_continuous();
                        }
                        values[i] = evaluate(*clone, points[i]);
                    });
                for (const double value : values) {
                    note(value);
                }
                return values;
            };
    }

    const StageStrategy strategy =
        tune_strategy(config_.tuner_optimizer, options, config_.stopping);
    const auto optimizer = make_continuous_optimizer(strategy.optimizer);
    OptimizeOutcome run =
        optimizer->minimize(objective_fn, initial, strategy.stopping, context);

    VqaTuneResult result;
    result.trace = std::move(run.history);
    result.final_params = std::move(run.best_x);
    result.final_value = run.best_value;
    result.stop_reason = run.stop_reason;
    tuned_ = std::move(result);

    emit_stage_end("vqa_tune", evaluations, tuned_->final_value,
                   span.stop());
    return *tuned_;
}

const std::vector<int>&
CafqaPipeline::best_steps() const
{
    if (boost_) {
        return boost_->best_steps;
    }
    CAFQA_REQUIRE(clifford_.has_value(),
                  "no discrete stage has run yet");
    return clifford_->best_steps;
}

double
CafqaPipeline::best_energy() const
{
    if (boost_) {
        return boost_->best_energy;
    }
    CAFQA_REQUIRE(clifford_.has_value(),
                  "no discrete stage has run yet");
    return clifford_->best_energy;
}

const Circuit&
CafqaPipeline::best_circuit() const
{
    return boost_ ? boost_->circuit : config_.ansatz;
}

std::vector<double>
CafqaPipeline::initial_params() const
{
    return steps_to_angles(best_steps());
}

const CafqaResult&
CafqaPipeline::clifford_result() const
{
    CAFQA_REQUIRE(clifford_.has_value(),
                  "run_clifford_search() has not been called");
    return *clifford_;
}

const TBoostResult&
CafqaPipeline::t_boost_result() const
{
    CAFQA_REQUIRE(boost_.has_value(),
                  "run_t_boost() has not been called");
    return *boost_;
}

const VqaTuneResult&
CafqaPipeline::tune_result() const
{
    CAFQA_REQUIRE(tuned_.has_value(),
                  "run_vqa_tune() has not been called");
    return *tuned_;
}

} // namespace cafqa
