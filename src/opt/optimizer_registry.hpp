/**
 * @file
 * String-keyed optimizer registry and factory, an instance of the
 * `Registry<Entry>` template (`common/registry.hpp`) like the backend
 * and problem registries: construct any search strategy from an
 * `OptimizerConfig` without naming its concrete type.
 *
 * Built-in kinds:
 *
 * | key           | class                       | space      | options     |
 * |---------------|-----------------------------|------------|-------------|
 * | "bayes"       | BayesOptimizer              | discrete   | bayes       |
 * | "anneal"      | SimulatedAnnealingOptimizer | discrete   | anneal      |
 * | "random"      | RandomSearchOptimizer       | discrete   | random      |
 * | "tempering"   | ParallelTempering           | discrete   | tempering   |
 * | "exhaustive"  | ExhaustiveOptimizer         | discrete   | -           |
 * | "nelder-mead" | NelderMeadOptimizer         | continuous | nelder_mead |
 * | "spsa"        | SpsaOptimizer               | continuous | spsa        |
 *
 * The prefix key `"portfolio:<k1+k2+...>"` (e.g.
 * `"portfolio:anneal+bayes+random"`) composes any registered discrete
 * kinds into a `PortfolioSearch` race — arm i gets seed `seed + i`, so
 * a one-arm portfolio is bit-identical to the bare optimizer. The
 * stopping budget is per arm (each arm runs its solo trajectory), so
 * a k-arm portfolio may spend up to k times `max_evaluations`.
 *
 * Additional kinds (CMA-ES, custom schedulers, ...) can be registered
 * at runtime with `register_optimizer` (a kind may neither start with
 * `"portfolio:"` nor contain `'+'`, the portfolio key syntax);
 * `CafqaPipeline`, the CLI and the ablation bench resolve strategies
 * exclusively through this factory, so a new kind is immediately usable
 * everywhere.
 */
#ifndef CAFQA_OPT_OPTIMIZER_REGISTRY_HPP
#define CAFQA_OPT_OPTIMIZER_REGISTRY_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "opt/bayes_opt.hpp"
#include "opt/nelder_mead.hpp"
#include "opt/search_baselines.hpp"
#include "opt/simulated_annealing.hpp"
#include "opt/spsa.hpp"
#include "search/parallel_tempering.hpp"
#include "search/portfolio.hpp"

namespace cafqa {

/** Everything an optimizer factory may need; unused fields are
 *  ignored. */
struct OptimizerConfig
{
    /** Registry key selecting the strategy. */
    std::string kind = "bayes";
    /** If nonzero, overrides every algorithm's own RNG seed. */
    std::uint64_t seed = 0;
    BayesOptOptions bayes;
    AnnealingOptions anneal;
    RandomSearchOptions random;
    TemperingOptions tempering;
    NelderMeadOptions nelder_mead;
    SpsaOptions spsa;
    /** Orchestration knobs for "portfolio:..." kinds. */
    PortfolioOptions portfolio;
};

/** Default config for `kind` (convenience for field initializers). */
inline OptimizerConfig
optimizer_config(std::string kind)
{
    OptimizerConfig config;
    config.kind = std::move(kind);
    return config;
}

/** Factory signature stored in the registry. */
using OptimizerFactory =
    std::function<std::unique_ptr<Optimizer>(const OptimizerConfig&)>;

/** Register (or replace) a factory under `kind`. Throws
 *  std::invalid_argument on an empty kind, a kind starting with
 *  `"portfolio:"` (that prefix always resolves to a portfolio) or one
 *  containing `'+'` (portfolio keys split arms on it). */
void register_optimizer(const std::string& kind, OptimizerFactory factory);

/** Sorted list of registered kinds. */
std::vector<std::string> registered_optimizers();

/** Sorted registered kinds whose optimizers minimize over a
 *  `DiscreteSpace` (resp. from a continuous `x0`). Constructs a
 *  throwaway instance of each kind to classify it; kinds whose factory
 *  rejects a default config are omitted. */
std::vector<std::string> registered_discrete_optimizers();
std::vector<std::string> registered_continuous_optimizers();

/** Construct an optimizer; throws std::invalid_argument on unknown
 *  kind. */
std::unique_ptr<Optimizer> make_optimizer(const OptimizerConfig& config);

/** make_optimizer + checked downcast to the discrete interface. */
std::unique_ptr<DiscreteOptimizer>
make_discrete_optimizer(const OptimizerConfig& config);

/** make_optimizer + checked downcast to the continuous interface. */
std::unique_ptr<ContinuousOptimizer>
make_continuous_optimizer(const OptimizerConfig& config);

} // namespace cafqa

#endif // CAFQA_OPT_OPTIMIZER_REGISTRY_HPP
