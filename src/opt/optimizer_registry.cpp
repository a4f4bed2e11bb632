#include "opt/optimizer_registry.hpp"

#include <functional>
#include <string_view>

#include "common/error.hpp"
#include "common/registry.hpp"
#include "common/text.hpp"

namespace cafqa {

namespace {

/** Factory signature stored in the registry. */
using OptimizerFactory =
    std::function<std::unique_ptr<Optimizer>(const OptimizerConfig&)>;

/** Factory building `Strategy` from the config's `Block` options, with
 *  the config's seed override applied. */
template <typename Strategy, auto Block>
OptimizerFactory
seeded_factory()
{
    return [](const OptimizerConfig& config) {
        auto options = config.*Block;
        if (config.seed != 0) {
            options.seed = config.seed;
        }
        return std::make_unique<Strategy>(std::move(options));
    };
}

/** The process-wide registry, with the built-in kinds pre-registered.
 *  Function-local static so registration order is independent of
 *  translation-unit initialization order. */
Registry<OptimizerFactory>&
optimizer_registry()
{
    static Registry<OptimizerFactory> registry(
        "optimizer kind",
        "discrete kinds also compose as "
        "\"portfolio:<kind1+kind2+...>\"",
        {
            {"bayes",
             seeded_factory<BayesOptimizer, &OptimizerConfig::bayes>()},
            {"anneal", seeded_factory<SimulatedAnnealingOptimizer,
                                      &OptimizerConfig::anneal>()},
            {"random", seeded_factory<RandomSearchOptimizer,
                                      &OptimizerConfig::random>()},
            {"tempering", seeded_factory<ParallelTempering,
                                         &OptimizerConfig::tempering>()},
            {"exhaustive",
             [](const OptimizerConfig&) {
                 return std::make_unique<ExhaustiveOptimizer>();
             }},
            {"nelder-mead",
             [](const OptimizerConfig& config) {
                 return std::make_unique<NelderMeadOptimizer>(
                     config.nelder_mead);
             }},
            {"spsa", seeded_factory<SpsaOptimizer, &OptimizerConfig::spsa>()},
        });
    return registry;
}

constexpr std::string_view kPortfolioPrefix = "portfolio:";

/** Build a `PortfolioSearch` from a "portfolio:<k1+k2+...>" key: one
 *  arm per '+'-separated discrete kind, arm i seeded `seed + i` (when
 *  a seed override is set) so a one-arm portfolio matches the bare
 *  optimizer bit for bit. */
std::unique_ptr<Optimizer>
make_portfolio_optimizer(const OptimizerConfig& config)
{
    const std::vector<std::string> kinds =
        split(config.kind.substr(kPortfolioPrefix.size()), '+');
    for (const std::string& kind : kinds) {
        CAFQA_REQUIRE(!kind.empty(),
                      "empty portfolio arm in \"" + config.kind +
                          "\": expected \"portfolio:<kind1+kind2+...>\" "
                          "over discrete kinds (" +
                          join(registered_discrete_optimizers(), ", ") +
                          "), e.g. "
                          "\"portfolio:anneal+bayes+random\"");
        CAFQA_REQUIRE(!kind.starts_with(kPortfolioPrefix),
                      "portfolio arm \"" + kind +
                          "\" in \"" + config.kind +
                          "\": portfolios cannot nest");
    }
    std::vector<PortfolioArm> arms;
    arms.reserve(kinds.size());
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        OptimizerConfig arm_config = config;
        arm_config.kind = kinds[i];
        if (config.seed != 0) {
            arm_config.seed = config.seed + i;
        }
        try {
            arms.push_back(PortfolioArm{
                kinds[i], make_discrete_optimizer(arm_config)});
        } catch (const std::exception& error) {
            CAFQA_REQUIRE(false, "portfolio arm \"" + kinds[i] +
                                     "\" in \"" + config.kind +
                                     "\": " + error.what());
        }
    }
    return std::make_unique<PortfolioSearch>(std::move(arms), config.kind);
}

template <typename Interface>
std::vector<std::string>
registered_kinds_of()
{
    std::vector<std::string> kinds;
    for (const std::string& kind : registered_optimizers()) {
        if (dynamic_cast<const Interface*>(
                make_optimizer(optimizer_config(kind)).get()) != nullptr) {
            kinds.push_back(kind);
        }
    }
    return kinds;
}

} // namespace

std::vector<std::string>
registered_optimizers()
{
    return optimizer_registry().keys();
}

std::vector<std::string>
registered_discrete_optimizers()
{
    return registered_kinds_of<DiscreteOptimizer>();
}

std::vector<std::string>
registered_continuous_optimizers()
{
    return registered_kinds_of<ContinuousOptimizer>();
}

std::unique_ptr<Optimizer>
make_optimizer(const OptimizerConfig& config)
{
    if (config.kind.starts_with(kPortfolioPrefix)) {
        return make_portfolio_optimizer(config);
    }
    std::unique_ptr<Optimizer> optimizer =
        optimizer_registry().get(config.kind)(config);
    CAFQA_ASSERT(optimizer != nullptr, "optimizer factory returned null");
    return optimizer;
}

std::unique_ptr<DiscreteOptimizer>
make_discrete_optimizer(const OptimizerConfig& config)
{
    return downcast<DiscreteOptimizer>(
        make_optimizer(config),
        "optimizer kind \"" + config.kind +
            "\" does not minimize over a discrete space");
}

std::unique_ptr<ContinuousOptimizer>
make_continuous_optimizer(const OptimizerConfig& config)
{
    return downcast<ContinuousOptimizer>(
        make_optimizer(config),
        "optimizer kind \"" + config.kind +
            "\" does not minimize from a continuous start point");
}

} // namespace cafqa
