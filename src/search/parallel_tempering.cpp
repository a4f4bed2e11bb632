#include "search/parallel_tempering.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "opt/discrete_sampling.hpp"

namespace cafqa {

namespace {

/** Temperature of the hottest replica (exploration). */
constexpr double kMaxTemperature = 1.0;
/** Sweeps between replica-exchange rounds. */
constexpr std::size_t kSwapInterval = 2;

/** One replica: current state, its value, and a private RNG. */
struct Replica
{
    std::vector<int> config;
    double value = 0.0;
    Rng rng;

    explicit Replica(std::uint64_t seed) : rng(seed) {}
};

} // namespace

ParallelTempering::ParallelTempering(TemperingOptions options)
    : options_(options)
{
}

OptimizeOutcome
ParallelTempering::minimize(const DiscreteObjective& objective,
                            const DiscreteSpace& space,
                            const StoppingCriteria& criteria,
                            const SearchContext& context)
{
    validate_space(space);
    validate_seed_configs(context.seed_configs, space);
    const TemperingOptions& options = options_;
    CAFQA_REQUIRE(options.replicas >= 1, "need at least one replica");
    CAFQA_REQUIRE(options.sweeps >= 1, "need at least one sweep");
    CAFQA_REQUIRE(options.min_temperature > 0.0 &&
                      kMaxTemperature >= options.min_temperature,
                  "temperature ladder must satisfy 0 < min <= 1");

    const std::size_t replicas = options.replicas;
    // Geometric ladder: replica 0 coldest (exploitation), last hottest.
    std::vector<double> temperature(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
        const double t = replicas > 1
            ? static_cast<double>(r) / static_cast<double>(replicas - 1)
            : 0.0;
        temperature[r] =
            options.min_temperature *
            std::pow(kMaxTemperature / options.min_temperature, t);
    }

    // One private RNG per replica plus a dedicated swap RNG: the swap
    // schedule consumes randomness independently of the proposal
    // streams, so results do not depend on evaluation interleaving.
    Rng swap_rng(options.seed);
    std::vector<Replica> population;
    population.reserve(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
        population.emplace_back(options.seed + 1 + r);
    }

    // Each sweep costs `replicas` evaluations, so a criteria budget is
    // a sweep count (like annealing's iterations): run enough sweeps
    // that the recorder's cap fires exactly, else the options' own.
    std::size_t sweeps = options.sweeps;
    if (criteria.max_evaluations > 0) {
        sweeps = criteria.max_evaluations / replicas + 2;
    }

    OutcomeRecorder recorder(criteria, criteria.max_evaluations,
                             context.progress);
    try {
        // Prior injection: evaluate the seeds first; the best becomes
        // every replica's starting state (their RNGs diverge from the
        // first proposal on).
        std::vector<int> start;
        double start_value = 0.0;
        if (!context.seed_configs.empty()) {
            const std::vector<double> values = record_block(
                context.seed_configs, objective, context, recorder);
            for (std::size_t i = 0; i < context.seed_configs.size(); ++i) {
                if (start.empty() || values[i] < start_value) {
                    start = context.seed_configs[i];
                    start_value = values[i];
                }
            }
            for (Replica& replica : population) {
                replica.config = start;
                replica.value = start_value;
            }
        } else {
            // No seeds: one random start per replica, evaluated as the
            // first block (recorded in replica order).
            std::vector<std::vector<int>> starts;
            starts.reserve(replicas);
            for (Replica& replica : population) {
                starts.push_back(random_config(space, replica.rng));
            }
            const std::vector<double> values =
                record_block(starts, objective, context, recorder);
            for (std::size_t r = 0; r < replicas; ++r) {
                population[r].config = starts[r];
                population[r].value = values[r];
            }
        }

        for (std::size_t sweep = 1; sweep < sweeps; ++sweep) {
            // Propose one mutation per replica (RNG draws in replica
            // order), then evaluate and record the block in the same
            // order — the batched and serial paths share one recorded
            // trajectory.
            std::vector<std::vector<int>> proposals;
            proposals.reserve(replicas);
            for (Replica& replica : population) {
                std::vector<int> proposal = replica.config;
                for (std::size_t m = 0; m < options.mutations_per_step;
                     ++m) {
                    const auto pos = static_cast<std::size_t>(
                        replica.rng.uniform_int(
                            0,
                            static_cast<std::int64_t>(proposal.size()) -
                                1));
                    proposal[pos] = static_cast<int>(replica.rng.uniform_int(
                        0, space.cardinalities[pos] - 1));
                }
                proposals.push_back(std::move(proposal));
            }
            const std::vector<double> values =
                record_block(proposals, objective, context, recorder);

            // Metropolis accept per replica at its own temperature.
            for (std::size_t r = 0; r < replicas; ++r) {
                Replica& replica = population[r];
                const double delta = values[r] - replica.value;
                if (delta <= 0.0 ||
                    replica.rng.uniform_real() <
                        std::exp(-delta / temperature[r])) {
                    replica.config = std::move(proposals[r]);
                    replica.value = values[r];
                }
            }

            // Replica-exchange round: adjacent pairs, alternating
            // even/odd pairing per round. The acceptance draw is
            // consumed for every considered pair, so the schedule is a
            // pure function of the seed.
            if (sweep % kSwapInterval == 0 && replicas > 1) {
                const std::size_t first = (sweep / kSwapInterval) % 2;
                for (std::size_t i = first; i + 1 < replicas; i += 2) {
                    Replica& cold = population[i];
                    Replica& hot = population[i + 1];
                    const double exponent =
                        (1.0 / temperature[i] - 1.0 / temperature[i + 1]) *
                        (cold.value - hot.value);
                    const double draw = swap_rng.uniform_real();
                    if (exponent >= 0.0 || draw < std::exp(exponent)) {
                        std::swap(cold.config, hot.config);
                        std::swap(cold.value, hot.value);
                    }
                }
            }
        }
    } catch (const OutcomeRecorder::EarlyStop&) {
        // A stopping criterion fired; the recorder holds the reason.
    }

    return recorder.finish(StopReason::BudgetExhausted);
}

} // namespace cafqa
