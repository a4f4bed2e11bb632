#include "opt/optimizer.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "opt/discrete_sampling.hpp"

namespace cafqa {

namespace {

/** Improvement below this does not reset the patience window. */
constexpr double kMinImprovement = 1e-12;

} // namespace

double
DiscreteSpace::log10_size() const
{
    double total = 0.0;
    for (const int c : cardinalities) {
        total += std::log10(static_cast<double>(c));
    }
    return total;
}

std::vector<int>
random_config(const DiscreteSpace& space, Rng& rng)
{
    std::vector<int> config(space.num_parameters());
    for (std::size_t i = 0; i < config.size(); ++i) {
        config[i] =
            static_cast<int>(rng.uniform_int(0, space.cardinalities[i] - 1));
    }
    return config;
}

std::string_view
to_string(StopReason reason)
{
    switch (reason) {
      case StopReason::BudgetExhausted:
        return "budget";
      case StopReason::TargetReached:
        return "target";
      case StopReason::Stalled:
        return "stalled";
      case StopReason::Converged:
        return "converged";
      case StopReason::SpaceExhausted:
        return "space-exhausted";
      case StopReason::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

OutcomeRecorder::OutcomeRecorder(const StoppingCriteria& criteria,
                                 std::size_t max_evaluations,
                                 ProgressCallback progress)
    : criteria_(criteria),
      max_evaluations_(max_evaluations),
      progress_(std::move(progress))
{
}

std::size_t
OutcomeRecorder::remaining_budget() const
{
    if (max_evaluations_ == 0) {
        return std::numeric_limits<std::size_t>::max();
    }
    return max_evaluations_ > outcome_.evaluations
        ? max_evaluations_ - outcome_.evaluations
        : 0;
}

bool
OutcomeRecorder::has_budget(std::size_t upcoming) const
{
    return max_evaluations_ == 0 ||
           outcome_.evaluations + upcoming <= max_evaluations_;
}

void
OutcomeRecorder::record(const std::vector<int>& config, double value)
{
    ++outcome_.evaluations;
    const bool improved =
        outcome_.history.empty() || value < outcome_.best_value;
    if (improved) {
        outcome_.best_config = config;
    }
    after_record(value, improved);
}

void
OutcomeRecorder::record(const std::vector<double>& x, double value)
{
    ++outcome_.evaluations;
    const bool improved =
        outcome_.history.empty() || value < outcome_.best_value;
    if (improved) {
        outcome_.best_x = x;
    }
    after_record(value, improved);
}

void
OutcomeRecorder::after_record(double value, bool improved)
{
    outcome_.history.push_back(value);
    if (improved) {
        outcome_.best_value = value;
        outcome_.best_trace.push_back(value);
        outcome_.evaluations_to_best = outcome_.history.size();
    } else {
        outcome_.best_trace.push_back(outcome_.best_trace.back());
    }
    // Patience counts recorded evaluations since the last *meaningful*
    // improvement (tiny jitter below kMinImprovement does not reset it).
    if (outcome_.history.size() == 1 ||
        (improved &&
         outcome_.best_trace[outcome_.best_trace.size() - 2] - value >=
             kMinImprovement)) {
        since_improvement_ = 0;
    } else {
        ++since_improvement_;
    }
    if (progress_) {
        progress_(outcome_.history.size(), outcome_.best_value);
    }

    // Criteria checks, most informative reason first. Cancellation wins
    // over everything: the caller asked for the run to end, and any
    // other reason would misreport a truncated search as complete.
    if (criteria_.cancel && criteria_.cancel->load(std::memory_order_relaxed)) {
        stopped_ = StopReason::Cancelled;
        throw EarlyStop{};
    }
    if (criteria_.target_value.has_value() &&
        outcome_.best_value <= *criteria_.target_value) {
        stopped_ = StopReason::TargetReached;
        throw EarlyStop{};
    }
    if (max_evaluations_ > 0 && outcome_.evaluations >= max_evaluations_) {
        stopped_ = StopReason::BudgetExhausted;
        throw EarlyStop{};
    }
    if (criteria_.patience > 0 && since_improvement_ >= criteria_.patience) {
        stopped_ = StopReason::Stalled;
        throw EarlyStop{};
    }
}

OptimizeOutcome
OutcomeRecorder::finish(StopReason reason)
{
    CAFQA_ASSERT(!outcome_.history.empty(), "no evaluations recorded");
    outcome_.stop_reason = stopped_.value_or(reason);
    return std::move(outcome_);
}

std::vector<double>
record_block(const std::vector<std::vector<int>>& block,
             const DiscreteObjective& objective, const SearchContext& context,
             OutcomeRecorder& recorder)
{
    std::vector<double> values;
    if (context.batch) {
        values = context.batch(block);
        CAFQA_REQUIRE(values.size() == block.size(),
                      "batch evaluator returned wrong value count");
        for (std::size_t i = 0; i < block.size(); ++i) {
            recorder.record(block[i], values[i]);
        }
        return values;
    }
    values.reserve(block.size());
    for (const auto& config : block) {
        values.push_back(objective(config));
        recorder.record(config, values.back());
    }
    return values;
}

void
validate_space(const DiscreteSpace& space)
{
    CAFQA_REQUIRE(space.num_parameters() > 0, "empty search space");
    for (const int c : space.cardinalities) {
        CAFQA_REQUIRE(c >= 1, "parameter cardinality must be positive");
    }
}

void
validate_seed_configs(const std::vector<std::vector<int>>& seed_configs,
                      const DiscreteSpace& space)
{
    for (const auto& config : seed_configs) {
        CAFQA_REQUIRE(config.size() == space.num_parameters(),
                      "seed configuration has wrong parameter count");
        for (std::size_t i = 0; i < config.size(); ++i) {
            CAFQA_REQUIRE(config[i] >= 0 &&
                              config[i] < space.cardinalities[i],
                          "seed configuration value out of range");
        }
    }
}

} // namespace cafqa
