#include "opt/optimizer.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "opt/discrete_sampling.hpp"

namespace cafqa {

namespace {

/** Order-dependent hash of a continuous point. With a resolution it
 *  quantizes exactly like the evaluation cache's keys (so "unique"
 *  matches "cache miss"); at 0 only bit-identical vectors dedupe. */
std::size_t
point_hash(const std::vector<double>& x, double resolution)
{
    std::size_t h = kHashSeed;
    for (const double v : x) {
        h = hash_mix(h, resolution > 0.0
                            ? static_cast<std::uint64_t>(
                                  quantize_coordinate(v, resolution))
                            : std::bit_cast<std::uint64_t>(v));
    }
    return h;
}

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
      case StopReason::TimeExpired:
        return "time";
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
      progress_(std::move(progress)),
      start_(std::chrono::steady_clock::now())
{
}

std::size_t
OutcomeRecorder::budget_consumed() const
{
    // Under unique-evaluation accounting, repeats of recorded points are
    // free; unrecorded probes (count_evaluation) always consume budget.
    return criteria_.unique_evaluations
        ? outcome_.unique_evaluations + probe_evaluations_
        : outcome_.evaluations;
}

std::size_t
OutcomeRecorder::remaining_budget() const
{
    if (max_evaluations_ == 0) {
        return std::numeric_limits<std::size_t>::max();
    }
    const std::size_t consumed = budget_consumed();
    return max_evaluations_ > consumed ? max_evaluations_ - consumed : 0;
}

bool
OutcomeRecorder::has_budget(std::size_t upcoming) const
{
    return max_evaluations_ == 0 ||
           budget_consumed() + upcoming <= max_evaluations_;
}

void
OutcomeRecorder::note_point(std::size_t point_hash)
{
    if (seen_points_.insert(point_hash).second) {
        ++outcome_.unique_evaluations;
    }
}

void
OutcomeRecorder::record(const std::vector<int>& config, double value)
{
    ++outcome_.evaluations;
    // The default path skips the set entirely — an exhaustive
    // enumeration would otherwise pay one set node per configuration
    // for a disabled feature.
    if (criteria_.unique_evaluations &&
        seen_configs_.insert(config).second) {
        ++outcome_.unique_evaluations;
    }
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
    if (criteria_.unique_evaluations) {
        note_point(point_hash(x, criteria_.unique_resolution));
    }
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
    // improvement (tiny jitter below min_improvement does not reset it).
    if (outcome_.history.size() == 1 ||
        (improved &&
         outcome_.best_trace[outcome_.best_trace.size() - 2] - value >=
             criteria_.min_improvement)) {
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
    if (max_evaluations_ > 0 && budget_consumed() >= max_evaluations_) {
        stopped_ = StopReason::BudgetExhausted;
        throw EarlyStop{};
    }
    if (criteria_.patience > 0 && since_improvement_ >= criteria_.patience) {
        stopped_ = StopReason::Stalled;
        throw EarlyStop{};
    }
    if (criteria_.max_seconds > 0.0) {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start_;
        if (elapsed.count() >= criteria_.max_seconds) {
            stopped_ = StopReason::TimeExpired;
            throw EarlyStop{};
        }
    }
}

OptimizeOutcome
OutcomeRecorder::finish(StopReason reason)
{
    CAFQA_ASSERT(!outcome_.history.empty(), "no evaluations recorded");
    outcome_.stop_reason = stopped_.value_or(reason);
    return std::move(outcome_);
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
