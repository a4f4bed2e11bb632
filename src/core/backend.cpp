#include "core/backend.hpp"

#include "common/registry.hpp"

namespace cafqa {

std::vector<double>
Backend::expectations(std::span<const PauliSum> ops) const
{
    std::vector<double> values;
    values.reserve(ops.size());
    for (const PauliSum& op : ops) {
        values.push_back(expectation(op));
    }
    return values;
}

std::vector<double>
DiscreteBackend::expectation_batch(
    const std::vector<std::vector<int>>& candidates, const PauliSum& op)
{
    std::vector<double> values;
    values.reserve(candidates.size());
    for (const auto& steps : candidates) {
        prepare(steps);
        values.push_back(expectation(op));
    }
    return values;
}

std::unique_ptr<DiscreteBackend>
DiscreteBackend::clone_discrete() const
{
    return downcast<DiscreteBackend>(
        clone(), "DiscreteBackend::clone returned a non-discrete backend");
}

std::vector<double>
ContinuousBackend::expectation_batch(
    const std::vector<std::vector<double>>& candidates, const PauliSum& op)
{
    std::vector<double> values;
    values.reserve(candidates.size());
    for (const auto& params : candidates) {
        prepare(params);
        values.push_back(expectation(op));
    }
    return values;
}

std::unique_ptr<ContinuousBackend>
ContinuousBackend::clone_continuous() const
{
    return downcast<ContinuousBackend>(
        clone(),
        "ContinuousBackend::clone returned a non-continuous backend");
}

} // namespace cafqa
