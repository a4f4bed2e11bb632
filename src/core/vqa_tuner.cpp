#include "core/vqa_tuner.hpp"

#include <algorithm>

namespace cafqa {

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

} // namespace cafqa
