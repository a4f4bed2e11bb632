// Shared test helper: certify a Clifford optimum by full enumeration.

#ifndef CAFQA_TESTS_EXHAUSTIVE_SEARCH_HPP
#define CAFQA_TESTS_EXHAUSTIVE_SEARCH_HPP

#include "core/pipeline.hpp"

namespace cafqa {

/** Ascending scan of all 4^n step assignments of `ansatz` (coordinate 0
 *  fastest), fanned out over `threads` workers (0 = the hardware). The
 *  budget sits one above the space size, so the scan always completes
 *  with `StopReason::SpaceExhausted`. */
inline CafqaResult
exhaustive_search(const Circuit& ansatz, const VqaObjective& objective,
                  std::size_t threads = 0)
{
    const std::size_t space = std::size_t{1} << (2 * ansatz.num_params());
    return CafqaPipeline({.ansatz = ansatz,
                          .objective = objective,
                          .search = {.warmup = 0, .iterations = space + 1},
                          .threads = threads,
                          .search_optimizer = "exhaustive"})
        .run_clifford_search();
}

} // namespace cafqa

#endif // CAFQA_TESTS_EXHAUSTIVE_SEARCH_HPP
