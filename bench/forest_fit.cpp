/**
 * Random-forest refit microbench: `RandomForest::fit` at the Bayesian
 * surrogate's three paper shapes against the `std::sort` reference
 * kernel (tests/reference_forest.hpp), timed in the same run.
 *
 * Shapes are the training sets a `bayes` search refits on at its last
 * iteration: LiH (d = 16, n = 500), H6 (d = 40, n = 500) and er-32
 * MaxCut (d = 128, n = 250), quarter-turn features in {0..3}, default
 * forest options (30 trees). Before timing, each shape checks that
 * both kernels fit the same forest (node count, and `==` on every
 * training-row prediction and variance); a mismatch exits 1.
 *
 * Each round times one reference fit and one library fit back to back;
 * a shape reports the fastest of its rounds for each, which discards
 * rounds a busy host slowed down. The gated metric is the same-run
 * ratio `throughput_speedup_vs_reference` (reference time / library
 * time): both sides see the same machine, so it can be gated tightly
 * (`bench_check --tolerance 1.5`). The absolute `*_ms_per_fit` times
 * are informational; their names end in neither `_ms` nor `_us`, so
 * `bench_check` does not gate them.
 *
 * Usage: forest_fit [--json PATH]
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "../tests/reference_forest.hpp"
#include "common/rng.hpp"
#include "opt/random_forest.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

[[noreturn]] void
fail(const std::string& message)
{
    std::cerr << "forest_fit: " << message << '\n';
    std::exit(1);
}

struct Shape
{
    const char* name;
    std::size_t rows;
    std::size_t cols;
};

/** Quarter-turn training set with a sparse additive target. */
void
make_data(const Shape& shape, std::uint64_t seed,
          std::vector<std::vector<double>>& x, std::vector<double>& y)
{
    cafqa::Rng rng(seed);
    x.assign(shape.rows, std::vector<double>(shape.cols));
    y.assign(shape.rows, 0.0);
    for (std::size_t i = 0; i < shape.rows; ++i) {
        for (std::size_t f = 0; f < shape.cols; ++f) {
            x[i][f] = static_cast<double>(rng.uniform_int(0, 3));
            if (f % 4 == 0) {
                y[i] += x[i][f] == 2.0 ? -1.0 : 0.1 * x[i][f];
            }
        }
        y[i] += rng.normal(0.0, 0.05);
    }
}

double
ms_since(clock_type::time_point start)
{
    return std::chrono::duration<double, std::milli>(clock_type::now() -
                                                     start)
        .count();
}

} // namespace

int
main(int argc, char** argv)
{
    std::string json_path = "BENCH_forest.json";
    constexpr int rounds = 15;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc) {
                fail("--json requires a value");
            }
            json_path = argv[++i];
        } else {
            fail("unknown option '" + arg + "'");
        }
    }

    const Shape shapes[] = {{"lih", 500, 16}, {"h6", 500, 40},
                            {"er32", 250, 128}};
    constexpr std::uint64_t kFitSeed = 17;

    std::ostringstream json;
    json << "{\"bench\":\"forest_fit\",\"trees\":"
         << cafqa::ForestOptions{}.num_trees << ",\"rounds\":" << rounds
         << ",\"shapes\":[";
    std::cout << "shape   n    d    reference ms  library ms  speedup\n";
    bool first = true;
    for (const Shape& shape : shapes) {
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        make_data(shape, shape.cols, x, y);

        cafqa::RandomForest forest;
        cafqa::reference::RandomForest oracle;
        forest.fit(x, y, kFitSeed);
        oracle.fit(x, y, kFitSeed);
        if (forest.node_count() != oracle.node_count()) {
            fail(std::string(shape.name) + ": node counts differ");
        }
        for (const auto& row : x) {
            const cafqa::ForestPrediction got =
                forest.predict_with_variance(row);
            const cafqa::ForestPrediction want =
                oracle.predict_with_variance(row);
            if (!(got.mean == want.mean && got.variance == want.variance)) {
                fail(std::string(shape.name) +
                     ": predictions differ from the reference kernel");
            }
        }

        double best_ref = 0.0;
        double best_lib = 0.0;
        for (int r = 0; r < rounds; ++r) {
            auto start = clock_type::now();
            oracle.fit(x, y, kFitSeed + static_cast<std::uint64_t>(r));
            const double ref = ms_since(start);
            start = clock_type::now();
            forest.fit(x, y, kFitSeed + static_cast<std::uint64_t>(r));
            const double lib = ms_since(start);
            if (r == 0 || ref < best_ref) {
                best_ref = ref;
            }
            if (r == 0 || lib < best_lib) {
                best_lib = lib;
            }
        }
        const double speedup = best_ref / best_lib;
        const std::string name = shape.name;
        std::cout << name << std::string(8 - name.size(), ' ') << shape.rows << "  " << shape.cols << "  " << best_ref
                  << "  " << best_lib << "  " << speedup << "x\n";
        json << (first ? "" : ",") << "{\"shape\":\"" << shape.name
             << "\",\"rows\":" << shape.rows << ",\"cols\":" << shape.cols
             << ",\"reference_ms_per_fit\":" << best_ref
             << ",\"library_ms_per_fit\":" << best_lib
             << ",\"throughput_speedup_vs_reference\":" << speedup << "}";
        first = false;
    }
    json << "]}\n";

    std::ofstream out(json_path);
    if (!out) {
        fail("cannot write '" + json_path + "'");
    }
    out << json.str();
    return 0;
}
