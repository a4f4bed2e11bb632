/**
 * End-to-end CAFQA benchmark binary.
 *
 *   cafqa_perfbench --workload <paper_bayes|dense_tune|served_mix>
 *                   --seed N --seconds S --trace <0|1>
 *
 * Run from the root of the source tree: the golden fields are read from
 * `perfbench/golden.txt`. Prints one `name value unit` line per metric,
 * then, as the last line of standard output, one JSON object:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
 * `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
 * ones. Exits 0 only when every output matched; a mismatch still prints
 * the result, with "correct":false, and exits 1.
 *
 *   cafqa_perfbench --print-golden   regenerate the golden file
 *   cafqa_perfbench --setup-probe <solo|served>
 *                                    set up, report ready, exit (the
 *                                    child process setup_s times)
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common/text.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void
usage_error(const std::string& message)
{
    std::cerr << "cafqa_perfbench: " << message
              << "\nusage: cafqa_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-golden") {
            perfbench::print_golden(std::cout);
            return 0;
        }
        if (i + 1 >= argc) {
            usage_error(arg + " needs a value");
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--setup-probe") {
                perfbench::setup_probe(value);
                return 0;
            }
            if (arg == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") {
                    usage_error("--trace takes 0 or 1");
                }
                options.trace = value == "1";
            } else {
                usage_error("unknown option " + arg);
            }
        } catch (const std::logic_error&) {
            usage_error("bad value for " + arg + ": " + value);
        }
    }
    const auto& names = perfbench::workload_names();
    if (!have_workload ||
        std::find(names.begin(), names.end(), options.workload) ==
            names.end()) {
        usage_error("--workload must be paper_bayes, dense_tune or "
                    "served_mix");
    }

    perfbench::Result result;
    try {
        result = perfbench::run_workload(options);
    } catch (const std::exception& error) {
        std::cerr << "cafqa_perfbench: " << error.what() << '\n';
        return 1;
    }

    std::string metrics;
    for (perfbench::Metric& metric : result.metrics) {
        if (!std::isfinite(metric.value)) {
            std::cerr << "cafqa_perfbench: FAIL metric " << metric.name
                      << " is not finite\n";
            metric.value = 0.0;
            ++result.failed;
        }
        std::cout << metric.name << ' ' << cafqa::format_real(metric.value)
                  << ' ' << metric.unit << '\n';
        metrics += (metrics.empty() ? "" : ",") +
                   cafqa::json_quote(metric.name) +
                   ":{\"value\":" + cafqa::format_real(metric.value) +
                   ",\"unit\":" + cafqa::json_quote(metric.unit) + "}";
    }
    const bool correct = result.failed == 0;
    const std::size_t attempted = std::max<std::size_t>(result.attempted, 1);
    std::cout << "failed_ratio "
              << cafqa::format_real(static_cast<double>(result.failed) /
                                    static_cast<double>(attempted))
              << " ratio\n";
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << result.attempted
              << ",\"failed\":" << result.failed << ",\"metrics\":{"
              << metrics << "}}" << std::endl;
    return correct ? 0 : 1;
}
