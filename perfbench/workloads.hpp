/**
 * @file
 * The benchmark's workloads and the metrics they report. See
 * `perfbench/README.md` for what each workload exercises, which layer
 * metric should move which end-to-end metric, and why.
 */
#ifndef CAFQA_PERFBENCH_WORKLOADS_HPP
#define CAFQA_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 1.0;
    /** false: the end-to-end metrics; true: the per-layer metrics. */
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string>& workload_names();

/** Run one workload. Mismatches and failed operations are counted in
 *  `Result::failed` (and described on stderr), never thrown. */
Result run_workload(const Options& options);

/** What a process pays before its first spec can run: the backend,
 *  problem and optimizer registries and a two-worker pool, plus, for
 *  `kind` "served", a started job server with its client connections.
 *  Prints one newline when ready, then tears down. The body of the
 *  `--setup-probe <solo|served>` child that `setup_s` times. */
void setup_probe(const std::string& kind);

/** The committed golden fields of the solo specs, relative to the
 *  source tree root. */
inline constexpr const char* kGoldenPath = "perfbench/golden.txt";

/** Print the golden lines of every solo spec, in the format
 *  `kGoldenPath` holds (regenerates the committed file). */
void print_golden(std::ostream& out);

} // namespace perfbench

#endif // CAFQA_PERFBENCH_WORKLOADS_HPP
