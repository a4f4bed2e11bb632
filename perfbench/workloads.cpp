#include "workloads.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/text.hpp"
#include "common/thread_pool.hpp"
#include "core/backend_registry.hpp"
#include "core/batch_runner.hpp"
#include "opt/optimizer_registry.hpp"
#include "problems/problem.hpp"
#include "server/client.hpp"
#include "server/job_server.hpp"
#include "telemetry/metrics.hpp"
#include "timed_backend.hpp"

extern char** environ;

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;
using cafqa::RunRecord;
using cafqa::RunSpec;

double
ms_between(clock_type::time_point a, clock_type::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Linear-interpolated quantile (q in [0, 1]) of `values`. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto below = static_cast<std::size_t>(std::floor(position));
    const std::size_t above = std::min(below + 1, values.size() - 1);
    const double fraction = position - static_cast<double>(below);
    return values[below] + fraction * (values[above] - values[below]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
mean(const std::vector<double>& values)
{
    double sum = 0.0;
    for (const double value : values) {
        sum += value;
    }
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Attempted operations and the failures among them; every failure is
 *  described on stderr. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    fail(const std::string& why)
    {
        ++failed;
        std::cerr << "perfbench: FAIL " + why + "\n"; // one write per line
    }
};

// ------------------------------------------------------------ solo specs

/** `search=bayes` (the paper's default, warm-up 200 / 300 iterations):
 *  random-forest refits take nearly all of the time. */
const std::vector<std::string> kPaperBayes = {
    "problem=molecule:LiH?bond=2.4 threads=2",
    "problem=molecule:H6 threads=2",
    "problem=maxcut:er-32?p=0.2 warmup=100 iterations=150 exact=0 "
    "threads=2",
};

/** `search=anneal`, so the surrogate does nearly nothing: the
 *  continuous backends and the Lanczos solve hold the time. */
const std::vector<std::string> kDenseTune = {
    "problem=molecule:H2O search=anneal tune=100 threads=2",
    "problem=tfim:chain-8 search=anneal exact=0 tune=20 "
    "tune-backend=density threads=2",
    "problem=molecule:H6 search=anneal exact=0 tune=8 "
    "tune-backend=sampled threads=2",
};

std::vector<RunSpec>
solo_specs(const std::string& workload)
{
    const auto& texts = workload == "paper_bayes" ? kPaperBayes : kDenseTune;
    std::vector<RunSpec> specs;
    for (const std::string& text : texts) {
        specs.push_back(RunSpec::parse(text));
    }
    return specs;
}

/** The deterministic fields of a run, each printed exactly (shortest
 *  round-trip decimal): equal text means bit-identical values. */
struct Fields
{
    double best_objective = 0.0;
    double cafqa_energy = 0.0;
    std::optional<double> tuned_value;
    std::optional<double> exact_energy;
    std::size_t evaluations = 0;
    std::vector<int> best_steps;

    std::string
    to_string() const
    {
        const auto optional = [](const std::optional<double>& value) {
            return value ? cafqa::format_real(*value) : std::string("-");
        };
        std::string steps;
        for (const int step : best_steps) {
            steps += (steps.empty() ? "" : ",") + std::to_string(step);
        }
        return "best_objective=" + cafqa::format_real(best_objective) +
               " cafqa_energy=" + cafqa::format_real(cafqa_energy) +
               " tuned_value=" + optional(tuned_value) +
               " exact_energy=" + optional(exact_energy) +
               " evaluations=" + std::to_string(evaluations) +
               " best_steps=" + steps;
    }

    /** Final energy (tuned when tuned) minus exact, in mHa. */
    std::optional<double>
    error_mha() const
    {
        if (!exact_energy) {
            return std::nullopt;
        }
        return (tuned_value.value_or(cafqa_energy) - *exact_energy) * 1e3;
    }
};

Fields
fields_of(const RunRecord& record)
{
    return Fields{record.best_objective, record.cafqa_energy,
                  record.tuned_value,    record.exact_energy,
                  record.evaluations,    record.best_steps};
}

/** Mean of `Fields::error_mha` over the runs that have an exact energy
 *  (0 when none has). */
double
mean_error_mha(const std::vector<Fields>& runs)
{
    double sum = 0.0;
    std::size_t count = 0;
    for (const Fields& fields : runs) {
        if (const auto error = fields.error_mha()) {
            sum += *error;
            ++count;
        }
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/** Golden file: `<canonical spec text>\t<Fields::to_string()>` lines;
 *  '#' starts a comment line. */
std::map<std::string, std::string>
load_golden(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read golden file \"" + path + "\"");
    }
    std::map<std::string, std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos) {
            throw std::runtime_error("malformed golden line: " + line);
        }
        golden[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return golden;
}

void
check_fields(Tally& tally, const std::string& what, const std::string& want,
             const Fields& got)
{
    if (got.to_string() != want) {
        tally.fail(what + "\n  want: " + want + "\n  got:  " + got.to_string());
    }
}

// ------------------------------------------------------- traced execution

/** Per-layer totals of one traced pass, measured around the calls into
 *  each layer (the backend clocks hold the rest). */
struct LayerTotals
{
    double build_ms = 0.0;
    double exact_ms = 0.0;
    double clifford_search_ms = 0.0;
    double t_boost_ms = 0.0;
    double vqa_tune_ms = 0.0;
    /** Problem key -> (Hamiltonian terms, distinct X masks). */
    std::map<std::string, std::pair<std::size_t, std::size_t>> pauli;

    double
    attributed_ms() const
    {
        return build_ms + exact_ms + clifford_search_ms + t_boost_ms +
               vqa_tune_ms;
    }

    void
    add(const LayerTotals& other)
    {
        build_ms += other.build_ms;
        exact_ms += other.exact_ms;
        clifford_search_ms += other.clifford_search_ms;
        t_boost_ms += other.t_boost_ms;
        vqa_tune_ms += other.vqa_tune_ms;
        pauli.insert(other.pauli.begin(), other.pauli.end());
    }
};

/**
 * `execute_run_spec` taken apart so each layer can be timed: the config
 * comes from `make_pipeline_config`, with the discrete and continuous
 * backends swapped for their timed kinds. Returns the same deterministic
 * fields the untimed run records.
 */
Fields
run_traced(const RunSpec& spec, LayerTotals& totals)
{
    auto start = clock_type::now();
    const cafqa::problems::Problem problem =
        cafqa::problems::make_problem(spec.problem);
    totals.build_ms += ms_between(start, clock_type::now());

    if (totals.pauli.count(problem.key) == 0) {
        std::set<std::vector<std::uint64_t>> x_masks;
        for (const cafqa::PauliTerm& term : problem.hamiltonian().terms()) {
            x_masks.insert(term.string.x_words());
        }
        totals.pauli[problem.key] = {problem.hamiltonian().num_terms(),
                                     x_masks.size()};
    }

    cafqa::PipelineConfig config = cafqa::make_pipeline_config(spec, problem);
    config.search_backend = "timed:" + config.search_backend;
    const std::string tune_kind =
        !config.tuner.backend.empty() ? config.tuner.backend
        : config.tuner.noise.enabled() ? "density"
                                       : "statevector";
    config.tuner.backend = "timed:" + tune_kind;

    cafqa::CafqaPipeline pipeline(std::move(config));
    pipeline.set_observer([&totals](const cafqa::PipelineEvent& event) {
        if (event.event != cafqa::PipelineEvent::Kind::StageEnd) {
            return;
        }
        if (event.stage == "clifford_search") {
            totals.clifford_search_ms += event.stage_ms;
        } else if (event.stage == "t_boost") {
            totals.t_boost_ms += event.stage_ms;
        } else if (event.stage == "vqa_tune") {
            totals.vqa_tune_ms += event.stage_ms;
        }
    });

    Fields fields;
    pipeline.run_clifford_search();
    if (spec.max_t > 0) {
        pipeline.run_t_boost(spec.max_t);
    }
    if (spec.tune > 0) {
        fields.tuned_value = pipeline.run_vqa_tune().final_value;
    }
    fields.best_objective = pipeline.t_boost_done()
                                ? pipeline.t_boost_result().best_objective
                                : pipeline.clifford_result().best_objective;
    fields.cafqa_energy = pipeline.best_energy();
    fields.best_steps = pipeline.best_steps();
    fields.evaluations = pipeline.clifford_result().history.size();
    if (spec.exact) {
        start = clock_type::now();
        fields.exact_energy = problem.exact_energy();
        totals.exact_ms += ms_between(start, clock_type::now());
    }
    return fields;
}

struct CopyBandwidth
{
    double gbs = 0.0;
    /** As the C library reports it (0 when unknown). */
    std::size_t llc_bytes = 0;
    /** Size of each of the two arrays. */
    std::size_t array_bytes = 0;
};

/**
 * Single-threaded STREAM-style copy (b[i] = a[i]; 16 bytes moved per
 * element, write-allocate not counted), best of five sweeps. The arrays
 * are 4x the last-level cache, clamped to [64 MiB, 512 MiB] each so the
 * benchmark stays small on hosts that report a very large shared cache.
 */
CopyBandwidth
measure_copy_bandwidth()
{
    CopyBandwidth result;
    const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    result.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : 0;
    result.array_bytes = std::clamp<std::size_t>(
        4 * result.llc_bytes, std::size_t{64} << 20, std::size_t{512} << 20);
    const std::size_t n = result.array_bytes / sizeof(double);
    std::vector<double> a(n, 1.0);
    std::vector<double> b(n, 0.0);
    double best_s = std::numeric_limits<double>::infinity();
    for (std::size_t sweep = 0; sweep < 5; ++sweep) {
        const auto start = clock_type::now();
        std::copy(a.begin(), a.end(), b.begin());
        best_s = std::min(best_s, ms_between(start, clock_type::now()) / 1e3);
        a[sweep] += b[n - 1 - sweep]; // the next sweep copies new data
    }
    result.gbs = 2.0 * static_cast<double>(result.array_bytes) / best_s / 1e9;
    std::cout << "copy bandwidth: 2 arrays of " << result.array_bytes
              << " B, last-level cache " << result.llc_bytes << " B\n";
    return result;
}

/** Client-observed protocol timings of the served jobs. */
struct ServerLayer
{
    /** Submit to `result`. */
    std::vector<double> job_ms;
    std::vector<double> admit_ms;
    std::vector<double> queue_ms;
    std::vector<double> exec_ms;
    cafqa::CacheStats cache;
};

double
eval_us_mean(const LayerClock& clock)
{
    const std::uint64_t evals = clock.evals.load();
    return evals == 0 ? 0.0 : clock.eval_ms() * 1e3 / static_cast<double>(evals);
}

/**
 * The per-layer metrics, in BENCHMARK.json order. `traced_pass_ms` and
 * `untraced_pass_ms` time the same spec list with and without the
 * timing decorators. A layer this workload never reaches reads 0.
 */
std::vector<Metric>
layer_metrics(const LayerTotals& totals, double traced_pass_ms,
              double untraced_pass_ms, const CopyBandwidth& copy,
              const ServerLayer& server)
{
    const LayerClock& stabilizer = layer_clock("clifford");
    const LayerClock& statevector = layer_clock("statevector");
    const LayerClock& density = layer_clock("density");
    const LayerClock& sampled = layer_clock("sampled");

    const double search_self_ms =
        totals.clifford_search_ms - stabilizer.eval_ms();
    const double tune_self_ms = totals.vqa_tune_ms -
                                (statevector.eval_ms() + density.eval_ms() +
                                 sampled.eval_ms());
    // Bytes the statevector measurement sweeps, as computed from the
    // operator shape (terms x 2^n amplitudes x 16 B); not a hardware
    // counter.
    const double statevector_gbs =
        statevector.measure_ns.load() == 0
            ? 0.0
            : 16.0 * static_cast<double>(statevector.amplitudes_swept.load()) /
                  static_cast<double>(statevector.measure_ns.load());
    std::size_t terms = 0;
    std::size_t x_masks = 0;
    for (const auto& [key, counts] : totals.pauli) {
        terms += counts.first;
        x_masks += counts.second;
    }
    const std::size_t lookups = server.cache.hits + server.cache.misses;
    const double unattributed_share =
        (traced_pass_ms - totals.attributed_ms()) / traced_pass_ms;

    const auto count = [](std::uint64_t value) {
        return static_cast<double>(value);
    };
    return {
        {"opt.search_self_ms", search_self_ms, "ms"},
        {"opt.search_self_share", search_self_ms / traced_pass_ms, "ratio"},
        {"opt.tune_self_ms", tune_self_ms, "ms"},
        {"pipeline.clifford_search_ms", totals.clifford_search_ms, "ms"},
        {"pipeline.vqa_tune_ms", totals.vqa_tune_ms, "ms"},
        {"problems.build_ms", totals.build_ms, "ms"},
        {"lanczos.exact_ms", totals.exact_ms, "ms"},
        {"stabilizer.evals", count(stabilizer.evals.load()), "count"},
        {"stabilizer.eval_ms", stabilizer.eval_ms(), "ms"},
        {"stabilizer.eval_us_mean", eval_us_mean(stabilizer), "us"},
        {"statevector.evals", count(statevector.evals.load()), "count"},
        {"statevector.eval_ms", statevector.eval_ms(), "ms"},
        {"density.evals", count(density.evals.load()), "count"},
        {"density.eval_ms", density.eval_ms(), "ms"},
        {"sampled.evals", count(sampled.evals.load()), "count"},
        {"sampled.eval_ms", sampled.eval_ms(), "ms"},
        {"pauli.terms", count(terms), "count"},
        {"pauli.x_masks", count(x_masks), "count"},
        {"dense.gbs_computed", statevector_gbs, "GB/s"},
        {"machine.copy_gbs", copy.gbs, "GB/s"},
        {"dense.copy_ratio", statevector_gbs / copy.gbs, "ratio"},
        {"cache.lookups", count(lookups), "count"},
        {"cache.hit_ratio", server.cache.hit_rate(), "ratio"},
        {"cache.entries", count(server.cache.entries), "count"},
        {"cache.evictions", count(server.cache.evictions), "count"},
        {"server.job_ms_p50", quantile(server.job_ms, 0.5), "ms"},
        {"server.job_ms_p95", quantile(server.job_ms, 0.95), "ms"},
        {"server.admit_ms_p50", quantile(server.admit_ms, 0.5), "ms"},
        {"server.queue_ms_p50", quantile(server.queue_ms, 0.5), "ms"},
        {"server.queue_ms_p95", quantile(server.queue_ms, 0.95), "ms"},
        {"server.exec_ms_p50", quantile(server.exec_ms, 0.5), "ms"},
        {"server.exec_ms_p95", quantile(server.exec_ms, 0.95), "ms"},
        {"trace.pass_s", traced_pass_ms / 1e3, "s"},
        {"trace.overhead_ratio", traced_pass_ms / untraced_pass_ms, "ratio"},
        {"trace.unattributed_share", unattributed_share, "ratio"},
    };
}

/** Layers must account for the traced pass to within this share; the
 *  rest is record assembly and pipeline construction. */
constexpr double kAttributionTolerance = 0.05;

void
check_attribution(Tally& tally, const LayerTotals& totals, double pass_ms)
{
    const double unattributed = pass_ms - totals.attributed_ms();
    if (std::abs(unattributed) > kAttributionTolerance * pass_ms) {
        tally.fail("layers account for " +
                   cafqa::format_real(totals.attributed_ms()) + " ms of a " +
                   cafqa::format_real(pass_ms) + " ms traced pass (tolerance " +
                   cafqa::format_real(kAttributionTolerance * 100) + "%)");
    }
}

// ------------------------------------------------------- served stack

constexpr std::size_t kClients = 2;

cafqa::server::ServerOptions
served_options()
{
    cafqa::server::ServerOptions options;
    options.workers = 2;
    options.run_threads = 1;
    return options;
}

/** A started server with its client connections. */
struct ServedStack
{
    std::unique_ptr<cafqa::server::JobServer> server;
    std::vector<cafqa::server::BlockingClient> clients;

    void
    stop()
    {
        clients.clear();
        server->shutdown(true);
        server->wait();
    }
};

ServedStack
start_served_stack()
{
    ServedStack stack;
    stack.server =
        std::make_unique<cafqa::server::JobServer>(served_options());
    stack.server->start();
    for (std::size_t i = 0; i < kClients; ++i) {
        stack.clients.push_back(cafqa::server::BlockingClient::connect_tcp(
            "127.0.0.1", stack.server->port()));
    }
    return stack;
}

/**
 * One traced pass over `specs`, paired spec by spec with an untraced
 * `execute_run_spec` of the same spec. The order alternates from spec to
 * spec, so a machine that speeds up or slows down during the pass moves
 * both sides alike and `trace.overhead_ratio` compares like with like.
 * Each traced run must reproduce its untraced twin's fields. `lanes`
 * threads share the specs round-robin; the times are sums over the
 * specs' runs.
 */
struct PairedPass
{
    LayerTotals totals;
    double traced_ms = 0.0;
    double untraced_ms = 0.0;
    /** The untraced records, by spec (empty where the run threw). */
    std::vector<std::optional<RunRecord>> records;
};

PairedPass
paired_pass(const std::vector<RunSpec>& specs, Tally& tally,
            std::size_t lanes)
{
    register_timed_backends();
    reset_layer_clocks();
    std::vector<PairedPass> lane_passes(lanes);
    std::vector<Tally> lane_tallies(lanes);
    std::vector<std::optional<RunRecord>> records(specs.size());
    const auto run_lane = [&](std::size_t lane) {
        PairedPass& pass = lane_passes[lane];
        Tally& lane_tally = lane_tallies[lane];
        for (std::size_t i = lane, k = 0; i < specs.size(); i += lanes, ++k) {
            std::optional<Fields> traced_fields;
            for (const bool traced : {k % 2 == 1, k % 2 == 0}) {
                ++lane_tally.attempted;
                const auto start = clock_type::now();
                try {
                    if (traced) {
                        traced_fields = run_traced(specs[i], pass.totals);
                        pass.traced_ms += ms_between(start, clock_type::now());
                    } else {
                        records[i] = cafqa::execute_run_spec(specs[i]);
                        pass.untraced_ms +=
                            ms_between(start, clock_type::now());
                    }
                } catch (const std::exception& error) {
                    lane_tally.fail((traced ? "traced " : "") +
                                    specs[i].to_string() + ": " +
                                    error.what());
                }
            }
            if (traced_fields && records[i]) {
                check_fields(lane_tally, "traced " + specs[i].to_string(),
                             fields_of(*records[i]).to_string(),
                             *traced_fields);
            }
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        threads.emplace_back(run_lane, lane);
    }
    for (std::thread& thread : threads) {
        thread.join();
    }

    PairedPass pass;
    pass.records = std::move(records);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        pass.totals.add(lane_passes[lane].totals);
        pass.traced_ms += lane_passes[lane].traced_ms;
        pass.untraced_ms += lane_passes[lane].untraced_ms;
        tally.attempted += lane_tallies[lane].attempted;
        tally.failed += lane_tallies[lane].failed;
    }
    check_attribution(tally, pass.totals, pass.traced_ms);
    return pass;
}

// ---------------------------------------------------------- set-up time

/** Seconds from spawning `--setup-probe <kind>` (a child of this binary)
 *  until it reports ready on its standard output. */
double
spawn_probe_seconds(const std::string& kind)
{
    int ready_pipe[2] = {-1, -1};
    if (pipe(ready_pipe) != 0) {
        throw std::runtime_error("cannot create the set-up probe pipe");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, ready_pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, ready_pipe[0]);
    posix_spawn_file_actions_addclose(&actions, ready_pipe[1]);
    std::string arg0 = "cafqa_perfbench";
    std::string arg1 = "--setup-probe";
    std::string arg2 = kind;
    char* argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};

    const auto start = clock_type::now();
    pid_t pid = 0;
    const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions,
                                    nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(ready_pipe[1]);
    char byte = 0;
    const ssize_t got = spawned == 0 ? read(ready_pipe[0], &byte, 1) : -1;
    const double seconds = ms_between(start, clock_type::now()) / 1e3;
    close(ready_pipe[0]);
    if (spawned != 0) {
        throw std::runtime_error("cannot spawn the set-up probe");
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 || got != 1) {
        throw std::runtime_error("set-up probe failed");
    }
    return seconds;
}

/** Median set-up seconds over several fresh processes. */
double
setup_seconds(const std::string& kind)
{
    std::vector<double> samples;
    for (int i = 0; i < 15; ++i) {
        samples.push_back(spawn_probe_seconds(kind));
    }
    return median(samples);
}

// ------------------------------------------------------------ solo runs

Result
run_solo(const Options& options)
{
    Tally tally;
    const std::map<std::string, std::string> golden =
        load_golden(kGoldenPath);
    const std::vector<RunSpec> specs = solo_specs(options.workload);
    const auto golden_of = [&golden](const RunSpec& spec) {
        const auto it = golden.find(spec.to_string());
        if (it == golden.end()) {
            throw std::runtime_error("no golden line for \"" +
                                     spec.to_string() + "\"");
        }
        return it->second;
    };

    Result result;
    if (!options.trace) {
        // One pass: every spec through the public entry point, each
        // resolving its own problem and exact solve.
        std::vector<double> job_ms;
        std::vector<Fields> first_pass;
        const auto plain_pass = [&] {
            const auto start = clock_type::now();
            for (const RunSpec& spec : specs) {
                ++tally.attempted;
                const auto job_start = clock_type::now();
                try {
                    const RunRecord record = cafqa::execute_run_spec(spec);
                    job_ms.push_back(ms_between(job_start, clock_type::now()));
                    const Fields fields = fields_of(record);
                    check_fields(tally, spec.to_string(), golden_of(spec),
                                 fields);
                    if (first_pass.size() < specs.size()) {
                        first_pass.push_back(fields);
                    }
                } catch (const std::exception& error) {
                    tally.fail(spec.to_string() + ": " + error.what());
                }
            }
            return ms_between(start, clock_type::now());
        };

        const double setup_s = setup_seconds("solo");
        // The pass count is fixed by the first pass, so a run lasts about
        // --seconds and machine noise cannot add or drop a whole pass.
        std::vector<double> pass_ms = {plain_pass()};
        const auto passes = static_cast<std::size_t>(std::max(
            1L, std::lround(options.seconds * 1e3 / pass_ms.front())));
        while (pass_ms.size() < passes) {
            pass_ms.push_back(plain_pass());
        }
        for (std::size_t i = 0; i < pass_ms.size(); ++i) {
            std::cout << "pass " << i + 1 << ' '
                      << cafqa::format_real(pass_ms[i] / 1e3) << " s\n";
        }
        double total_ms = 0.0;
        for (const double ms : pass_ms) {
            total_ms += ms;
        }
        result.metrics = {
            {"setup_s", setup_s, "s"},
            {"pass_s", median(pass_ms) / 1e3, "s"},
            {"jobs_per_s", static_cast<double>(job_ms.size()) / (total_ms / 1e3),
             "1/s"},
            {"job_ms_mean", mean(job_ms), "ms"},
            {"energy_error_mha", mean_error_mha(first_pass), "mHa"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
        };
    } else {
        const PairedPass pass = paired_pass(specs, tally, 1);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (pass.records[i]) {
                check_fields(tally, specs[i].to_string(), golden_of(specs[i]),
                             fields_of(*pass.records[i]));
            }
        }
        result.metrics = layer_metrics(pass.totals, pass.traced_ms,
                                       pass.untraced_ms,
                                       measure_copy_bandwidth(), {});
    }
    result.attempted = tally.attempted;
    result.failed = tally.failed;
    return result;
}

// ----------------------------------------------------------- served mix

/**
 * The served job list: an endless stream of blocks, each holding every
 * (problem, search) pair once in a seeded order. A pair's even-numbered
 * jobs take a fresh seed and its odd-numbered jobs repeat one of the
 * pair's earlier seeds, so exactly half the jobs repeat an earlier
 * (problem, search, seed) triple whatever the workload seed, and every
 * run serves the same mix. The same workload seed gives the same list.
 */
class JobStream
{
  public:
    static constexpr std::array<const char*, 4> kProblems = {
        "problem=molecule:H6",
        "problem=molecule:BeH2",
        "problem=tfim:chain-12",
        "problem=maxcut:er-64?p=0.1 exact=0",
    };
    static constexpr std::array<const char*, 2> kSearches = {"anneal",
                                                             "tempering"};
    static constexpr std::size_t kBlockJobs =
        kProblems.size() * kSearches.size();

    explicit JobStream(std::uint64_t seed) : rng_(seed) {}

    RunSpec
    next()
    {
        if (block_.empty()) {
            for (std::size_t pair = 0; pair < kBlockJobs; ++pair) {
                block_.push_back(pair);
            }
            for (std::size_t i = block_.size() - 1; i > 0; --i) {
                std::swap(block_[i], block_[rng_() % (i + 1)]);
            }
        }
        const std::size_t pair = block_.back();
        block_.pop_back();
        std::vector<std::uint64_t>& used = seeds_[pair];
        std::uint64_t seed = 0;
        if (used.size() == repeats_[pair]) {
            do {
                seed = 1 + rng_() % 1'000'000;
            } while (std::find(used.begin(), used.end(), seed) != used.end());
            used.push_back(seed);
        } else {
            seed = used[rng_() % used.size()];
            ++repeats_[pair];
        }
        return RunSpec::parse(std::string(kProblems[pair / 2]) +
                              " search=" + kSearches[pair % 2] +
                              " warmup=20 iterations=40 seed=" +
                              std::to_string(seed));
    }

  private:
    std::mt19937_64 rng_;
    std::array<std::vector<std::uint64_t>, kBlockJobs> seeds_{};
    std::array<std::size_t, kBlockJobs> repeats_{};
    std::vector<std::size_t> block_;
};

/** Jobs every served run completes, whatever `--seconds` says: `pass_s`
 *  and `energy_error_mha` are taken over this fixed prefix of the list.
 *  A run always ends on a block boundary. */
constexpr std::size_t kMinServedJobs = 25 * JobStream::kBlockJobs;
constexpr std::size_t kOutstandingPerClient = 2;

struct ServedJob
{
    std::size_t index = 0;
    std::string id;
    RunSpec spec;
    clock_type::time_point submitted;
    clock_type::time_point accepted;
    clock_type::time_point started;
    clock_type::time_point finished;
    bool issued = false;
    bool done = false;
    bool rejected = false;
    std::string record_json;
};

/** `json` without its top-level `"wall_ms":<number>` field. */
std::string
without_wall_ms(const std::string& json)
{
    const std::string needle = "\"wall_ms\":";
    const std::size_t start = json.find(needle);
    if (start == std::string::npos) {
        return json;
    }
    std::size_t end = start + needle.size();
    while (end < json.size() && json[end] != ',' && json[end] != '}') {
        ++end;
    }
    if (end < json.size() && json[end] == ',') {
        ++end;
    }
    return json.substr(0, start) + json.substr(end);
}

/** The next event on `client` of kind `kind` (other events are not
 *  expected once the job loop has drained). */
cafqa::server::Event
await_event(cafqa::server::BlockingClient& client, const std::string& kind)
{
    const auto line = client.read_line();
    if (!line) {
        throw std::runtime_error("server closed the connection awaiting " +
                                 kind);
    }
    cafqa::server::Event event = cafqa::server::parse_event(*line);
    if (event.event != kind) {
        throw std::runtime_error("expected a " + kind + " event, got " +
                                 *line);
    }
    return event;
}

Result
run_served(const Options& options)
{
    using namespace cafqa::server;
    Tally tally;

    const double setup_s = setup_seconds("served");
    ServedStack stack = start_served_stack();

    // Closed loop: client c submits jobs c, c + 2, c + 4, ... of the list,
    // keeping at most two outstanding, until the fixed prefix has been
    // issued, the time is up and the block in progress is complete. The
    // static split keeps each connection's sequence independent of timing.
    JobStream stream(options.seed);
    std::deque<ServedJob> jobs;
    std::mutex jobs_mutex;
    std::vector<std::string> client_errors(kClients);
    const auto loop_start = clock_type::now();
    std::size_t job_limit = std::numeric_limits<std::size_t>::max();
    const auto take_job = [&](std::size_t index) -> ServedJob* {
        std::lock_guard<std::mutex> lock(jobs_mutex);
        if (job_limit == std::numeric_limits<std::size_t>::max() &&
            index >= kMinServedJobs &&
            ms_between(loop_start, clock_type::now()) >=
                options.seconds * 1e3) {
            // Every job already on the list is inside the limit.
            const std::size_t listed = std::max(jobs.size(), index);
            job_limit = (listed + JobStream::kBlockJobs - 1) /
                        JobStream::kBlockJobs * JobStream::kBlockJobs;
        }
        if (index >= job_limit) {
            return nullptr;
        }
        while (jobs.size() <= index) {
            ServedJob& job = jobs.emplace_back();
            job.index = jobs.size() - 1;
            job.id = "job-" + std::to_string(job.index);
            job.spec = stream.next();
        }
        jobs[index].issued = true;
        return &jobs[index];
    };
    std::vector<std::thread> loops;
    for (std::size_t c = 0; c < kClients; ++c) {
        loops.emplace_back([&, c] {
            try {
                BlockingClient& client = stack.clients[c];
                std::unordered_map<std::string, ServedJob*> mine;
                std::size_t outstanding = 0;
                std::size_t next_index = c;
                bool exhausted = false;
                for (;;) {
                    while (!exhausted && outstanding < kOutstandingPerClient) {
                        ServedJob* job = take_job(next_index);
                        if (job == nullptr) {
                            exhausted = true;
                            break;
                        }
                        next_index += kClients;
                        mine[job->id] = job;
                        job->submitted = clock_type::now();
                        client.send_line(submit_line(job->id, job->spec));
                        ++outstanding;
                    }
                    if (outstanding == 0) {
                        break;
                    }
                    const auto line = client.read_line();
                    const auto now = clock_type::now();
                    if (!line) {
                        throw std::runtime_error(
                            "connection closed with jobs outstanding");
                    }
                    const Event event = parse_event(*line);
                    const auto it = mine.find(event.id);
                    if (it == mine.end()) {
                        throw std::runtime_error("unexpected event " + *line);
                    }
                    ServedJob& job = *it->second;
                    if (event.event == "accepted") {
                        job.accepted = now;
                    } else if (event.event == "started") {
                        job.started = now;
                    } else if (event.event == "rejected") {
                        job.rejected = true;
                        --outstanding;
                    } else if (event.event == "result") {
                        job.finished = now;
                        job.done = true;
                        job.record_json = event.record_json;
                        --outstanding;
                    }
                }
            } catch (const std::exception& error) {
                client_errors[c] = error.what();
            }
        });
    }
    for (std::thread& loop : loops) {
        loop.join();
    }
    for (const std::string& error : client_errors) {
        if (!error.empty()) {
            tally.fail("client: " + error);
        }
    }

    ServerLayer server_layer;
    if (options.trace) {
        stack.clients[0].send_line(stats_line());
        const Event stats = await_event(stack.clients[0], "stats");
        const auto fields = cafqa::parse_flat_json_object(stats.cache_json);
        const auto number = [&fields](const std::string& name) {
            const cafqa::JsonField* field = cafqa::find_json_field(fields, name);
            return field == nullptr
                       ? std::size_t{0}
                       : static_cast<std::size_t>(std::stoull(field->value));
        };
        server_layer.cache.hits = number("hits");
        server_layer.cache.misses = number("misses");
        server_layer.cache.evictions = number("evictions");
        server_layer.cache.entries = number("entries");

        stack.clients[0].send_line(metrics_line());
        const Event scrape = await_event(stack.clients[0], "metrics");
        const auto completed = cafqa::telemetry::find_prometheus_sample(
            scrape.prometheus, "cafqa_server_jobs_completed_total");
        if (!completed || static_cast<std::size_t>(*completed) !=
                              stats.counters.completed) {
            tally.fail("metrics scrape disagrees with the stats verb on "
                       "completed jobs");
        }
    }
    stack.stop();
    const double rss_mb = peak_rss_mb();

    // Latency, throughput and the fixed-prefix pass time.
    std::vector<double>& job_ms = server_layer.job_ms;
    clock_type::time_point last_finish = loop_start;
    clock_type::time_point prefix_finish = loop_start;
    std::map<std::string, const ServedJob*> first_of_spec;
    for (const ServedJob& job : jobs) {
        if (!job.issued) {
            continue;
        }
        ++tally.attempted;
        if (job.rejected || !job.done) {
            tally.fail(job.id + " (" + job.spec.to_string() +
                       (job.rejected ? ") was rejected" : ") never finished"));
            continue;
        }
        if (job.record_json.find("\"ok\":true") == std::string::npos) {
            tally.fail(job.id + " failed: " + job.record_json);
        }
        job_ms.push_back(ms_between(job.submitted, job.finished));
        server_layer.admit_ms.push_back(ms_between(job.submitted, job.accepted));
        server_layer.queue_ms.push_back(ms_between(job.accepted, job.started));
        server_layer.exec_ms.push_back(ms_between(job.started, job.finished));
        last_finish = std::max(last_finish, job.finished);
        if (job.index < kMinServedJobs) {
            prefix_finish = std::max(prefix_finish, job.finished);
        }
        const auto [it, inserted] =
            first_of_spec.emplace(job.spec.to_string(), &job);
        if (!inserted && without_wall_ms(it->second->record_json) !=
                             without_wall_ms(job.record_json)) {
            tally.fail(job.id + " differs from " + it->second->id +
                       ", an earlier job of the same spec");
        }
    }

    double exec_total_ms = 0.0;
    for (const double ms : server_layer.exec_ms) {
        exec_total_ms += ms;
    }
    std::cout << "served " << job_ms.size() << " jobs, "
              << first_of_spec.size() << " distinct specs, executing for "
              << cafqa::format_real(exec_total_ms / 1e3) << " s in total\n";

    // Solo replay of every distinct spec: each served record must be
    // byte-identical to it apart from wall_ms. The replay runs with one
    // thread per run, as the server's workers do (the spec as submitted
    // is what the record reports).
    std::vector<RunSpec> distinct;
    for (const auto& [text, job] : first_of_spec) {
        distinct.push_back(job->spec);
    }
    std::map<std::string, RunRecord> solo;
    const auto compare = [&](const RunRecord& record) {
        const ServedJob& job = *first_of_spec.at(record.spec.to_string());
        if (without_wall_ms(record.to_json()) !=
            without_wall_ms(job.record_json)) {
            tally.fail("served record differs from solo run for \"" +
                       record.spec.to_string() + "\":\n  solo:   " +
                       record.to_json() + "\n  served: " + job.record_json);
        }
        solo.emplace(record.spec.to_string(), record);
    };
    Result result;
    if (!options.trace) {
        // Measurement is over: the replay may use every core.
        cafqa::BatchRunner runner({.concurrency = 4, .run_threads = 1});
        for (const RunRecord& record : runner.run(distinct)) {
            compare(record);
        }
        std::vector<Fields> prefix;
        for (const ServedJob& job : jobs) {
            const auto it = solo.find(job.spec.to_string());
            if (job.index < kMinServedJobs && it != solo.end()) {
                prefix.push_back(fields_of(it->second));
            }
        }
        const double loop_s = ms_between(loop_start, last_finish) / 1e3;
        result.metrics = {
            {"setup_s", setup_s, "s"},
            {"pass_s", ms_between(loop_start, prefix_finish) / 1e3, "s"},
            {"jobs_per_s", static_cast<double>(job_ms.size()) / loop_s, "1/s"},
            {"job_ms_mean", mean(job_ms), "ms"},
            {"energy_error_mha", mean_error_mha(prefix), "mHa"},
            {"peak_rss_mb", rss_mb, "MB"},
        };
    } else {
        std::vector<RunSpec> single = distinct;
        for (RunSpec& spec : single) {
            spec.threads = 1;
        }
        // Two lanes, as the server ran two workers.
        const PairedPass pass = paired_pass(single, tally, 2);
        for (std::size_t i = 0; i < distinct.size(); ++i) {
            if (pass.records[i]) {
                RunRecord record = *pass.records[i];
                record.spec = distinct[i];
                compare(record);
            }
        }
        result.metrics = layer_metrics(pass.totals, pass.traced_ms,
                                       pass.untraced_ms,
                                       measure_copy_bandwidth(), server_layer);
    }

    result.attempted = tally.attempted;
    result.failed = tally.failed;
    return result;
}

} // namespace

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names = {"paper_bayes",
                                                   "dense_tune", "served_mix"};
    return names;
}

Result
run_workload(const Options& options)
{
    if (options.workload == "served_mix") {
        return run_served(options);
    }
    return run_solo(options);
}

void
setup_probe(const std::string& kind)
{
    (void)cafqa::registered_backends();
    (void)cafqa::problems::registered_problem_families();
    (void)cafqa::registered_optimizers();
    cafqa::ThreadPool pool(2);
    pool.parallel_for(2, [](std::size_t, std::size_t) {});
    std::optional<ServedStack> stack;
    if (kind == "served") {
        stack = start_served_stack();
    } else if (kind != "solo") {
        throw std::invalid_argument("--setup-probe takes solo or served");
    }
    std::cout << std::endl; // ready
    if (stack) {
        stack->stop();
    }
}

void
print_golden(std::ostream& out)
{
    out << "# Deterministic fields of every solo spec: <spec>\\t<fields>.\n"
           "# Regenerate with: cafqa_perfbench --print-golden\n";
    for (const char* workload : {"paper_bayes", "dense_tune"}) {
        for (const RunSpec& spec : solo_specs(workload)) {
            out << spec.to_string() << '\t'
                << fields_of(cafqa::execute_run_spec(spec)).to_string()
                << '\n';
        }
    }
}

} // namespace perfbench
