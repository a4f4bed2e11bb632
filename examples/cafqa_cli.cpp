/**
 * @file
 * Command-line front end for the full CAFQA pipeline, built on the
 * declarative RunSpec API: run any registered problem family —
 * molecules, MaxCut, TFIM, XXZ — with
 * configurable budgets, and emit a machine-readable result line.
 *
 * Three equivalent ways to select the run:
 *
 *   cafqa_cli --spec "problem=molecule:LiH?bond=2.4 warmup=200 tune=200"
 *   cafqa_cli --problem maxcut:ring-8 --search anneal
 *   cafqa_cli --molecule LiH --bond 2.4 --warmup 200 --tune 200
 *
 * `--spec` takes a whole run as one `field=value ...` string
 * (`core/run_spec.hpp`); every historical flag still works and
 * overrides the corresponding spec field, so old invocations behave
 * exactly as before (molecule runs keep the historical CSV line;
 * other families default to JSON, also selectable with --json).
 *
 * --tune-backend accepts any registered backend kind or "auto";
 * --search/--tuner accept any optimizer-registry kind; --budget caps
 * objective evaluations per stage; --target-energy stops a stage once
 * its best objective reaches the given value; --cache gives the run one
 * memoizing evaluation cache that every stage shares, and --trace then
 * prints its counters so far at each stage's end. Every numeric option
 * is validated: non-numeric text, trailing garbage, and out-of-range
 * values exit with status 1 and the usage text, as do unknown flags and
 * malformed specs.
 */
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/text.hpp"
#include "core/batch_runner.hpp"
#include "core/run_spec.hpp"
#include "opt/optimizer_registry.hpp"

namespace {

void
usage()
{
    std::cerr
        << "cafqa_cli [--spec \"field=value ...\"] [--problem KEY]\n"
        << "          [--molecule <name> --bond <angstrom>]\n"
        << "          [--warmup N] [--iterations N] [--seed N]\n"
        << "          [--max-t K] [--tune N] [--tune-backend KIND]\n"
        << "          [--search KIND] [--tuner KIND] [--budget N]\n"
        << "          [--target-energy E] [--threads N] [--cache]\n"
        << "          [--cache-capacity N] [--no-hf-seed] [--json]\n"
        << "          [--trace] [--csv-header]\n"
        << "  --spec SPEC       whole run as one field=value string\n"
        << "  --problem KEY     problem registry key"
           " (family:instance?param=value)\n"
        << "  --tune N          run N tuner iterations after the search\n"
        << "  --tune-backend    backend registry kind for tuning\n"
        << "                    (default: statevector; others:";
    for (const auto& kind : cafqa::registered_backends()) {
        std::cerr << ' ' << kind;
    }
    std::cerr << ")\n  --search KIND     discrete search strategy (default:"
                 " bayes; discrete:";
    for (const auto& kind : cafqa::registered_discrete_optimizers()) {
        std::cerr << ' ' << kind;
    }
    std::cerr << ")\n  --tuner KIND      continuous tuning strategy"
                 " (default: spsa; continuous:";
    for (const auto& kind : cafqa::registered_continuous_optimizers()) {
        std::cerr << ' ' << kind;
    }
    std::cerr << ")\n  --budget N        cap objective evaluations per"
                 " stage (N >= 1)\n"
              << "  --target-energy E stop a stage once its best"
                 " objective reaches E\n"
              << "  --threads N       worker threads for batched"
                 " evaluation (N >= 1;\n"
                 "                    default: the shared hardware-sized"
                 " pool)\n"
              << "  --cache           one memoizing evaluation cache for"
                 " all of the run's stages\n"
              << "  --cache-capacity N  max resident cache entries"
                 " (implies --cache)\n"
              << "  --json            print the run record as JSON"
                 " (default for\n"
                 "                    non-molecule problems)\n"
              << "  --trace           print stage progress to stderr (with"
                 " --cache, the\n"
                 "                    run cache's counters so far at each"
                 " stage end)\n"
              << "problem families:\n";
    for (const auto& info : cafqa::problems::problem_family_catalog()) {
        std::cerr << "  " << info.family << "  " << info.description
                  << " (e.g. " << info.sample_key << ")\n";
    }
}

[[noreturn]] void
fail_usage(const std::string& message)
{
    std::cerr << "cafqa_cli: " << message << '\n';
    usage();
    std::exit(1);
}

/** Strict floating-point parse: the whole token must be a finite
 *  number ("nan"/"inf" would silently disable comparisons downstream). */
double
parse_real(const std::string& flag, const char* text)
{
    const auto value = cafqa::parse_real_token(text);
    if (!value) {
        fail_usage(flag + " expects a finite number, got '" +
                   std::string(text) + "'");
    }
    return *value;
}

/** The historical CSV line for molecule runs (format-stable). */
void
print_molecule_csv(const cafqa::problems::Problem& problem,
                   const cafqa::RunRecord& record)
{
    const double bond = problem.metric("bond_angstrom").value_or(0.0);
    const bool scf =
        problem.metric("scf_converged").value_or(0.0) != 0.0;
    const double hf = record.reference_energy.value_or(0.0);
    const double exact = record.exact_energy.value_or(0.0);
    double recovered = 0.0;
    if (record.exact_energy.has_value()) {
        const double denom = hf - exact;
        recovered = (denom > 1e-12)
            ? 100.0 * (hf - record.cafqa_energy) / denom
            : 100.0;
    }
    std::cout << problem.name << ',' << bond << ',' << problem.num_qubits
              << ',' << (scf ? 1 : 0) << ',' << hf << ','
              << record.cafqa_energy << ','
              << record.tuned_value.value_or(0.0) << ',' << exact << ','
              << record.t_gates << ',' << record.evaluations_to_best
              << ',' << recovered << '\n';
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace cafqa;

    std::string spec_text;
    std::string problem_key;
    std::string molecule;
    std::optional<double> bond;
    /** Spec-field overrides in argv order (later flags win). */
    std::vector<std::pair<std::string, std::string>> overrides;
    bool json = false;
    bool trace = false;
    bool csv_header = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                fail_usage(arg + " requires a value");
            }
            return argv[++i];
        };
        /** `--warmup 60` becomes the spec assignment `warmup=60`,
         *  validated by RunSpec::set below. */
        auto override_field = [&](const std::string& field) {
            overrides.emplace_back(field, next());
        };
        if (arg == "--spec") {
            spec_text = next();
        } else if (arg == "--problem") {
            problem_key = next();
        } else if (arg == "--molecule") {
            molecule = next();
        } else if (arg == "--bond") {
            bond = parse_real(arg, next());
        } else if (arg == "--warmup") {
            override_field("warmup");
        } else if (arg == "--iterations") {
            override_field("iterations");
        } else if (arg == "--seed") {
            override_field("seed");
        } else if (arg == "--max-t") {
            override_field("max-t");
        } else if (arg == "--tune") {
            override_field("tune");
        } else if (arg == "--tune-backend") {
            override_field("tune-backend");
        } else if (arg == "--search") {
            override_field("search");
        } else if (arg == "--tuner") {
            override_field("tuner");
        } else if (arg == "--budget") {
            override_field("budget");
        } else if (arg == "--target-energy") {
            override_field("target-energy");
        } else if (arg == "--threads") {
            override_field("threads");
        } else if (arg == "--cache") {
            overrides.emplace_back("cache", "1");
        } else if (arg == "--cache-capacity") {
            override_field("cache-capacity");
        } else if (arg == "--no-hf-seed") {
            overrides.emplace_back("hf-seed", "0");
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--csv-header") {
            csv_header = true;
        } else {
            fail_usage("unknown option '" + arg + "'");
        }
    }

    // Base spec from --spec, then every flag overrides its field —
    // including flags explicitly set to their default values.
    RunSpec spec;
    try {
        if (!spec_text.empty()) {
            spec = RunSpec::parse(spec_text);
        }
        for (const auto& [field, value] : overrides) {
            spec.set(field, value);
        }
    } catch (const std::exception& error) {
        fail_usage(error.what());
    }

    // Problem selection: --molecule/--bond compose a key; --problem
    // wins over the spec's problem field.
    if (!molecule.empty()) {
        if (!problem_key.empty()) {
            fail_usage("use either --problem or --molecule, not both");
        }
        if (!bond.has_value() || *bond <= 0.0) {
            fail_usage("--bond must be a positive length in angstrom");
        }
        problem_key = "molecule:" + molecule +
                      "?bond=" + format_real(*bond);
    } else if (bond.has_value()) {
        fail_usage("--bond requires --molecule");
    }
    if (!problem_key.empty()) {
        spec.problem = problem_key;
    }
    if (spec.problem.empty()) {
        fail_usage("no problem selected (use --spec, --problem, or "
                   "--molecule with --bond)");
    }

    if (csv_header) {
        std::cout << "molecule,bond_angstrom,qubits,scf_converged,"
                     "hf_energy,cafqa_energy,tuned_value,exact_energy,"
                     "t_gates,evals_to_best,corr_recovered_pct\n";
    }

    try {
        const problems::Problem problem =
            problems::make_problem(spec.problem);

        RunContext context;
        if (trace) {
            context.observer = [](const PipelineEvent& event) {
                switch (event.event) {
                  case PipelineEvent::Kind::StageBegin:
                    std::cerr << "[" << event.stage << "] begin\n";
                    break;
                  case PipelineEvent::Kind::StageEnd:
                    std::cerr << "[" << event.stage << "] end, best "
                              << event.best_value << '\n';
                    if (event.cache != nullptr) {
                        std::cerr
                            << "[" << event.stage << "] cache: "
                            << event.cache->hits << " hits, "
                            << event.cache->misses << " misses ("
                            << 100.0 * event.cache->hit_rate()
                            << "% hit rate), "
                            << event.cache->preparations
                            << " state preparations, "
                            << event.cache->evictions << " evictions, "
                            << event.cache->bytes << " bytes\n";
                    }
                    break;
                  case PipelineEvent::Kind::Progress:
                    if (event.evaluation % 50 == 0) {
                        std::cerr << "[" << event.stage << "] eval "
                                  << event.evaluation << ", best "
                                  << event.best_value << '\n';
                    }
                    break;
                }
            };
        }

        const RunRecord record = execute_run_spec(spec, problem, context);
        if (trace) {
            std::cerr << "[clifford_search] stop reason: "
                      << record.stop_reason << '\n';
            if (!record.tune_stop_reason.empty()) {
                std::cerr << "[vqa_tune] stop reason: "
                          << record.tune_stop_reason << '\n';
            }
        }

        if (json || problem.family != "molecule") {
            std::cout << record.to_json() << '\n';
        } else {
            print_molecule_csv(problem, record);
        }
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    return 0;
}
