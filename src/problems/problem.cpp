#include "problems/problem.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "circuit/efficient_su2.hpp"
#include "common/error.hpp"
#include "common/registry.hpp"
#include "common/text.hpp"
#include "core/clifford_ansatz.hpp"
#include "core/hartree_fock_baseline.hpp"
#include "problems/maxcut.hpp"
#include "problems/molecule_factory.hpp"
#include "problems/spin_chains.hpp"
#include "statevector/lanczos.hpp"

namespace cafqa::problems {

namespace {

/** Largest qubit count for which the Lanczos exact solve is offered. */
constexpr std::size_t kMaxLanczosQubits = 20;

/** The Lanczos ground energy of `hamiltonian`, or a CafqaError when
 *  the solve stops at its iteration cap unconverged: an unconverged
 *  value must never pass for the exact reference. */
std::optional<double>
converged_ground_energy(const PauliSum& hamiltonian, ThreadPool* pool,
                        LanczosOptions options = {})
{
    options.pool = pool;
    const GroundState ground = lanczos_ground_state(hamiltonian, options);
    if (!ground.converged) {
        throw CafqaError(
            "exact solve did not converge: the lowest Ritz value still "
            "moved by " + format_real(ground.ritz_change) +
            " Ha at the " + std::to_string(options.max_iterations) +
            "-iteration Lanczos cap (tolerance " +
            format_real(options.tolerance) + ")");
    }
    return ground.energy;
}

std::string
lower(std::string text)
{
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return text;
}

/** Strict whole-token finite double parse. */
double
parse_real_value(const std::string& family, const std::string& name,
                 const std::string& text)
{
    const auto value = parse_real_token(text);
    CAFQA_REQUIRE(value.has_value(),
                  "problem parameter \"" + name + "\" of family \"" +
                      family + "\" expects a finite number, got \"" +
                      text + "\"");
    return *value;
}

/** Strict whole-token integer parse. */
std::int64_t
parse_integer_value(const std::string& family, const std::string& name,
                    const std::string& text)
{
    const auto value = parse_integer_token(text);
    CAFQA_REQUIRE(value.has_value(),
                  "problem parameter \"" + name + "\" of family \"" +
                      family + "\" expects an integer, got \"" + text +
                      "\"");
    return *value;
}

/**
 * Typed access to a key's query parameters. Every accepted name must be
 * read through one accessor (even if only to apply the default) so that
 * `finish()` can reject unknown names with the full accepted list.
 */
class ParamReader
{
  public:
    explicit ParamReader(const ProblemKey& key) : key_(key) {}

    std::string
    text(const std::string& name, std::string fallback)
    {
        known_.push_back(name);
        const auto value = key_.find(name);
        return value ? *value : std::move(fallback);
    }

    double
    real(const std::string& name, double fallback)
    {
        known_.push_back(name);
        const auto value = key_.find(name);
        return value ? parse_real_value(key_.family, name, *value)
                     : fallback;
    }

    std::int64_t
    integer(const std::string& name, std::int64_t fallback)
    {
        known_.push_back(name);
        const auto value = key_.find(name);
        return value ? parse_integer_value(key_.family, name, *value)
                     : fallback;
    }

    std::size_t
    count(const std::string& name, std::size_t fallback,
          std::size_t min_value = 0)
    {
        const std::int64_t value =
            integer(name, static_cast<std::int64_t>(fallback));
        CAFQA_REQUIRE(value >= 0 &&
                          static_cast<std::size_t>(value) >= min_value,
                      "problem parameter \"" + name + "\" of family \"" +
                          key_.family + "\" must be an integer >= " +
                          std::to_string(min_value));
        return static_cast<std::size_t>(value);
    }

    /** Reject any parameter name that no accessor consumed. */
    void
    finish() const
    {
        for (const auto& [name, value] : key_.params) {
            if (std::find(known_.begin(), known_.end(), name) !=
                known_.end()) {
                continue;
            }
            const std::string accepted = join(known_, ", ");
            CAFQA_REQUIRE(false, "unknown parameter \"" + name +
                                     "\" for problem family \"" +
                                     key_.family + "\" (accepted: " +
                                     (accepted.empty() ? "none"
                                                       : accepted) +
                                     ")");
        }
    }

  private:
    const ProblemKey& key_;
    std::vector<std::string> known_;
};

/** Append one `name=value` pair to a key query under assembly (the
 *  leading '?' is attached by the caller when the query is non-empty),
 *  keeping every family's canonical-key emission identical. */
void
append_query_param(std::string& query, const std::string& name,
                   const std::string& value)
{
    query += query.empty() ? "" : "&";
    query += name + "=" + value;
}

/** Split a sized instance name like "chain-8" / "ring-64" / "er-256"
 *  into its prefix and size; throws naming the accepted prefixes. */
std::pair<std::string, std::size_t>
parse_sized_instance(const ProblemKey& key,
                     const std::vector<std::string>& prefixes)
{
    std::string accepted;
    for (const auto& prefix : prefixes) {
        accepted += (accepted.empty() ? "" : ", ") + prefix + "-<n>";
    }
    const auto dash = key.instance.rfind('-');
    CAFQA_REQUIRE(dash != std::string::npos && dash > 0 &&
                      dash + 1 < key.instance.size(),
                  "problem family \"" + key.family +
                      "\" expects an instance of the form " + accepted +
                      ", got \"" + key.instance + "\"");
    const std::string prefix = key.instance.substr(0, dash);
    CAFQA_REQUIRE(std::find(prefixes.begin(), prefixes.end(), prefix) !=
                      prefixes.end(),
                  "problem family \"" + key.family +
                      "\" expects an instance of the form " + accepted +
                      ", got \"" + key.instance + "\"");
    const std::string size_text = key.instance.substr(dash + 1);
    const std::int64_t size =
        parse_integer_value(key.family, "instance size", size_text);
    CAFQA_REQUIRE(size >= 1, "instance size in \"" + key.instance +
                                 "\" must be a positive integer");
    return {prefix, static_cast<std::size_t>(size)};
}

// ------------------------------------------------------------ molecule

Problem
make_molecule_problem(const ProblemKey& key)
{
    // Case-insensitive molecule lookup against the Table-1 catalog.
    std::string canonical_name;
    for (const auto& name : supported_molecules()) {
        if (lower(name) == lower(key.instance)) {
            canonical_name = name;
            break;
        }
    }
    if (canonical_name.empty()) {
        CAFQA_REQUIRE(false, "unknown molecule \"" + key.instance +
                                 "\" (supported: " +
                                 join(supported_molecules(), ", ") + ")");
    }
    const MoleculeInfo info = molecule_info(canonical_name);

    ParamReader params(key);
    const double bond =
        params.real("bond", info.equilibrium_bond_length);
    const std::int64_t charge = params.integer("charge", 0);
    const std::int64_t spin = params.integer("spin", 0);
    params.finish();
    CAFQA_REQUIRE(bond > 0.0,
                  "molecule bond length must be positive (angstrom)");

    MolecularSystemOptions options;
    options.sector_charge = static_cast<int>(charge);
    options.sector_spin_2sz = static_cast<int>(spin);
    MolecularSystem system =
        make_molecular_system(canonical_name, bond, options);

    Problem problem;
    problem.family = "molecule";
    problem.name = canonical_name;
    problem.key = "molecule:" + canonical_name + "?bond=" +
                  format_real(bond);
    if (charge != 0) {
        problem.key += "&charge=" + std::to_string(charge);
    }
    if (spin != 0) {
        problem.key += "&spin=" + std::to_string(spin);
    }
    problem.detail = system.molecule.summary() + " at " +
                     format_real(bond) + " A";
    problem.num_qubits = system.num_qubits;
    problem.objective = make_objective(system);
    problem.ansatz = system.ansatz;
    problem.seed_steps.push_back(efficient_su2_bitstring_steps(
        system.num_qubits, system.hf_bits));
    problem.reference_energy = system.hf_energy;
    problem.reference_name = "HF";
    problem.metrics = {
        {"bond_angstrom", bond},
        {"scf_converged", system.scf_converged ? 1.0 : 0.0},
    };

    if (system.num_qubits <= kMaxLanczosQubits) {
        if (charge == 0 && spin == 0) {
            // Neutral singlet: the global minimum of the reduced
            // Hamiltonian (matches the historical CLI read-out).
            PauliSum hamiltonian = system.hamiltonian;
            problem.exact_solver = [hamiltonian = std::move(hamiltonian)](
                                       ThreadPool* pool) {
                return converged_ground_energy(hamiltonian, pool);
            };
        } else {
            // Constrained sector: restrict the Krylov basis so the
            // reference is the lowest energy *within the sector*.
            PauliSum hamiltonian = system.hamiltonian;
            auto filter = sector_filter(system);
            problem.exact_solver = [hamiltonian = std::move(hamiltonian),
                                    filter = std::move(filter)](
                                       ThreadPool* pool) {
                LanczosOptions options;
                options.basis_filter = filter;
                return converged_ground_energy(hamiltonian, pool, options);
            };
        }
    }
    return problem;
}

// -------------------------------------------------------------- maxcut

Problem
make_maxcut_problem(const ProblemKey& key)
{
    const auto [kind, vertices] =
        parse_sized_instance(key, {"ring", "er"});

    ParamReader params(key);
    MaxCutProblem instance;
    std::string query;
    if (kind == "ring") {
        instance = make_ring_maxcut(vertices);
    } else {
        const double p = params.real("p", 0.5);
        const std::uint64_t seed = params.count("seed", 1);
        CAFQA_REQUIRE(p > 0.0 && p <= 1.0,
                      "edge probability p must be in (0, 1]");
        instance = make_random_maxcut(
            vertices, p, seed,
            "er" + std::to_string(vertices) + "-" + std::to_string(seed));
        // p and seed define the sampled graph, so the canonical key
        // always carries them.
        append_query_param(query, "p", format_real(p));
        append_query_param(query, "seed", std::to_string(seed));
    }
    const std::string ansatz_kind = params.text("ansatz", "su2");
    const std::size_t layers = params.count("layers", 1, 1);
    params.finish();

    Problem problem;
    problem.family = "maxcut";
    problem.name = instance.name;
    if (ansatz_kind != "su2" || layers != 1) {
        append_query_param(query, "ansatz", ansatz_kind);
        append_query_param(query, "layers", std::to_string(layers));
    }
    problem.key = "maxcut:" + kind + "-" + std::to_string(vertices);
    if (!query.empty()) {
        problem.key += "?" + query;
    }
    problem.detail = std::to_string(instance.num_vertices) +
                     " vertices, " + std::to_string(instance.edges.size()) +
                     " edges";
    problem.num_qubits = instance.num_vertices;
    problem.objective.hamiltonian = instance.hamiltonian;
    if (ansatz_kind == "su2") {
        EfficientSu2Options su2;
        su2.reps = layers;
        problem.ansatz = make_efficient_su2(instance.num_vertices, su2);
    } else if (ansatz_kind == "qaoa") {
        problem.ansatz = make_qaoa_ansatz(instance, layers);
    } else {
        CAFQA_REQUIRE(false, "maxcut ansatz must be \"su2\" or \"qaoa\","
                             " got \"" + ansatz_kind + "\"");
    }
    problem.metrics = {
        {"vertices", static_cast<double>(instance.num_vertices)},
        {"edges", static_cast<double>(instance.edges.size())},
    };

    if (instance.num_vertices <=
        MaxCutProblem::max_brute_force_vertices) {
        problem.exact_solver = [instance = std::move(instance)](
                                   ThreadPool*) {
            // H = sum (Z_i Z_j - 1)/2, so the ground energy is minus
            // the maximum cut weight.
            return std::optional<double>(-instance.optimal_cut());
        };
    }
    return problem;
}

// --------------------------------------------------- tfim / xxz chains

/** Fields shared by both spin-chain factories once the Hamiltonian is
 *  built: ansatz, product-state reference/prior, Lanczos exact. */
Problem
finish_spin_chain(const ProblemKey& key, SpinChainProblem chain,
                  std::size_t layers, const std::vector<int>& seed_bits)
{
    Problem problem;
    problem.family = key.family;
    problem.name = chain.name;
    problem.detail = std::to_string(chain.num_sites) + "-site " +
                     (chain.periodic ? "ring" : "open chain");
    problem.num_qubits = chain.num_sites;
    problem.objective.hamiltonian = chain.hamiltonian;

    EfficientSu2Options su2;
    su2.reps = layers;
    problem.ansatz = make_efficient_su2(chain.num_sites, su2);

    // The best classical product state of the model's classical limit
    // (all-up for the TFIM ferromagnet, Neel for XXZ): the reference
    // baseline, and — exactly like the HF determinant for molecules —
    // a prior-injected Clifford point the search can only improve on.
    problem.reference_energy =
        basis_state_expectation(problem.hamiltonian(), seed_bits);
    problem.reference_name = "product-state";
    if (layers == 1) {
        // The bitstring-to-steps map is defined for the default
        // single-rep EfficientSU2 layout only.
        problem.seed_steps.push_back(efficient_su2_bitstring_steps(
            chain.num_sites, seed_bits));
    }

    if (chain.num_sites <= kMaxLanczosQubits) {
        PauliSum hamiltonian = problem.hamiltonian();
        problem.exact_solver = [hamiltonian = std::move(hamiltonian)](
                                   ThreadPool* pool) {
            return converged_ground_energy(hamiltonian, pool);
        };
    }
    return problem;
}

Problem
make_tfim_problem(const ProblemKey& key)
{
    const auto [kind, sites] =
        parse_sized_instance(key, {"chain", "ring"});
    ParamReader params(key);
    const double j = params.real("j", 1.0);
    const double h = params.real("h", 1.0);
    const std::size_t layers = params.count("layers", 1, 1);
    params.finish();

    SpinChainProblem chain =
        make_tfim_chain(sites, j, h, kind == "ring");
    // Classical (h = 0) ground state: all spins up.
    const std::vector<int> up(sites, 0);
    Problem problem = finish_spin_chain(key, std::move(chain), layers, up);

    problem.key = "tfim:" + kind + "-" + std::to_string(sites);
    std::string query;
    if (j != 1.0) {
        append_query_param(query, "j", format_real(j));
    }
    if (h != 1.0) {
        append_query_param(query, "h", format_real(h));
    }
    if (layers != 1) {
        append_query_param(query, "layers", std::to_string(layers));
    }
    if (!query.empty()) {
        problem.key += "?" + query;
    }
    problem.metrics = {
        {"j", j},
        {"h", h},
        {"sites", static_cast<double>(sites)},
    };
    return problem;
}

Problem
make_xxz_problem(const ProblemKey& key)
{
    const auto [kind, sites] =
        parse_sized_instance(key, {"chain", "ring"});
    ParamReader params(key);
    const double j = params.real("j", 1.0);
    const double delta = params.real("delta", 1.0);
    const std::size_t layers = params.count("layers", 1, 1);
    params.finish();

    SpinChainProblem chain =
        make_xxz_chain(sites, j, delta, kind == "ring");
    // Neel state: the classical Ising-limit ground state for J > 0.
    std::vector<int> neel(sites, 0);
    for (std::size_t v = 1; v < sites; v += 2) {
        neel[v] = 1;
    }
    Problem problem =
        finish_spin_chain(key, std::move(chain), layers, neel);

    problem.key = "xxz:" + kind + "-" + std::to_string(sites);
    std::string query;
    if (j != 1.0) {
        append_query_param(query, "j", format_real(j));
    }
    if (delta != 1.0) {
        append_query_param(query, "delta", format_real(delta));
    }
    if (layers != 1) {
        append_query_param(query, "layers", std::to_string(layers));
    }
    if (!query.empty()) {
        problem.key += "?" + query;
    }
    problem.metrics = {
        {"j", j},
        {"delta", delta},
        {"sites", static_cast<double>(sites)},
    };
    return problem;
}

// ------------------------------------------------------------ registry

/** One family: a factory that receives the parsed key and rejects
 *  unknown parameters, plus its catalog text. */
struct FamilyEntry
{
    Problem (*factory)(const ProblemKey&);
    std::string description;
    std::string sample_key;
};

/** The process-wide registry, with the built-in families
 *  pre-registered. Function-local static so registration order is
 *  independent of translation-unit initialization order. */
Registry<FamilyEntry>&
problem_registry()
{
    static Registry<FamilyEntry> registry(
        "problem family", "",
        {
            {"molecule",
             {make_molecule_problem,
              "VQE molecule from the paper's Table 1 "
              "(params: bond, charge, spin)",
              "molecule:H2?bond=0.74"}},
            {"maxcut",
             {make_maxcut_problem,
              "MaxCut Ising instance on ring-<n> or er-<n> graphs "
              "(params: p, seed, ansatz, layers)",
              "maxcut:ring-6"}},
            {"tfim",
             {make_tfim_problem,
              "transverse-field Ising model on chain-<n> or ring-<n> "
              "(params: j, h, layers)",
              "tfim:chain-4"}},
            {"xxz",
             {make_xxz_problem,
              "Heisenberg XXZ model on chain-<n> or ring-<n> "
              "(params: j, delta, layers)",
              "xxz:chain-4"}},
        });
    return registry;
}

} // namespace

// ---------------------------------------------------------- ProblemKey

ProblemKey
ProblemKey::parse(const std::string& key)
{
    const auto colon = key.find(':');
    CAFQA_REQUIRE(colon != std::string::npos && colon > 0,
                  "problem key must look like "
                  "\"family:instance?param=value\", got \"" + key + "\"");
    ProblemKey parsed;
    parsed.family = key.substr(0, colon);

    const auto question = key.find('?', colon + 1);
    parsed.instance = key.substr(
        colon + 1, question == std::string::npos ? std::string::npos
                                                 : question - colon - 1);
    CAFQA_REQUIRE(!parsed.instance.empty(),
                  "problem key \"" + key + "\" has an empty instance");

    if (question != std::string::npos) {
        const std::string query = key.substr(question + 1);
        CAFQA_REQUIRE(!query.empty(), "problem key \"" + key +
                                          "\" has an empty query");
        for (const std::string& token : split(query, '&')) {
            const auto equals = token.find('=');
            CAFQA_REQUIRE(equals != std::string::npos && equals > 0 &&
                              equals + 1 < token.size(),
                          "problem key parameter \"" + token +
                              "\" must look like name=value");
            const std::string name = token.substr(0, equals);
            for (const auto& [existing, value] : parsed.params) {
                CAFQA_REQUIRE(existing != name,
                              "duplicate parameter \"" + name +
                                  "\" in problem key \"" + key + "\"");
            }
            parsed.params.emplace_back(name, token.substr(equals + 1));
        }
    }
    return parsed;
}

std::string
ProblemKey::to_string() const
{
    std::string out = family + ":" + instance;
    bool first = true;
    for (const auto& [name, value] : params) {
        out += (first ? "?" : "&") + name + "=" + value;
        first = false;
    }
    return out;
}

std::optional<std::string>
ProblemKey::find(const std::string& name) const
{
    for (const auto& [existing, value] : params) {
        if (existing == name) {
            return value;
        }
    }
    return std::nullopt;
}

// ------------------------------------------------------------- Problem

std::optional<double>
Problem::metric(const std::string& name) const
{
    for (const auto& [existing, value] : metrics) {
        if (existing == name) {
            return value;
        }
    }
    return std::nullopt;
}

std::optional<double>
Problem::exact_energy(ThreadPool* pool) const
{
    return exact_solver ? exact_solver(pool) : std::nullopt;
}

// --------------------------------------------------------- factory API

std::vector<std::string>
registered_problem_families()
{
    return problem_registry().keys();
}

std::vector<ProblemFamilyInfo>
problem_family_catalog()
{
    std::vector<ProblemFamilyInfo> catalog;
    for (const std::string& family : problem_registry().keys()) {
        const FamilyEntry entry = problem_registry().get(family);
        catalog.push_back({family, entry.description, entry.sample_key});
    }
    return catalog;
}

Problem
make_problem(const std::string& key)
{
    const ProblemKey parsed = ProblemKey::parse(key);
    Problem problem =
        problem_registry()
            .get(parsed.family, " in key \"" + key + "\"")
            .factory(parsed);
    CAFQA_ASSERT(!problem.key.empty(),
                 "problem factory left the canonical key empty");
    CAFQA_ASSERT(problem.hamiltonian().num_qubits() == problem.num_qubits,
                 "problem Hamiltonian qubit count mismatch");
    return problem;
}

} // namespace cafqa::problems
