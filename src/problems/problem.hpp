/**
 * @file
 * Unified workload-facing problem API: every variational workload —
 * molecules, MaxCut, spin chains — resolves through one string-keyed
 * registry, an instance of the `Registry<Entry>` template
 * (`common/registry.hpp`) that also holds the backend
 * (`core/backend_registry.hpp`) and optimizer
 * (`opt/optimizer_registry.hpp`) registries.
 *
 * A problem key is `family:instance[?param=value[&param=value]...]`:
 *
 * | key example                        | workload                       |
 * |------------------------------------|--------------------------------|
 * | "molecule:LiH?bond=1.5"            | VQE molecule (paper Table 1)   |
 * | "maxcut:ring-64"                   | MaxCut on the cycle graph C_64 |
 * | "maxcut:er-256?p=0.03&seed=11"     | MaxCut on an Erdos-Renyi graph |
 * | "tfim:chain-8?h=1.25"              | transverse-field Ising chain   |
 * | "xxz:ring-6?delta=0.5"             | Heisenberg XXZ ring            |
 *
 * `make_problem(key)` returns a fully prepared `Problem`: qubit count,
 * constrained objective (Hamiltonian + sector penalties), a
 * Clifford-searchable hardware-efficient ansatz, prior-injection seed
 * steps (the Hartree-Fock point for molecules), an optional classical
 * reference energy, and a lazy exact ground energy (Lanczos / brute
 * force, small sizes only). Unknown families and unknown query
 * parameters are rejected with self-describing errors that list the
 * valid choices.
 */
#ifndef CAFQA_PROBLEMS_PROBLEM_HPP
#define CAFQA_PROBLEMS_PROBLEM_HPP

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/objective.hpp"
#include "pauli/pauli_sum.hpp"

namespace cafqa {
class ThreadPool;
}

namespace cafqa::problems {

/** A parsed problem key: `family:instance?param=value&...`. */
struct ProblemKey
{
    std::string family;
    std::string instance;
    /** Query parameters in source order (keys must be unique). */
    std::vector<std::pair<std::string, std::string>> params;

    /** Parse a key; throws std::invalid_argument on malformed input
     *  (missing family/instance, empty or duplicate parameters). */
    static ProblemKey parse(const std::string& key);

    /** Reassemble `family:instance?k=v&...`. */
    std::string to_string() const;

    /** The raw value of one parameter, if present. */
    std::optional<std::string> find(const std::string& name) const;
};

/**
 * A fully prepared variational problem, ready for `CafqaPipeline` (set
 * `PipelineConfig::ansatz/objective` from the fields here, or go
 * through `make_pipeline_config` in `core/run_spec.hpp`).
 */
struct Problem
{
    /** Canonical registry key; `make_problem(key)` reproduces this
     *  problem exactly (round-trip). */
    std::string key;
    /** Registry family ("molecule", "maxcut", "tfim", "xxz", ...). */
    std::string family;
    /** Short display name, e.g. "H2" or "ring8". */
    std::string name;
    /** One-line human description of the instance. */
    std::string detail;
    std::size_t num_qubits = 0;

    /** Hamiltonian plus any sector-constraint penalties. */
    VqaObjective objective;
    /** Clifford-searchable hardware-efficient ansatz. */
    Circuit ansatz;
    /** Step assignments worth prior-injecting into the discrete search
     *  (the Hartree-Fock determinant for molecules; may be empty). */
    std::vector<std::vector<int>> seed_steps;

    /** Classical baseline energy (Hartree-Fock for molecules), with a
     *  label naming it; nullopt when the family has no baseline. */
    std::optional<double> reference_energy;
    std::string reference_name;

    /** Named scalar facts about the instance (bond length, edge count,
     *  model couplings, ...) for reporting. */
    std::vector<std::pair<std::string, double>> metrics;

    /** Solver for the exact ground energy; nullopt-returning (or
     *  absent) when the instance is too large. Set by the factory;
     *  invoked by `exact_energy()`, which passes its pool (null =
     *  serial; the pool never changes the value). */
    std::function<std::optional<double>(ThreadPool* pool)> exact_solver;

    /** The problem Hamiltonian (alias of `objective.hamiltonian`). */
    const PauliSum& hamiltonian() const { return objective.hamiltonian; }

    /** Value of one metric, if recorded. */
    std::optional<double> metric(const std::string& name) const;

    /**
     * Exact ground energy of the bare Hamiltonian (Lanczos for
     * molecules and spin chains, brute force for MaxCut), or nullopt
     * when the instance is too large for an exact solve. Solved on
     * every call, so a caller that needs it twice keeps the value (a
     * served job reads `ExactEnergyMemo`); potentially expensive. A
     * `pool` splits the Lanczos matvecs across its workers with the
     * same result to the bit.
     */
    std::optional<double> exact_energy(ThreadPool* pool = nullptr) const;
};

/** One registry entry's metadata (for usage text and docs). */
struct ProblemFamilyInfo
{
    std::string family;
    /** One-line description including the accepted parameters. */
    std::string description;
    /** A small example key that resolves quickly. */
    std::string sample_key;
};

/** Sorted list of registered families. */
std::vector<std::string> registered_problem_families();

/** Sorted metadata for every registered family. */
std::vector<ProblemFamilyInfo> problem_family_catalog();

/** Resolve a problem key; throws std::invalid_argument on unknown
 *  family (listing the registered ones), unknown parameters, or
 *  invalid parameter values. */
Problem make_problem(const std::string& key);

} // namespace cafqa::problems

#endif // CAFQA_PROBLEMS_PROBLEM_HPP
