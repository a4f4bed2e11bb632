/**
 * @file
 * End-to-end molecular problem factory: molecule geometry -> STO-3G
 * integrals -> RHF -> active space -> parity-mapped, Z2-reduced qubit
 * Hamiltonian + constraint operators + HF reference state + ansatz.
 *
 * Covers every VQE application of the paper's Table 1 (H2-S1 is
 * substituted by an H10 chain with the same 18-qubit footprint; see
 * DESIGN.md).
 */
#ifndef CAFQA_PROBLEMS_MOLECULE_FACTORY_HPP
#define CAFQA_PROBLEMS_MOLECULE_FACTORY_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "chem/scf.hpp"
#include "circuit/circuit.hpp"
#include "core/objective.hpp"
#include "pauli/pauli_sum.hpp"

namespace cafqa::problems {

/** Static per-molecule metadata (paper Table 1). */
struct MoleculeInfo
{
    std::string name;
    double equilibrium_bond_length = 0.0; ///< Angstrom
    double min_bond_length = 0.0;
    double max_bond_length = 0.0;
    std::size_t total_orbitals = 0;
    std::size_t used_orbitals = 0;
    std::size_t frozen_orbitals = 0;
    std::size_t num_qubits = 0;
};

/** Options for building a molecular system. */
struct MolecularSystemOptions
{
    /** Electrons removed from the *target sector* relative to neutral
     *  (+1 selects the cation sector, e.g. H2+). The SCF itself always
     *  runs on the neutral closed-shell molecule. */
    int sector_charge = 0;
    /** Target 2*S_z of the sector (0 = singlet pairing, 2 = triplet). */
    int sector_spin_2sz = 0;
    /** Override the default active orbital count (0 = spec default). */
    std::size_t active_override = 0;
    /** Override the default frozen orbital count. */
    long frozen_override = -1;
};

/** A fully prepared VQE problem instance. */
struct MolecularSystem
{
    std::string name;
    double bond_length = 0.0; ///< Angstrom
    chem::Molecule molecule;

    std::size_t num_qubits = 0;
    std::size_t total_orbitals = 0;
    std::size_t active_orbitals = 0;
    std::size_t frozen_orbitals = 0;
    int n_alpha = 0;
    int n_beta = 0;

    bool scf_converged = false;
    /** RHF total energy from the SCF (neutral molecule). */
    double scf_energy = 0.0;
    /** Expectation of the reduced Hamiltonian on the HF bitstring —
     *  the Hartree-Fock baseline in the target sector. */
    double hf_energy = 0.0;

    /** Parity-mapped, two-qubit-reduced Hamiltonian. */
    PauliSum hamiltonian;
    /** Reduced particle-number operator. */
    PauliSum number_op;
    /** Reduced S_z operator. */
    PauliSum sz_op;
    /** HF determinant as a reduced parity bitstring. */
    std::vector<int> hf_bits;

    /** Hardware-efficient ansatz (EfficientSU2, one entanglement
     *  layer). */
    Circuit ansatz;
};

/** Names accepted by make_molecular_system. */
std::vector<std::string> supported_molecules();

/** Table 1 metadata for one molecule. */
MoleculeInfo molecule_info(const std::string& name);

/** Build the full VQE problem at one bond length (Angstrom). */
MolecularSystem make_molecular_system(
    const std::string& name, double bond_length_angstrom,
    const MolecularSystemOptions& options = {});

/**
 * The CAFQA search objective for a system: Hamiltonian plus
 * electron-count and S_z penalties pinning the target sector
 * (paper Section 3 item 5 / Section 7.1).
 */
VqaObjective make_objective(const MolecularSystem& system,
                            double number_weight = 2.0,
                            double sz_weight = 2.0);

/**
 * Predicate selecting the reduced basis states that carry exactly the
 * system's (n_alpha, n_beta). Pass as LanczosOptions::basis_filter to
 * compute the exact ground energy *within the target sector* (needed
 * e.g. for triplet references, where the global minimum of the reduced
 * Hamiltonian lies in a different sector of the same parity).
 */
std::function<bool(std::uint64_t)> sector_filter(
    const MolecularSystem& system);

} // namespace cafqa::problems

#endif // CAFQA_PROBLEMS_MOLECULE_FACTORY_HPP
