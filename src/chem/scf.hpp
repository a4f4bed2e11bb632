/**
 * @file
 * Restricted Hartree-Fock with DIIS convergence acceleration — the
 * classical mean-field reference the paper initializes against (and the
 * source of the molecular orbitals every qubit Hamiltonian is expressed
 * in). Replaces the paper's Psi4/PySCF HF step.
 */
#ifndef CAFQA_CHEM_SCF_HPP
#define CAFQA_CHEM_SCF_HPP

#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "common/linalg.hpp"

namespace cafqa::chem {

/** SCF convergence controls. Convergence means an energy change
 *  below 1e-10 Ha and a density change below 1e-8 between iterations;
 *  DIIS keeps the last 8 Fock/error pairs. */
struct ScfOptions
{
    std::size_t max_iterations = 200;
    /** Fraction of the previous density mixed in before DIIS kicks in. */
    double damping = 0.3;
    /** Iterations with plain damping before DIIS starts. */
    std::size_t damping_iterations = 2;
    /** Virtual-orbital level shift (helps difficult cases like Cr2). */
    double level_shift = 0.0;
};

/** Converged (or best-effort) RHF solution. */
struct ScfResult
{
    bool converged = false;
    std::size_t iterations = 0;
    /** Total energy including nuclear repulsion (Hartree). */
    double energy = 0.0;
    double electronic_energy = 0.0;
    double nuclear_repulsion = 0.0;
    /** Column i is MO i (ascending orbital energy). */
    Matrix mo_coefficients;
    std::vector<double> orbital_energies;
    /** Final AO density matrix (closed shell, trace = electrons). */
    Matrix density;
};

/** One-shot AO integral bundle (shared with the MO transform). */
struct AoIntegrals
{
    Matrix overlap;
    Matrix h_core; // kinetic + nuclear attraction
    std::vector<double> eri;
    std::size_t n = 0;
};

/** Compute S, Hcore and the ERI tensor for a molecule/basis pair. */
AoIntegrals compute_ao_integrals(const Molecule& molecule,
                                 const BasisSet& basis);

/**
 * Solve closed-shell RHF. The electron count must be even (the paper's
 * Hamiltonians are built for singlet states; open-shell sectors are
 * handled downstream via constraint penalties, Section 7.1).
 */
ScfResult rhf(const Molecule& molecule, const AoIntegrals& integrals,
              const ScfOptions& options = {});

} // namespace cafqa::chem

#endif // CAFQA_CHEM_SCF_HPP
