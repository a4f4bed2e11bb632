#include "problems/molecule_factory.hpp"

#include <cmath>
#include <functional>
#include <map>

#include "chem/basis.hpp"
#include "chem/fermion.hpp"
#include "chem/mo_integrals.hpp"
#include "circuit/efficient_su2.hpp"
#include "common/error.hpp"
#include "core/hartree_fock_baseline.hpp"
#include "mapping/encoding.hpp"
#include "mapping/z2_reduction.hpp"


namespace cafqa::problems {

namespace {

using chem::Molecule;

struct MoleculeSpec
{
    MoleculeInfo info;
    std::function<Molecule(double)> geometry;
    std::size_t default_frozen = 0;
    std::size_t default_active = 0; // 0 = all remaining
    chem::ScfOptions scf;
};

const std::map<std::string, MoleculeSpec>&
spec_table()
{
    static const std::map<std::string, MoleculeSpec> table = [] {
        std::map<std::string, MoleculeSpec> t;
        chem::ScfOptions default_scf;
        chem::ScfOptions hard_scf;
        hard_scf.max_iterations = 400;
        hard_scf.damping = 0.5;
        hard_scf.damping_iterations = 8;
        hard_scf.level_shift = 0.3;

        t["H2"] = MoleculeSpec{
            {"H2", 0.74, 0.37, 2.96, 2, 2, 0, 2},
            [](double r) { return Molecule::diatomic("H", "H", r); },
            0, 0, default_scf};
        t["LiH"] = MoleculeSpec{
            {"LiH", 1.6, 0.8, 4.8, 6, 3, 1, 4},
            [](double r) { return Molecule::diatomic("Li", "H", r); },
            1, 3, default_scf};
        t["H2O"] = MoleculeSpec{
            {"H2O", 1.0, 0.5, 4.0, 7, 7, 0, 12},
            [](double r) { return Molecule::bent("H", "O", r, 104.5); },
            0, 0, default_scf};
        t["H6"] = MoleculeSpec{
            {"H6", 0.9, 0.45, 3.6, 6, 6, 0, 10},
            [](double r) { return Molecule::linear_chain("H", 6, r); },
            0, 0, default_scf};
        t["N2"] = MoleculeSpec{
            {"N2", 1.09, 0.55, 4.36, 10, 7, 2, 12},
            [](double r) { return Molecule::diatomic("N", "N", r); },
            2, 7, default_scf};
        t["NaH"] = MoleculeSpec{
            {"NaH", 1.9, 0.95, 7.6, 10, 7, 3, 12},
            [](double r) { return Molecule::diatomic("Na", "H", r); },
            3, 7, hard_scf};
        t["BeH2"] = MoleculeSpec{
            {"BeH2", 1.32, 0.66, 5.28, 7, 7, 0, 12},
            [](double r) {
                return Molecule::linear_symmetric("H", "Be", r);
            },
            0, 0, default_scf};
        // H10 chain: the 18-qubit stand-in for the paper's H2-S1
        // Hamiltonian (see DESIGN.md, Substitutions).
        t["H10"] = MoleculeSpec{
            {"H10", 1.0, 0.5, 3.0, 10, 10, 0, 18},
            [](double r) { return Molecule::linear_chain("H", 10, r); },
            0, 0, default_scf};
        t["Cr2"] = MoleculeSpec{
            {"Cr2", 1.68, 1.25, 3.5, 36, 18, 18, 34},
            [](double r) { return Molecule::diatomic("Cr", "Cr", r); },
            18, 18, hard_scf};
        return t;
    }();
    return table;
}

} // namespace

std::vector<std::string>
supported_molecules()
{
    std::vector<std::string> names;
    for (const auto& [name, spec] : spec_table()) {
        (void)spec;
        names.push_back(name);
    }
    return names;
}

MoleculeInfo
molecule_info(const std::string& name)
{
    const auto it = spec_table().find(name);
    CAFQA_REQUIRE(it != spec_table().end(),
                  "unknown molecule: " + name);
    return it->second.info;
}

MolecularSystem
make_molecular_system(const std::string& name, double bond_length_angstrom,
                      const MolecularSystemOptions& options)
{
    const auto it = spec_table().find(name);
    CAFQA_REQUIRE(it != spec_table().end(), "unknown molecule: " + name);
    const MoleculeSpec& spec = it->second;

    MolecularSystem system;
    system.name = name;
    system.bond_length = bond_length_angstrom;
    system.molecule = spec.geometry(bond_length_angstrom);

    // ---- SCF on the neutral closed-shell molecule. ----
    const chem::BasisSet basis = chem::BasisSet::sto3g(system.molecule);
    system.total_orbitals = basis.size();
    const chem::AoIntegrals ints =
        chem::compute_ao_integrals(system.molecule, basis);
    chem::ScfResult scf = chem::rhf(system.molecule, ints, spec.scf);
    if (!scf.converged) {
        // Stretched geometries can defeat plain DIIS (the paper hits the
        // same with Psi4 at large H2O bonds). Retry once with heavy
        // damping and a level shift; keep whichever run is variationally
        // better.
        chem::ScfOptions retry = spec.scf;
        retry.max_iterations = 500;
        retry.damping = 0.5;
        retry.damping_iterations = 12;
        retry.level_shift = 0.4;
        chem::ScfResult second = chem::rhf(system.molecule, ints, retry);
        if (second.converged || second.energy < scf.energy) {
            scf = std::move(second);
        }
    }
    system.scf_converged = scf.converged;
    system.scf_energy = scf.energy;

    // ---- Active space. ----
    std::size_t n_frozen = spec.default_frozen;
    if (options.frozen_override >= 0) {
        n_frozen = static_cast<std::size_t>(options.frozen_override);
    }
    std::size_t n_active = (options.active_override > 0)
        ? options.active_override
        : spec.default_active;
    if (n_active == 0) {
        n_active = basis.size() - n_frozen;
    }
    system.frozen_orbitals = n_frozen;
    system.active_orbitals = n_active;

    const chem::ActiveSpace space =
        chem::make_active_space(basis.size(), n_frozen, n_active);
    const chem::MoIntegrals mo =
        chem::transform_to_mo(ints, scf, space, system.molecule);

    // ---- Target sector. ----
    const int active_electrons = mo.num_active_electrons -
                                 options.sector_charge;
    CAFQA_REQUIRE(active_electrons >= 0,
                  "sector charge removes more electrons than available");
    const int two_sz = options.sector_spin_2sz;
    CAFQA_REQUIRE((active_electrons + two_sz) % 2 == 0,
                  "electron count and 2*Sz must have equal parity");
    system.n_alpha = (active_electrons + two_sz) / 2;
    system.n_beta = (active_electrons - two_sz) / 2;
    CAFQA_REQUIRE(system.n_beta >= 0 &&
                      static_cast<std::size_t>(system.n_alpha) <= n_active,
                  "sector does not fit in the active space");

    // ---- Mapping + reduction. ----
    const FermionEncoding encoding(EncodingKind::Parity, 2 * n_active);
    const ParitySector sector{system.n_alpha, system.n_beta};

    PauliSum h_full = chem::build_qubit_hamiltonian(mo, encoding);
    system.hamiltonian = reduce_two_qubits(h_full, sector);
    system.number_op =
        reduce_two_qubits(chem::total_number_operator(encoding), sector);
    system.sz_op = reduce_two_qubits(chem::sz_operator(encoding), sector);
    system.num_qubits = system.hamiltonian.num_qubits();

    // ---- HF reference in this sector. ----
    const std::vector<int> occ = chem::hartree_fock_occupation(
        n_active, system.n_alpha, system.n_beta);
    system.hf_bits = reduce_bits(encoding.occupation_to_bits(occ));
    system.hf_energy =
        basis_state_expectation(system.hamiltonian, system.hf_bits);

    // ---- Ansatz. ----
    system.ansatz = make_efficient_su2(system.num_qubits);
    return system;
}

VqaObjective
make_objective(const MolecularSystem& system, double number_weight,
               double sz_weight)
{
    VqaObjective objective;
    objective.hamiltonian = system.hamiltonian;
    objective.add_number_constraint(system.number_op,
                                    system.n_alpha + system.n_beta,
                                    number_weight);
    objective.add_sz_constraint(
        system.sz_op, 0.5 * (system.n_alpha - system.n_beta), sz_weight);
    return objective;
}

std::function<bool(std::uint64_t)>
sector_filter(const MolecularSystem& system)
{
    const std::size_t m = system.active_orbitals;
    const ParitySector sector{system.n_alpha, system.n_beta};
    const int want_alpha = system.n_alpha;
    const int want_beta = system.n_beta;
    return [m, sector, want_alpha, want_beta](std::uint64_t index) {
        const auto [na, nb] = reduced_state_electrons(index, m, sector);
        return na == want_alpha && nb == want_beta;
    };
}

} // namespace cafqa::problems
