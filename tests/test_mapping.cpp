// Tests for the fermion-to-qubit encodings and the Z2 two-qubit
// reduction: canonical anticommutation relations, encoding-independent
// spectra, and sector-correct reduced Hamiltonians.

#include <gtest/gtest.h>

#include <algorithm>

#include "../tests/reference_dense.hpp"
#include "chem/basis.hpp"
#include "chem/fermion.hpp"
#include "chem/molecule.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/scf.hpp"
#include "mapping/encoding.hpp"
#include "mapping/z2_reduction.hpp"
#include "statevector/lanczos.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {
namespace {

using chem::AoIntegrals;
using chem::BasisSet;
using chem::Molecule;
using chem::MoIntegrals;
using chem::ScfResult;

/** Frobenius-zero check for a Pauli sum. */
bool
is_zero(PauliSum op)
{
    op.simplify();
    return op.num_terms() == 0;
}

class EncodingAlgebra
    : public ::testing::TestWithParam<EncodingKind> {};

TEST_P(EncodingAlgebra, MajoranasAnticommuteAndSquareToOne)
{
    const FermionEncoding enc(GetParam(), 4);
    for (std::size_t j = 0; j < 8; ++j) {
        const PauliString gj = enc.majorana(j);
        EXPECT_TRUE(gj.is_hermitian());
        const PauliString sq = gj * gj;
        EXPECT_TRUE(sq.is_identity_letters());
        for (std::size_t k = j + 1; k < 8; ++k) {
            EXPECT_FALSE(gj.commutes_with(enc.majorana(k)))
                << "gamma_" << j << ", gamma_" << k;
        }
    }
}

TEST_P(EncodingAlgebra, CanonicalAnticommutationRelations)
{
    const std::size_t m = 3;
    const FermionEncoding enc(GetParam(), m);
    for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t q = 0; q < m; ++q) {
            // {a_p, a_q^dag} = delta_pq.
            PauliSum anti = enc.annihilation(p) * enc.creation(q) +
                            enc.creation(q) * enc.annihilation(p);
            if (p == q) {
                anti -= PauliSum::from_terms(m, {{1.0, "III"}});
            }
            EXPECT_TRUE(is_zero(anti)) << "p=" << p << " q=" << q;

            // {a_p, a_q} = 0.
            PauliSum aa = enc.annihilation(p) * enc.annihilation(q) +
                          enc.annihilation(q) * enc.annihilation(p);
            EXPECT_TRUE(is_zero(aa));
        }
    }
}

TEST_P(EncodingAlgebra, NumberOperatorOnBasisStates)
{
    const std::size_t m = 4;
    const FermionEncoding enc(GetParam(), m);
    // Occupation (1,0,1,1): every number operator must read back its bit.
    const std::vector<int> occ = {1, 0, 1, 1};
    const std::vector<int> bits = enc.occupation_to_bits(occ);
    std::uint64_t index = 0;
    for (std::size_t q = 0; q < m; ++q) {
        if (bits[q] != 0) {
            index |= std::uint64_t{1} << q;
        }
    }
    const Statevector psi = Statevector::basis_state(m, index);
    for (std::size_t p = 0; p < m; ++p) {
        EXPECT_NEAR(psi.expectation(enc.number_operator(p)), occ[p], 1e-12)
            << "mode " << p;
    }
    EXPECT_NEAR(psi.expectation(chem::total_number_operator(enc)), 3.0,
                1e-12);
}

INSTANTIATE_TEST_SUITE_P(BothEncodings, EncodingAlgebra,
                         ::testing::Values(EncodingKind::JordanWigner,
                                           EncodingKind::Parity));

TEST(SzOperator, BlockOrderingSigns)
{
    const FermionEncoding enc(EncodingKind::JordanWigner, 4); // 2 spatial
    const PauliSum sz = chem::sz_operator(enc);
    // One alpha electron in mode 0: S_z = +1/2.
    const Statevector up = Statevector::basis_state(4, 0b0001);
    EXPECT_NEAR(up.expectation(sz), 0.5, 1e-12);
    // One beta electron in mode 2: S_z = -1/2.
    const Statevector down = Statevector::basis_state(4, 0b0100);
    EXPECT_NEAR(down.expectation(sz), -0.5, 1e-12);
}

struct H2Fixture
{
    Molecule molecule = Molecule::diatomic("H", "H", 0.74);
    BasisSet basis = BasisSet::sto3g(molecule);
    AoIntegrals ints = chem::compute_ao_integrals(molecule, basis);
    ScfResult scf = chem::rhf(molecule, ints);
    MoIntegrals mo = chem::transform_to_mo(
        ints, scf, chem::make_active_space(2, 0, 2), molecule);
};

TEST(QubitHamiltonian, JordanWignerAndParityShareSpectrum)
{
    H2Fixture fx;
    const FermionEncoding jw(EncodingKind::JordanWigner, 4);
    const FermionEncoding parity(EncodingKind::Parity, 4);
    const PauliSum h_jw = chem::build_qubit_hamiltonian(fx.mo, jw);
    const PauliSum h_parity = chem::build_qubit_hamiltonian(fx.mo, parity);

    const auto spec_jw = reference::dense_spectrum(h_jw);
    const auto spec_parity = reference::dense_spectrum(h_parity);
    ASSERT_EQ(spec_jw.size(), spec_parity.size());
    for (std::size_t i = 0; i < spec_jw.size(); ++i) {
        EXPECT_NEAR(spec_jw[i], spec_parity[i], 1e-8) << "level " << i;
    }
}

TEST(QubitHamiltonian, HartreeFockDeterminantMatchesScfEnergy)
{
    H2Fixture fx;
    const FermionEncoding enc(EncodingKind::Parity, 4);
    const PauliSum h = chem::build_qubit_hamiltonian(fx.mo, enc);

    const std::vector<int> occ = chem::hartree_fock_occupation(2, 1, 1);
    const std::vector<int> bits = enc.occupation_to_bits(occ);
    std::uint64_t index = 0;
    for (std::size_t q = 0; q < bits.size(); ++q) {
        if (bits[q] != 0) {
            index |= std::uint64_t{1} << q;
        }
    }
    const Statevector hf = Statevector::basis_state(4, index);
    EXPECT_NEAR(hf.expectation(h), fx.scf.energy, 1e-8);
}

TEST(Z2Reduction, PreservesGroundEnergyInSector)
{
    H2Fixture fx;
    const FermionEncoding parity(EncodingKind::Parity, 4);
    const PauliSum h_full = chem::build_qubit_hamiltonian(fx.mo, parity);
    const PauliSum h_red =
        reduce_two_qubits(h_full, ParitySector{1, 1});
    EXPECT_EQ(h_red.num_qubits(), 2u);

    // The reduced ground energy must match the full ground energy
    // (H2 singlet ground state lives in the (1,1) sector).
    const auto full_spec = reference::dense_spectrum(h_full);
    const auto red_spec = reference::dense_spectrum(h_red);
    EXPECT_NEAR(red_spec.front(), full_spec.front(), 1e-8);

    // Every reduced eigenvalue appears in the full spectrum.
    for (const double ev : red_spec) {
        const bool found = std::any_of(
            full_spec.begin(), full_spec.end(),
            [ev](double v) { return std::abs(v - ev) < 1e-7; });
        EXPECT_TRUE(found) << "eigenvalue " << ev;
    }
}

TEST(Z2Reduction, HartreeFockBitsConsistent)
{
    // Expectation of the reduced Hamiltonian on the reduced HF bitstring
    // still equals the SCF energy.
    H2Fixture fx;
    const FermionEncoding parity(EncodingKind::Parity, 4);
    const PauliSum h_full = chem::build_qubit_hamiltonian(fx.mo, parity);
    const PauliSum h_red = reduce_two_qubits(h_full, ParitySector{1, 1});

    const std::vector<int> occ = chem::hartree_fock_occupation(2, 1, 1);
    const std::vector<int> bits =
        reduce_bits(parity.occupation_to_bits(occ));
    std::uint64_t index = 0;
    for (std::size_t q = 0; q < bits.size(); ++q) {
        if (bits[q] != 0) {
            index |= std::uint64_t{1} << q;
        }
    }
    const Statevector hf = Statevector::basis_state(2, index);
    EXPECT_NEAR(hf.expectation(h_red), fx.scf.energy, 1e-8);
}

TEST(Z2Reduction, RejectsSymmetryBreakingOperators)
{
    const PauliSum bad = PauliSum::from_terms(4, {{1.0, "IXIX"}});
    EXPECT_THROW(reduce_two_qubits(bad, ParitySector{1, 1}),
                 std::invalid_argument);
}

TEST(Z2Reduction, BitReduction)
{
    const std::vector<int> bits = {1, 0, 1, 1};
    const std::vector<int> reduced = reduce_bits(bits);
    ASSERT_EQ(reduced.size(), 2u);
    EXPECT_EQ(reduced[0], 1);
    EXPECT_EQ(reduced[1], 1);
}

TEST(QubitHamiltonian, H2FciEnergyRecoversCorrelation)
{
    H2Fixture fx;
    const FermionEncoding parity(EncodingKind::Parity, 4);
    const PauliSum h = reduce_two_qubits(
        chem::build_qubit_hamiltonian(fx.mo, parity), ParitySector{1, 1});
    const auto spectrum = reference::dense_spectrum(h);
    const double fci = spectrum.front();
    // Correlation energy of H2/STO-3G near equilibrium is ~0.02 Hartree.
    EXPECT_LT(fci, fx.scf.energy - 0.005);
    EXPECT_GT(fci, fx.scf.energy - 0.1);
}

} // namespace
} // namespace cafqa
