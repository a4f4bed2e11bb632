/**
 * @file
 * Column-bit-packed symplectic stabilizer tableau — the word-parallel
 * production representation behind the Gottesman-Knill hot path (the
 * legacy row-of-PauliString `Tableau` in `tests/reference_tableau.hpp`
 * is kept as the reference oracle for differential tests).
 *
 * Layout: instead of 2n rows each packing n qubits, the X/Z supports
 * are stored as per-qubit *columns* spanning all rows of a plane
 * (destabilizers rows 0..n-1 in one plane, stabilizers in the other),
 * 64 rows per word. A single-qubit Clifford conjugation then touches
 * one X column, one Z column and the two packed phase bit-planes —
 * a handful of uint64 AND/XOR operations updating 64 rows at a time —
 * and CX is two column XORs. Phases keep the library-wide
 * i^k X^x Z^z convention (Y = i*X*Z) as two bit-planes (k mod 4), so
 * every update is bit-identical to the legacy row-based rules.
 *
 * The packed columns are exposed read-only; `StabilizerExpectationEngine`
 * (`stabilizer/expectation_engine.hpp`) builds whole-Hamiltonian
 * evaluation passes on top of them.
 */
#ifndef CAFQA_STABILIZER_SYMPLECTIC_TABLEAU_HPP
#define CAFQA_STABILIZER_SYMPLECTIC_TABLEAU_HPP

#include <cstdint>
#include <vector>

#include "pauli/pauli_string.hpp"

namespace cafqa {

/** Column-packed stabilizer tableau for a pure n-qubit state. */
class SymplecticTableau
{
  public:
    /** Tableau of the all-zeros computational basis state. */
    explicit SymplecticTableau(std::size_t num_qubits);

    std::size_t num_qubits() const { return num_qubits_; }
    /** Words per column (64 plane rows each). */
    std::size_t words() const { return words_; }

    /** @name Clifford gate conjugations (in-place, word-parallel). */
    /// @{
    void h(std::size_t q);
    void x(std::size_t q);
    void y(std::size_t q);
    void z(std::size_t q);
    void s(std::size_t q);
    void sdg(std::size_t q);
    void cx(std::size_t control, std::size_t target);
    void cz(std::size_t a, std::size_t b);
    void swap(std::size_t a, std::size_t b);
    /// @}

    /** Rotation by k*pi/2 about X/Y/Z (k taken mod 4). */
    void rx_steps(std::size_t q, int k);
    void ry_steps(std::size_t q, int k);
    void rz_steps(std::size_t q, int k);
    /** Two-qubit ZZ rotation by k*pi/2 (RZZ = CX . RZ_b . CX). */
    void rzz_steps(std::size_t a, std::size_t b, int k);

    /**
     * Exact expectation of a Hermitian Pauli string on the current state.
     * @return +1, -1, or 0.
     */
    int expectation(const PauliString& pauli) const;

    /** Reconstruct stabilizer generator i as a signed PauliString. */
    PauliString stabilizer(std::size_t i) const;
    /** Reconstruct destabilizer generator i. */
    PauliString destabilizer(std::size_t i) const;

    /** Internal consistency check (symplectic pattern, Hermitian rows). */
    bool check_invariants() const;

    /** @name Packed read access for the expectation engine.
     *  Each accessor returns `words()` uint64s; bit r of word w is row
     *  64*w + r of the plane. */
    /// @{
    const std::uint64_t* x_destab(std::size_t q) const
    {
        return x_destab_.data() + q * words_;
    }
    const std::uint64_t* z_destab(std::size_t q) const
    {
        return z_destab_.data() + q * words_;
    }
    const std::uint64_t* x_stab(std::size_t q) const
    {
        return x_stab_.data() + q * words_;
    }
    const std::uint64_t* z_stab(std::size_t q) const
    {
        return z_stab_.data() + q * words_;
    }
    /** Stabilizer-plane phase bit-planes (phase = p0 + 2*p1 mod 4). */
    const std::uint64_t* phase0_stab() const { return p0_stab_.data(); }
    const std::uint64_t* phase1_stab() const { return p1_stab_.data(); }
    /// @}

  private:
    PauliString reconstruct_row(const std::vector<std::uint64_t>& x,
                                const std::vector<std::uint64_t>& z,
                                const std::vector<std::uint64_t>& p0,
                                const std::vector<std::uint64_t>& p1,
                                std::size_t row) const;

    std::size_t num_qubits_ = 0;
    std::size_t words_ = 0;
    /** Column-major supports: element [q * words_ + w]. */
    std::vector<std::uint64_t> x_destab_, z_destab_, x_stab_, z_stab_;
    /** Row-packed phase exponents mod 4, two bit-planes per plane. */
    std::vector<std::uint64_t> p0_destab_, p1_destab_, p0_stab_, p1_stab_;
};

/**
 * Phase exponent (i^k, k mod 4) of the product of the stabilizer
 * generators selected by `sel` (a `t.words()`-word row mask over the
 * stabilizer plane), accumulated in row order — the destabilizer-selected
 * generator accumulation at the core of sign recovery. Shared by
 * `SymplecticTableau::expectation` and the batched engine.
 */
int stabilizer_product_phase(const SymplecticTableau& t,
                             const std::uint64_t* sel);

} // namespace cafqa

#endif // CAFQA_STABILIZER_SYMPLECTIC_TABLEAU_HPP
