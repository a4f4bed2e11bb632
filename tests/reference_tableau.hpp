/**
 * @file
 * Reference stabilizer tableau: the straightforward row-of-PauliString
 * Aaronson-Gottesman tableau (Gottesman-Knill simulation, paper
 * Section 2.3) that the library's column-packed `SymplecticTableau`
 * (`src/stabilizer/symplectic_tableau.*`) replaced, kept as the
 * differential oracle.
 *
 * The tableau tracks n destabilizer rows and n stabilizer rows, each a
 * signed Pauli string, starting from the |0...0> state (destabilizer_i =
 * X_i, stabilizer_i = Z_i). Conjugation by Clifford gates updates rows in
 * O(n/64); Pauli expectation values are computed exactly, returning only
 * -1, 0 or +1 — the property the paper exploits to evaluate each Pauli
 * term with a single noise-free "shot" (Section 3, item 7). The packed
 * tableau must match it row for row (tests/test_symplectic.cpp;
 * bench/stabilizer_scaling times the two against each other).
 *
 * Header-only so the tests and the bench share one copy.
 */
#ifndef CAFQA_TESTS_REFERENCE_TABLEAU_HPP
#define CAFQA_TESTS_REFERENCE_TABLEAU_HPP

#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "pauli/pauli_string.hpp"

namespace cafqa::reference {

/** Stabilizer tableau for a pure n-qubit stabilizer state. */
class Tableau
{
  public:
    /** Tableau of the all-zeros computational basis state. */
    explicit Tableau(std::size_t num_qubits) : num_qubits_(num_qubits)
    {
        CAFQA_REQUIRE(num_qubits >= 1, "tableau needs at least one qubit");
        rows_.reserve(2 * num_qubits);
        for (std::size_t i = 0; i < num_qubits; ++i) {
            PauliString d(num_qubits);
            d.set_x_bit(i, true);
            rows_.push_back(std::move(d));
        }
        for (std::size_t i = 0; i < num_qubits; ++i) {
            PauliString s(num_qubits);
            s.set_z_bit(i, true);
            rows_.push_back(std::move(s));
        }
    }

    std::size_t num_qubits() const { return num_qubits_; }

    /** @name Clifford gate conjugations (in-place). */
    /// @{
    void
    h(std::size_t q)
    {
        // H: X^x Z^z -> Z^x X^z = (-1)^{xz} X^z Z^x
        apply_single_qubit(q, [](PauliString& row, std::size_t qq, bool x,
                                 bool z) {
            if (x && z) {
                row.mul_phase(2);
            }
            row.set_x_bit(qq, z);
            row.set_z_bit(qq, x);
        });
    }

    void
    x(std::size_t q)
    {
        // X: Z -> -Z, X -> X  =>  phase += 2z
        apply_single_qubit(q, [](PauliString& row, std::size_t, bool, bool z) {
            if (z) {
                row.mul_phase(2);
            }
        });
    }

    void
    y(std::size_t q)
    {
        // Y: X -> -X, Z -> -Z  =>  phase += 2*(x XOR z)
        apply_single_qubit(q, [](PauliString& row, std::size_t, bool x,
                                 bool z) {
            if (x != z) {
                row.mul_phase(2);
            }
        });
    }

    void
    z(std::size_t q)
    {
        // Z: X -> -X  =>  phase += 2x
        apply_single_qubit(q, [](PauliString& row, std::size_t, bool x, bool) {
            if (x) {
                row.mul_phase(2);
            }
        });
    }

    void
    s(std::size_t q)
    {
        // S: X^x Z^z -> i^x X^x Z^{z^x}
        apply_single_qubit(q, [](PauliString& row, std::size_t qq, bool x,
                                 bool z) {
            if (x) {
                row.mul_phase(1);
                row.set_z_bit(qq, !z);
            }
        });
    }

    void
    sdg(std::size_t q)
    {
        // Sdg: X^x Z^z -> i^{-x} X^x Z^{z^x}
        apply_single_qubit(q, [](PauliString& row, std::size_t qq, bool x,
                                 bool z) {
            if (x) {
                row.mul_phase(3);
                row.set_z_bit(qq, !z);
            }
        });
    }

    void
    cx(std::size_t control, std::size_t target)
    {
        CAFQA_REQUIRE(control < num_qubits_ && target < num_qubits_,
                      "qubit index out of range");
        CAFQA_REQUIRE(control != target, "control equals target");
        // In the i^k X^x Z^z convention CX needs no phase update:
        //   X_c -> X_c X_t, Z_t -> Z_c Z_t.
        for (auto& row : rows_) {
            if (row.x_bit(control)) {
                row.set_x_bit(target, !row.x_bit(target));
            }
            if (row.z_bit(target)) {
                row.set_z_bit(control, !row.z_bit(control));
            }
        }
    }

    void
    cz(std::size_t a, std::size_t b)
    {
        // CZ = (I ox H) CX (I ox H)
        h(b);
        cx(a, b);
        h(b);
    }

    void
    swap(std::size_t a, std::size_t b)
    {
        cx(a, b);
        cx(b, a);
        cx(a, b);
    }

    /// @}

    /** Rotation by k*pi/2 about X/Y/Z (k taken mod 4). */
    void
    rx_steps(std::size_t q, int k)
    {
        switch (((k % 4) + 4) % 4) {
          case 0: break;
          case 1: sdg(q); h(q); sdg(q); break; // RX(pi/2) = Sdg H Sdg
          case 2: x(q); break;
          case 3: s(q); h(q); s(q); break;     // RX(3pi/2) = S H S
        }
    }

    void
    ry_steps(std::size_t q, int k)
    {
        switch (((k % 4) + 4) % 4) {
          case 0: break;
          case 1: z(q); h(q); break;           // RY(pi/2) = H * Z
          case 2: y(q); break;
          case 3: h(q); z(q); break;           // RY(3pi/2) = Z * H
        }
    }

    void
    rz_steps(std::size_t q, int k)
    {
        switch (((k % 4) + 4) % 4) {
          case 0: break;
          case 1: s(q); break;
          case 2: z(q); break;
          case 3: sdg(q); break;
        }
    }

    /** Two-qubit ZZ rotation by k*pi/2 (RZZ = CX . RZ_b . CX). */
    void
    rzz_steps(std::size_t a, std::size_t b, int k)
    {
        if (((k % 4) + 4) % 4 == 0) {
            return;
        }
        cx(a, b);
        rz_steps(b, k);
        cx(a, b);
    }

    /**
     * Exact expectation of a Hermitian Pauli string on the current state.
     * @return +1, -1, or 0.
     */
    int
    expectation(const PauliString& pauli) const
    {
        CAFQA_REQUIRE(pauli.num_qubits() == num_qubits_,
                      "operator qubit count mismatch");
        CAFQA_REQUIRE(pauli.is_hermitian(),
                      "expectation requires a Hermitian Pauli string");

        // If P anticommutes with any stabilizer generator, <P> = 0.
        for (std::size_t i = 0; i < num_qubits_; ++i) {
            if (!pauli.commutes_with(rows_[num_qubits_ + i])) {
                return 0;
            }
        }

        // Otherwise P is +/- a product of stabilizer generators; generator i
        // participates iff P anticommutes with destabilizer i.
        PauliString product(num_qubits_);
        for (std::size_t i = 0; i < num_qubits_; ++i) {
            if (!pauli.commutes_with(rows_[i])) {
                product *= rows_[num_qubits_ + i];
            }
        }
        CAFQA_ASSERT(product.equal_letters(pauli),
                     "commuting Pauli is not in the stabilizer group");
        // <product> = +1 by construction, so <P> = sign(P) * sign(product).
        const double ratio =
            (pauli.sign() * std::conj(product.sign())).real();
        return ratio > 0 ? 1 : -1;
    }

    /** Read access to stabilizer generator i (sign included). */
    const PauliString&
    stabilizer(std::size_t i) const
    {
        CAFQA_REQUIRE(i < num_qubits_, "stabilizer index out of range");
        return rows_[num_qubits_ + i];
    }

    /** Read access to destabilizer generator i. */
    const PauliString&
    destabilizer(std::size_t i) const
    {
        CAFQA_REQUIRE(i < num_qubits_, "destabilizer index out of range");
        return rows_[i];
    }

    /**
     * Internal consistency check: destabilizer/stabilizer pairs satisfy
     * the symplectic anticommutation pattern and every row is Hermitian.
     */
    bool
    check_invariants() const
    {
        for (const auto& row : rows_) {
            if (!row.is_hermitian()) {
                return false;
            }
        }
        const std::size_t n = num_qubits_;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                const bool commute = rows_[i].commutes_with(rows_[n + j]);
                if ((i == j) == commute) {
                    return false; // d_i must anticommute exactly with s_i
                }
                if (!rows_[n + i].commutes_with(rows_[n + j])) {
                    return false; // stabilizers commute pairwise
                }
                if (!rows_[i].commutes_with(rows_[j])) {
                    return false; // destabilizers commute pairwise
                }
            }
        }
        return true;
    }

  private:
    /** Apply a single-qubit conjugation given the bit/phase update rule:
     *  (x,z) -> (new_x, new_z), phase += phase_step(x, z). */
    template <typename Rule>
    void
    apply_single_qubit(std::size_t q, Rule rule)
    {
        CAFQA_REQUIRE(q < num_qubits_, "qubit index out of range");
        for (auto& row : rows_) {
            const bool x = row.x_bit(q);
            const bool z = row.z_bit(q);
            if (!x && !z) {
                continue;
            }
            rule(row, q, x, z);
        }
    }

    std::size_t num_qubits_;
    /** Rows 0..n-1: destabilizers; rows n..2n-1: stabilizers. */
    std::vector<PauliString> rows_;
};

} // namespace cafqa::reference

#endif // CAFQA_TESTS_REFERENCE_TABLEAU_HPP
