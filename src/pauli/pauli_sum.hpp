/**
 * @file
 * Weighted sums of Pauli strings — the qubit-Hamiltonian representation
 * used throughout CAFQA (molecular Hamiltonians, number/spin operators,
 * MaxCut objectives).
 *
 * Terms are kept canonical: each stored string has sign +1 (the sign and
 * any i factors are folded into the complex coefficient), so combining
 * like terms is a pure hash-map reduction over the letter bits.
 */
#ifndef CAFQA_PAULI_PAULI_SUM_HPP
#define CAFQA_PAULI_PAULI_SUM_HPP

#include <complex>
#include <string>
#include <vector>

#include "pauli/pauli_string.hpp"

namespace cafqa {

/** One canonical term: coefficient times a sign-free Pauli string. */
struct PauliTerm
{
    std::complex<double> coefficient;
    PauliString string; // sign() == +1 by construction
};

/** A linear combination of Pauli strings on a fixed qubit count. */
class PauliSum
{
  public:
    /** Empty (zero) operator on `num_qubits` qubits. */
    explicit PauliSum(std::size_t num_qubits = 0);

    /** Convenience builder: sum of labeled terms, e.g.
     *  {{0.1, "XYXY"}, {0.5, "IZZI"}}. */
    static PauliSum from_terms(
        std::size_t num_qubits,
        const std::vector<std::pair<std::complex<double>, std::string>>&
            terms);

    std::size_t num_qubits() const { return num_qubits_; }
    std::size_t num_terms() const { return terms_.size(); }
    const std::vector<PauliTerm>& terms() const { return terms_; }

    /** Add coeff * string; the string's own sign is folded into coeff. */
    void add_term(std::complex<double> coeff, PauliString string);

    PauliSum& operator+=(const PauliSum& other);
    PauliSum& operator-=(const PauliSum& other);
    PauliSum& operator*=(std::complex<double> scale);

    /** Operator product; term count is the product of term counts before
     *  simplification. */
    PauliSum operator*(const PauliSum& other) const;

    /** Combine like terms and drop those with |coeff| <= tolerance. */
    void simplify(double tolerance = 1e-12);

    /** Max |imag part| over coefficients (after simplify, a Hermitian
     *  operator has only real coefficients). */
    double max_imag_coefficient() const;

    /** Drop imaginary parts; requires max_imag_coefficient() below tol. */
    void chop_to_hermitian(double tolerance = 1e-8);

    /** Coefficient of the identity string (0 if absent). */
    std::complex<double> identity_coefficient() const;

    /** True when every term is diagonal (letters in {I, Z} only). */
    bool is_diagonal() const;

    /** The diagonal (I/Z-only) part of the operator. */
    PauliSum diagonal_part() const;

    /** Sum of |coeff| — an easy upper bound on the spectral norm. */
    double one_norm() const;

    /** Multi-line human-readable dump (for debugging and examples). */
    std::string to_string(std::size_t max_terms = 32) const;

  private:
    std::size_t num_qubits_ = 0;
    std::vector<PauliTerm> terms_;
};

PauliSum operator+(PauliSum a, const PauliSum& b);
PauliSum operator-(PauliSum a, const PauliSum& b);
PauliSum operator*(std::complex<double> scale, PauliSum a);

/**
 * Throw std::invalid_argument unless every coefficient's |imag part|
 * is within `tolerance` — the shared precondition of every evaluator
 * that returns a real expectation value (a silent `.real()` would hide
 * mapping bugs that produce non-Hermitian sums).
 */
void require_hermitian(const PauliSum& op, double tolerance);

/**
 * True when `a` and `b` have the same qubit count and the same terms in
 * the same order, coefficients compared bit for bit: the full identity
 * of an observable, which a memo that finds an entry by a hash confirms
 * on every hit.
 */
bool same_observable(const PauliSum& a, const PauliSum& b);

} // namespace cafqa

#endif // CAFQA_PAULI_PAULI_SUM_HPP
