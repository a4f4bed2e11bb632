/**
 * @file
 * Bit-packed n-qubit Pauli strings with exact phase tracking.
 *
 * Internal representation: P = i^phase * prod_q X_q^{x_q} Z_q^{z_q},
 * with the X factor to the left of the Z factor on each qubit. In this
 * convention Y = i * X * Z, so a Hermitian string made of {I,X,Y,Z}
 * letters with a real sign s in {+1,-1} has
 *     phase = (2*s_bit + #Y) mod 4.
 *
 * The X/Z supports are packed 64 qubits per word, which keeps products,
 * commutation checks and tableau updates O(n/64).
 */
#ifndef CAFQA_PAULI_PAULI_STRING_HPP
#define CAFQA_PAULI_PAULI_STRING_HPP

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

namespace cafqa {

/** Single-qubit Pauli letter. */
enum class PauliLetter : std::uint8_t { I = 0, X = 1, Y = 2, Z = 3 };

/** An n-qubit Pauli operator with a global phase i^k. */
class PauliString
{
  public:
    /** Identity on `num_qubits` qubits. */
    explicit PauliString(std::size_t num_qubits = 0);

    /**
     * Parse from text such as "XIZY", "-XX", "+iZZ", "-iYI".
     * Qubit 0 is the leftmost letter.
     */
    static PauliString from_label(const std::string& label);

    std::size_t num_qubits() const { return num_qubits_; }

    /** True if the qubit carries an X or Y component. */
    bool x_bit(std::size_t qubit) const;
    /** True if the qubit carries a Z or Y component. */
    bool z_bit(std::size_t qubit) const;
    void set_x_bit(std::size_t qubit, bool value);
    void set_z_bit(std::size_t qubit, bool value);

    /** The Pauli letter on one qubit ignoring the global phase. */
    PauliLetter letter(std::size_t qubit) const;
    /** Overwrite the letter on one qubit, adjusting phase so that the
     *  string remains i^phase * X^x Z^z with Y counted as i*XZ. */
    void set_letter(std::size_t qubit, PauliLetter letter);

    /** Phase exponent k in P = i^k * X^x Z^z, in {0,1,2,3}. */
    std::uint8_t phase_exponent() const { return phase_; }
    void set_phase_exponent(std::uint8_t k) { phase_ = k & 3; }
    /** Multiply the global phase by i^k. */
    void mul_phase(std::uint8_t k) { phase_ = (phase_ + k) & 3; }
    /** i^k as a complex number (k taken mod 4), e.g.
     *  `i_power(p.phase_exponent())` is the phase factor of `p`. */
    static std::complex<double> i_power(std::uint8_t k)
    {
        switch (k & 3) {
          case 0: return {1.0, 0.0};
          case 1: return {0.0, 1.0};
          case 2: return {-1.0, 0.0};
          default: return {0.0, -1.0};
        }
    }

    /** Number of non-identity letters. */
    std::size_t weight() const;

    /** True when every letter is I (phase may still be nontrivial). */
    bool is_identity_letters() const;

    /** True when the operator is Hermitian, i.e. equals +/- a tensor
     *  product of {I,X,Y,Z}. */
    bool is_hermitian() const;

    /**
     * The coefficient c in P = c * (tensor of letters), where the letter
     * string is as returned by letter(). For Hermitian strings this is
     * +1 or -1; otherwise +/-i.
     */
    std::complex<double> sign() const;

    /** True iff this commutes with `other` (phases ignored). */
    bool commutes_with(const PauliString& other) const;

    /** In-place product: *this = *this * rhs, tracking phase exactly. */
    PauliString& operator*=(const PauliString& rhs);

    bool operator==(const PauliString& other) const;

    /** True when the letters match, ignoring the global phase. */
    bool equal_letters(const PauliString& other) const;

    /** Label such as "-iXIZY" (qubit 0 leftmost). */
    std::string to_label() const;

    /** Remove the given qubit position, shifting higher qubits down.
     *  The removed letter must be I or Z; its phase is untouched (the
     *  caller accounts for the Z eigenvalue). */
    void remove_qubit(std::size_t qubit);

    /** Packed words, 64 qubits each, for hashing and fast iteration. */
    const std::vector<std::uint64_t>& x_words() const { return x_; }
    const std::vector<std::uint64_t>& z_words() const { return z_; }

    /** Stable hash over the letters (phase excluded). */
    std::size_t letters_hash() const;

  private:
    std::size_t num_qubits_ = 0;
    std::uint8_t phase_ = 0;
    std::vector<std::uint64_t> x_;
    std::vector<std::uint64_t> z_;
};

/** Out-of-place product with exact phase. */
PauliString operator*(PauliString lhs, const PauliString& rhs);

} // namespace cafqa

#endif // CAFQA_PAULI_PAULI_STRING_HPP
