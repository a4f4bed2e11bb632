#include "pauli/pauli_string.hpp"

#include <bit>

#include "common/error.hpp"

namespace cafqa {

namespace {

std::size_t
word_count(std::size_t num_qubits)
{
    return (num_qubits + 63) / 64;
}

std::size_t
popcount_and(const std::vector<std::uint64_t>& a,
             const std::vector<std::uint64_t>& b)
{
    std::size_t total = 0;
    for (std::size_t w = 0; w < a.size(); ++w) {
        total += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
    }
    return total;
}

} // namespace

PauliString::PauliString(std::size_t num_qubits)
    : num_qubits_(num_qubits),
      x_(word_count(num_qubits), 0),
      z_(word_count(num_qubits), 0)
{}

PauliString
PauliString::from_label(const std::string& label)
{
    std::size_t pos = 0;
    std::uint8_t phase = 0;
    if (pos < label.size() && (label[pos] == '+' || label[pos] == '-')) {
        if (label[pos] == '-') {
            phase = 2;
        }
        ++pos;
    }
    if (pos < label.size() && label[pos] == 'i') {
        phase = (phase + 1) & 3;
        ++pos;
    }
    const std::size_t n = label.size() - pos;
    PauliString p(n);
    for (std::size_t q = 0; q < n; ++q) {
        switch (label[pos + q]) {
          case 'I': break;
          case 'X': p.set_x_bit(q, true); break;
          case 'Y':
            p.set_x_bit(q, true);
            p.set_z_bit(q, true);
            phase = (phase + 1) & 3; // Y = i * X * Z
            break;
          case 'Z': p.set_z_bit(q, true); break;
          default:
            CAFQA_REQUIRE(false, "invalid Pauli letter in label: " + label);
        }
    }
    p.phase_ = phase;
    return p;
}

bool
PauliString::x_bit(std::size_t qubit) const
{
    return (x_[qubit / 64] >> (qubit % 64)) & 1;
}

bool
PauliString::z_bit(std::size_t qubit) const
{
    return (z_[qubit / 64] >> (qubit % 64)) & 1;
}

void
PauliString::set_x_bit(std::size_t qubit, bool value)
{
    const std::uint64_t mask = std::uint64_t{1} << (qubit % 64);
    if (value) {
        x_[qubit / 64] |= mask;
    } else {
        x_[qubit / 64] &= ~mask;
    }
}

void
PauliString::set_z_bit(std::size_t qubit, bool value)
{
    const std::uint64_t mask = std::uint64_t{1} << (qubit % 64);
    if (value) {
        z_[qubit / 64] |= mask;
    } else {
        z_[qubit / 64] &= ~mask;
    }
}

PauliLetter
PauliString::letter(std::size_t qubit) const
{
    const bool x = x_bit(qubit);
    const bool z = z_bit(qubit);
    if (x && z) {
        return PauliLetter::Y;
    }
    if (x) {
        return PauliLetter::X;
    }
    if (z) {
        return PauliLetter::Z;
    }
    return PauliLetter::I;
}

void
PauliString::set_letter(std::size_t qubit, PauliLetter new_letter)
{
    // Keep sign() invariant: compensate the implicit i carried by each Y.
    const bool was_y = letter(qubit) == PauliLetter::Y;
    const bool is_y = new_letter == PauliLetter::Y;
    if (was_y && !is_y) {
        phase_ = (phase_ + 3) & 3;
    } else if (!was_y && is_y) {
        phase_ = (phase_ + 1) & 3;
    }
    set_x_bit(qubit, new_letter == PauliLetter::X ||
                     new_letter == PauliLetter::Y);
    set_z_bit(qubit, new_letter == PauliLetter::Z ||
                     new_letter == PauliLetter::Y);
}

std::size_t
PauliString::weight() const
{
    std::size_t total = 0;
    for (std::size_t w = 0; w < x_.size(); ++w) {
        total += static_cast<std::size_t>(std::popcount(x_[w] | z_[w]));
    }
    return total;
}

bool
PauliString::is_identity_letters() const
{
    for (std::size_t w = 0; w < x_.size(); ++w) {
        if ((x_[w] | z_[w]) != 0) {
            return false;
        }
    }
    return true;
}

bool
PauliString::is_hermitian() const
{
    const std::size_t y_count = popcount_and(x_, z_);
    return ((phase_ + 4 - (y_count & 3)) & 1) == 0;
}

std::complex<double>
PauliString::sign() const
{
    const std::size_t y_count = popcount_and(x_, z_);
    const std::uint8_t k =
        static_cast<std::uint8_t>((phase_ + 4 - (y_count & 3)) & 3);
    return i_power(k);
}

bool
PauliString::commutes_with(const PauliString& other) const
{
    CAFQA_REQUIRE(num_qubits_ == other.num_qubits_, "qubit count mismatch");
    const std::size_t sym = popcount_and(x_, other.z_) +
                            popcount_and(z_, other.x_);
    return (sym & 1) == 0;
}

PauliString&
PauliString::operator*=(const PauliString& rhs)
{
    CAFQA_REQUIRE(num_qubits_ == rhs.num_qubits_, "qubit count mismatch");
    // X^{x1} Z^{z1} X^{x2} Z^{z2} = (-1)^{z1.x2} X^{x1^x2} Z^{z1^z2}
    const std::size_t anti = popcount_and(z_, rhs.x_);
    phase_ = static_cast<std::uint8_t>(
        (phase_ + rhs.phase_ + 2 * (anti & 1)) & 3);
    for (std::size_t w = 0; w < x_.size(); ++w) {
        x_[w] ^= rhs.x_[w];
        z_[w] ^= rhs.z_[w];
    }
    return *this;
}

bool
PauliString::operator==(const PauliString& other) const
{
    return num_qubits_ == other.num_qubits_ && phase_ == other.phase_ &&
           x_ == other.x_ && z_ == other.z_;
}

bool
PauliString::equal_letters(const PauliString& other) const
{
    return num_qubits_ == other.num_qubits_ && x_ == other.x_ &&
           z_ == other.z_;
}

std::string
PauliString::to_label() const
{
    const std::complex<double> s = sign();
    std::string out;
    if (s.real() < -0.5) {
        out += "-";
    } else if (s.imag() > 0.5) {
        out += "+i";
    } else if (s.imag() < -0.5) {
        out += "-i";
    }
    for (std::size_t q = 0; q < num_qubits_; ++q) {
        switch (letter(q)) {
          case PauliLetter::I: out += 'I'; break;
          case PauliLetter::X: out += 'X'; break;
          case PauliLetter::Y: out += 'Y'; break;
          case PauliLetter::Z: out += 'Z'; break;
        }
    }
    return out;
}

void
PauliString::remove_qubit(std::size_t qubit)
{
    CAFQA_REQUIRE(qubit < num_qubits_, "qubit index out of range");
    CAFQA_REQUIRE(!x_bit(qubit),
                  "cannot remove a qubit carrying an X/Y component");
    PauliString shrunk(num_qubits_ - 1);
    for (std::size_t q = 0; q < num_qubits_; ++q) {
        if (q == qubit) {
            continue;
        }
        const std::size_t dst = (q < qubit) ? q : q - 1;
        shrunk.set_x_bit(dst, x_bit(q));
        shrunk.set_z_bit(dst, z_bit(q));
    }
    shrunk.phase_ = phase_;
    *this = std::move(shrunk);
}

std::size_t
PauliString::letters_hash() const
{
    std::size_t h = 0x9e3779b97f4a7c15ull ^ num_qubits_;
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    for (std::uint64_t w : x_) {
        mix(w);
    }
    for (std::uint64_t w : z_) {
        mix(w ^ 0xabcdef1234567890ull);
    }
    return h;
}

PauliString
operator*(PauliString lhs, const PauliString& rhs)
{
    lhs *= rhs;
    return lhs;
}

} // namespace cafqa
