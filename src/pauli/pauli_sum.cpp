#include "pauli/pauli_sum.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"

namespace cafqa {

namespace {

/** Strip the sign/phase from a string into the coefficient. */
void
canonicalize(std::complex<double>& coeff, PauliString& string)
{
    coeff *= string.sign();
    // Reset phase so that sign() == +1: phase must equal #Y mod 4.
    std::size_t y_count = 0;
    for (std::size_t q = 0; q < string.num_qubits(); ++q) {
        if (string.letter(q) == PauliLetter::Y) {
            ++y_count;
        }
    }
    string.set_phase_exponent(static_cast<std::uint8_t>(y_count & 3));
}

} // namespace

PauliSum::PauliSum(std::size_t num_qubits) : num_qubits_(num_qubits) {}

PauliSum
PauliSum::from_terms(
    std::size_t num_qubits,
    const std::vector<std::pair<std::complex<double>, std::string>>& terms)
{
    PauliSum sum(num_qubits);
    for (const auto& [coeff, label] : terms) {
        PauliString p = PauliString::from_label(label);
        CAFQA_REQUIRE(p.num_qubits() == num_qubits,
                      "label length does not match qubit count: " + label);
        sum.add_term(coeff, std::move(p));
    }
    sum.simplify();
    return sum;
}

void
PauliSum::add_term(std::complex<double> coeff, PauliString string)
{
    CAFQA_REQUIRE(string.num_qubits() == num_qubits_,
                  "term qubit count mismatch");
    canonicalize(coeff, string);
    terms_.push_back(PauliTerm{coeff, std::move(string)});
}

PauliSum&
PauliSum::operator+=(const PauliSum& other)
{
    CAFQA_REQUIRE(num_qubits_ == other.num_qubits_, "qubit count mismatch");
    terms_.insert(terms_.end(), other.terms_.begin(), other.terms_.end());
    return *this;
}

PauliSum&
PauliSum::operator-=(const PauliSum& other)
{
    CAFQA_REQUIRE(num_qubits_ == other.num_qubits_, "qubit count mismatch");
    for (const auto& term : other.terms_) {
        terms_.push_back(PauliTerm{-term.coefficient, term.string});
    }
    return *this;
}

PauliSum&
PauliSum::operator*=(std::complex<double> scale)
{
    for (auto& term : terms_) {
        term.coefficient *= scale;
    }
    return *this;
}

PauliSum
PauliSum::operator*(const PauliSum& other) const
{
    CAFQA_REQUIRE(num_qubits_ == other.num_qubits_, "qubit count mismatch");
    PauliSum product(num_qubits_);
    product.terms_.reserve(terms_.size() * other.terms_.size());
    for (const auto& a : terms_) {
        for (const auto& b : other.terms_) {
            PauliString s = a.string * b.string;
            std::complex<double> c = a.coefficient * b.coefficient;
            canonicalize(c, s);
            product.terms_.push_back(PauliTerm{c, std::move(s)});
        }
    }
    product.simplify();
    return product;
}

void
PauliSum::simplify(double tolerance)
{
    std::unordered_map<std::size_t, std::vector<std::size_t>> buckets;
    std::vector<PauliTerm> combined;
    combined.reserve(terms_.size());

    for (auto& term : terms_) {
        const std::size_t h = term.string.letters_hash();
        auto& bucket = buckets[h];
        bool merged = false;
        for (std::size_t idx : bucket) {
            if (combined[idx].string.equal_letters(term.string)) {
                combined[idx].coefficient += term.coefficient;
                merged = true;
                break;
            }
        }
        if (!merged) {
            bucket.push_back(combined.size());
            combined.push_back(std::move(term));
        }
    }

    combined.erase(
        std::remove_if(combined.begin(), combined.end(),
                       [tolerance](const PauliTerm& t) {
                           return std::abs(t.coefficient) <= tolerance;
                       }),
        combined.end());
    terms_ = std::move(combined);
}

double
PauliSum::max_imag_coefficient() const
{
    double worst = 0.0;
    for (const auto& term : terms_) {
        worst = std::max(worst, std::abs(term.coefficient.imag()));
    }
    return worst;
}

void
PauliSum::chop_to_hermitian(double tolerance)
{
    require_hermitian(*this, tolerance);
    for (auto& term : terms_) {
        term.coefficient = {term.coefficient.real(), 0.0};
    }
}

void
require_hermitian(const PauliSum& op, double tolerance)
{
    const double imag = op.max_imag_coefficient();
    CAFQA_REQUIRE(imag <= tolerance,
                  "PauliSum is not Hermitian (|imag coefficient| = " +
                      std::to_string(imag) +
                      "); a real-valued expectation is defined for "
                      "Hermitian sums only");
}

std::complex<double>
PauliSum::identity_coefficient() const
{
    for (const auto& term : terms_) {
        if (term.string.is_identity_letters()) {
            return term.coefficient;
        }
    }
    return {0.0, 0.0};
}

bool
PauliSum::is_diagonal() const
{
    for (const auto& term : terms_) {
        for (const auto w : term.string.x_words()) {
            if (w != 0) {
                return false;
            }
        }
    }
    return true;
}

PauliSum
PauliSum::diagonal_part() const
{
    PauliSum diag(num_qubits_);
    for (const auto& term : terms_) {
        bool has_x = false;
        for (const auto w : term.string.x_words()) {
            has_x = has_x || (w != 0);
        }
        if (!has_x) {
            diag.terms_.push_back(term);
        }
    }
    return diag;
}

double
PauliSum::one_norm() const
{
    double total = 0.0;
    for (const auto& term : terms_) {
        total += std::abs(term.coefficient);
    }
    return total;
}

std::string
PauliSum::to_string(std::size_t max_terms) const
{
    std::ostringstream out;
    out << "PauliSum(" << num_qubits_ << " qubits, " << terms_.size()
        << " terms)\n";
    std::size_t shown = 0;
    for (const auto& term : terms_) {
        if (shown++ >= max_terms) {
            out << "  ... (" << terms_.size() - max_terms << " more)\n";
            break;
        }
        out << "  (" << term.coefficient.real();
        if (std::abs(term.coefficient.imag()) > 1e-15) {
            out << (term.coefficient.imag() >= 0 ? "+" : "")
                << term.coefficient.imag() << "i";
        }
        out << ") * " << term.string.to_label() << '\n';
    }
    return out.str();
}

PauliSum
operator+(PauliSum a, const PauliSum& b)
{
    a += b;
    return a;
}

PauliSum
operator-(PauliSum a, const PauliSum& b)
{
    a -= b;
    return a;
}

PauliSum
operator*(std::complex<double> scale, PauliSum a)
{
    a *= scale;
    return a;
}

bool
same_observable(const PauliSum& a, const PauliSum& b)
{
    if (a.num_qubits() != b.num_qubits() ||
        a.num_terms() != b.num_terms()) {
        return false;
    }
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (std::size_t t = 0; t < a.num_terms(); ++t) {
        const std::complex<double> ca = a.terms()[t].coefficient;
        const std::complex<double> cb = b.terms()[t].coefficient;
        const PauliString& pa = a.terms()[t].string;
        const PauliString& pb = b.terms()[t].string;
        bool same = bits(ca.real()) == bits(cb.real()) &&
                    bits(ca.imag()) == bits(cb.imag()) &&
                    pa.phase_exponent() == pb.phase_exponent();
        // Every term of a sum has the sum's qubit count, so the word
        // vectors have equal lengths.
        for (std::size_t w = 0; same && w < pa.x_words().size(); ++w) {
            same = pa.x_words()[w] == pb.x_words()[w] &&
                   pa.z_words()[w] == pb.z_words()[w];
        }
        if (!same) {
            return false;
        }
    }
    return true;
}

} // namespace cafqa
