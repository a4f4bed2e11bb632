#include "statevector/statevector.hpp"

#include <bit>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace cafqa {

namespace {

constexpr std::size_t max_statevector_qubits = 28;

} // namespace

Statevector::Statevector(std::size_t num_qubits)
    : num_qubits_(num_qubits),
      amplitudes_(std::size_t{1} << num_qubits, Complex{0.0, 0.0})
{
    CAFQA_REQUIRE(num_qubits >= 1 && num_qubits <= max_statevector_qubits,
                  "statevector supports 1..28 qubits");
    amplitudes_[0] = Complex{1.0, 0.0};
}

Statevector
Statevector::basis_state(std::size_t num_qubits, std::uint64_t bits)
{
    Statevector psi(num_qubits);
    CAFQA_REQUIRE(bits < psi.dim(), "basis state index out of range");
    psi.amplitudes_[0] = Complex{0.0, 0.0};
    psi.amplitudes_[bits] = Complex{1.0, 0.0};
    return psi;
}

void
Statevector::apply_1q(const std::array<Complex, 4>& u, std::size_t q)
{
    CAFQA_REQUIRE(q < num_qubits_, "qubit index out of range");
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < amplitudes_.size(); base += 2 * stride) {
        for (std::size_t i = base; i < base + stride; ++i) {
            const Complex a0 = amplitudes_[i];
            const Complex a1 = amplitudes_[i + stride];
            amplitudes_[i] = u[0] * a0 + u[1] * a1;
            amplitudes_[i + stride] = u[2] * a0 + u[3] * a1;
        }
    }
}

void
Statevector::apply_cx(std::size_t control, std::size_t target)
{
    CAFQA_REQUIRE(control < num_qubits_ && target < num_qubits_ &&
                  control != target, "bad cx operands");
    const std::uint64_t cbit = std::uint64_t{1} << control;
    const std::uint64_t tbit = std::uint64_t{1} << target;
    for (std::uint64_t idx = 0; idx < amplitudes_.size(); ++idx) {
        if ((idx & cbit) && !(idx & tbit)) {
            std::swap(amplitudes_[idx], amplitudes_[idx | tbit]);
        }
    }
}

void
Statevector::apply_cz(std::size_t a, std::size_t b)
{
    CAFQA_REQUIRE(a < num_qubits_ && b < num_qubits_ && a != b,
                  "bad cz operands");
    const std::uint64_t abit = std::uint64_t{1} << a;
    const std::uint64_t bbit = std::uint64_t{1} << b;
    for (std::uint64_t idx = 0; idx < amplitudes_.size(); ++idx) {
        if ((idx & abit) && (idx & bbit)) {
            amplitudes_[idx] = -amplitudes_[idx];
        }
    }
}

void
Statevector::apply_swap(std::size_t a, std::size_t b)
{
    CAFQA_REQUIRE(a < num_qubits_ && b < num_qubits_ && a != b,
                  "bad swap operands");
    const std::uint64_t abit = std::uint64_t{1} << a;
    const std::uint64_t bbit = std::uint64_t{1} << b;
    for (std::uint64_t idx = 0; idx < amplitudes_.size(); ++idx) {
        if ((idx & abit) && !(idx & bbit)) {
            std::swap(amplitudes_[idx], amplitudes_[(idx & ~abit) | bbit]);
        }
    }
}

std::array<Complex, 4>
Statevector::gate_matrix(GateKind kind, double angle)
{
    const double inv_sqrt2 = 1.0 / std::numbers::sqrt2;
    const Complex i{0.0, 1.0};
    switch (kind) {
      case GateKind::H:
        return {inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2};
      case GateKind::X:
        return {0.0, 1.0, 1.0, 0.0};
      case GateKind::Y:
        return {0.0, -i, i, 0.0};
      case GateKind::Z:
        return {1.0, 0.0, 0.0, -1.0};
      case GateKind::S:
        return {1.0, 0.0, 0.0, i};
      case GateKind::Sdg:
        return {1.0, 0.0, 0.0, -i};
      case GateKind::T:
        return {1.0, 0.0, 0.0, std::exp(i * (std::numbers::pi / 4.0))};
      case GateKind::Tdg:
        return {1.0, 0.0, 0.0, std::exp(-i * (std::numbers::pi / 4.0))};
      case GateKind::Rx: {
        const double c = std::cos(angle / 2.0);
        const double s = std::sin(angle / 2.0);
        return {Complex{c, 0.0}, -i * s, -i * s, Complex{c, 0.0}};
      }
      case GateKind::Ry: {
        const double c = std::cos(angle / 2.0);
        const double s = std::sin(angle / 2.0);
        return {Complex{c, 0.0}, Complex{-s, 0.0}, Complex{s, 0.0},
                Complex{c, 0.0}};
      }
      case GateKind::Rz: {
        return {std::exp(-i * (angle / 2.0)), 0.0, 0.0,
                std::exp(i * (angle / 2.0))};
      }
      default:
        CAFQA_REQUIRE(false, "gate has no single-qubit matrix");
    }
    return {};
}

void
Statevector::apply(const GateOp& op, const std::vector<double>& params)
{
    switch (op.kind) {
      case GateKind::CX: apply_cx(op.q0, op.q1); return;
      case GateKind::CZ: apply_cz(op.q0, op.q1); return;
      case GateKind::Swap: apply_swap(op.q0, op.q1); return;
      case GateKind::Rzz: {
        // Diagonal: exp(-i theta/2) on even ZZ parity, exp(+i theta/2)
        // on odd.
        const double theta = op.resolved_angle(params);
        const Complex even = std::exp(Complex{0.0, -theta / 2.0});
        const Complex odd = std::exp(Complex{0.0, theta / 2.0});
        const std::uint64_t mask = (std::uint64_t{1} << op.q0) |
                                   (std::uint64_t{1} << op.q1);
        for (std::uint64_t idx = 0; idx < amplitudes_.size(); ++idx) {
            const bool parity_odd =
                std::popcount(idx & mask) % 2 == 1;
            amplitudes_[idx] *= parity_odd ? odd : even;
        }
        return;
      }
      default:
        break;
    }
    const double angle =
        is_rotation(op.kind) ? op.resolved_angle(params) : 0.0;
    apply_1q(gate_matrix(op.kind, angle), op.q0);
}

void
Statevector::apply_circuit(const Circuit& circuit,
                           const std::vector<double>& params)
{
    CAFQA_REQUIRE(circuit.num_qubits() == num_qubits_,
                  "circuit qubit count mismatch");
    for (const auto& op : circuit.ops()) {
        apply(op, params);
    }
}

void
Statevector::apply_pauli(const PauliString& pauli)
{
    CAFQA_REQUIRE(pauli.num_qubits() == num_qubits_,
                  "operator qubit count mismatch");
    const auto [xm, zm] = pauli.first_word_masks();
    const Complex phase = PauliString::i_power(pauli.phase_exponent());

    auto z_sign = [zm](std::uint64_t b) {
        return (std::popcount(b & zm) & 1) ? -1.0 : 1.0;
    };

    if (xm == 0) {
        for (std::uint64_t b = 0; b < amplitudes_.size(); ++b) {
            amplitudes_[b] *= phase * z_sign(b);
        }
        return;
    }
    for (std::uint64_t b = 0; b < amplitudes_.size(); ++b) {
        const std::uint64_t partner = b ^ xm;
        if (b >= partner) {
            continue;
        }
        const Complex vb = amplitudes_[b];
        const Complex vp = amplitudes_[partner];
        amplitudes_[partner] = phase * z_sign(b) * vb;
        amplitudes_[b] = phase * z_sign(partner) * vp;
    }
}

Complex
Statevector::expectation(const PauliString& pauli) const
{
    CAFQA_REQUIRE(pauli.num_qubits() == num_qubits_,
                  "operator qubit count mismatch");
    const auto [xm, zm] = pauli.first_word_masks();
    const Complex phase = PauliString::i_power(pauli.phase_exponent());

    Complex total{0.0, 0.0};
    for (std::uint64_t b = 0; b < amplitudes_.size(); ++b) {
        const double sign = (std::popcount(b & zm) & 1) ? -1.0 : 1.0;
        total += std::conj(amplitudes_[b ^ xm]) * sign * amplitudes_[b];
    }
    return phase * total;
}

double
Statevector::expectation(const PauliSum& op) const
{
    CAFQA_REQUIRE(op.num_qubits() == num_qubits_,
                  "operator qubit count mismatch");
    double total = 0.0;
    for (const auto& term : op.terms()) {
        total += (term.coefficient * expectation(term.string)).real();
    }
    return total;
}

Complex
Statevector::inner(const Statevector& other) const
{
    CAFQA_REQUIRE(other.num_qubits_ == num_qubits_, "qubit count mismatch");
    Complex total{0.0, 0.0};
    for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
        total += std::conj(amplitudes_[i]) * other.amplitudes_[i];
    }
    return total;
}

double
Statevector::norm_squared() const
{
    double total = 0.0;
    for (const auto& a : amplitudes_) {
        total += std::norm(a);
    }
    return total;
}

void
Statevector::normalize()
{
    const double n2 = norm_squared();
    CAFQA_REQUIRE(n2 > 1e-300, "cannot normalize the zero vector");
    const double inv = 1.0 / std::sqrt(n2);
    for (auto& a : amplitudes_) {
        a *= inv;
    }
}

void
accumulate_apply(const PauliSum& op, const std::vector<Complex>& x,
                 std::vector<Complex>& y)
{
    CAFQA_REQUIRE(x.size() == y.size(), "buffer size mismatch");
    for (const auto& term : op.terms()) {
        const auto [xm, zm] = term.string.first_word_masks();
        const Complex w =
            term.coefficient *
            PauliString::i_power(term.string.phase_exponent());
        for (std::uint64_t b = 0; b < x.size(); ++b) {
            const double sign = (std::popcount(b & zm) & 1) ? -1.0 : 1.0;
            y[b ^ xm] += w * sign * x[b];
        }
    }
}

} // namespace cafqa
