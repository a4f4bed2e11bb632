#include "density/density_matrix.hpp"

#include <bit>

#include "common/error.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {

namespace {

constexpr std::size_t max_density_qubits = 12;

} // namespace

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : num_qubits_(num_qubits),
      dim_(std::size_t{1} << num_qubits),
      rho_(dim_ * dim_, std::complex<double>{0.0, 0.0})
{
    CAFQA_REQUIRE(num_qubits >= 1 && num_qubits <= max_density_qubits,
                  "density matrix supports 1..12 qubits");
    rho_[0] = std::complex<double>{1.0, 0.0};
}

void
DensityMatrix::apply_1q(const std::array<std::complex<double>, 4>& u,
                        std::size_t q)
{
    CAFQA_REQUIRE(q < num_qubits_, "qubit index out of range");
    const std::size_t bit = std::size_t{1} << q;

    // Left multiply by U (acts on the row index).
    for (std::size_t c = 0; c < dim_; ++c) {
        for (std::size_t r = 0; r < dim_; ++r) {
            if (r & bit) {
                continue;
            }
            const auto a0 = at(r, c);
            const auto a1 = at(r | bit, c);
            at(r, c) = u[0] * a0 + u[1] * a1;
            at(r | bit, c) = u[2] * a0 + u[3] * a1;
        }
    }
    // Right multiply by U^dagger (acts on the column index).
    for (std::size_t r = 0; r < dim_; ++r) {
        for (std::size_t c = 0; c < dim_; ++c) {
            if (c & bit) {
                continue;
            }
            const auto a0 = at(r, c);
            const auto a1 = at(r, c | bit);
            at(r, c) = a0 * std::conj(u[0]) + a1 * std::conj(u[1]);
            at(r, c | bit) = a0 * std::conj(u[2]) + a1 * std::conj(u[3]);
        }
    }
}

void
DensityMatrix::apply(const GateOp& op, const std::vector<double>& params)
{
    switch (op.kind) {
      case GateKind::CX: {
        const std::size_t cbit = std::size_t{1} << op.q0;
        const std::size_t tbit = std::size_t{1} << op.q1;
        for (std::size_t c = 0; c < dim_; ++c) {
            for (std::size_t r = 0; r < dim_; ++r) {
                if ((r & cbit) && !(r & tbit)) {
                    std::swap(rho_[r * dim_ + c],
                              rho_[(r | tbit) * dim_ + c]);
                }
            }
        }
        for (std::size_t r = 0; r < dim_; ++r) {
            for (std::size_t c = 0; c < dim_; ++c) {
                if ((c & cbit) && !(c & tbit)) {
                    std::swap(rho_[r * dim_ + c],
                              rho_[r * dim_ + (c | tbit)]);
                }
            }
        }
        return;
      }
      case GateKind::CZ: {
        const std::size_t mask =
            (std::size_t{1} << op.q0) | (std::size_t{1} << op.q1);
        for (std::size_t r = 0; r < dim_; ++r) {
            for (std::size_t c = 0; c < dim_; ++c) {
                const bool row_flip = (r & mask) == mask;
                const bool col_flip = (c & mask) == mask;
                if (row_flip != col_flip) {
                    rho_[r * dim_ + c] = -rho_[r * dim_ + c];
                }
            }
        }
        return;
      }
      case GateKind::Swap: {
        apply(GateOp{GateKind::CX, op.q0, op.q1, -1, 0.0}, params);
        apply(GateOp{GateKind::CX, op.q1, op.q0, -1, 0.0}, params);
        apply(GateOp{GateKind::CX, op.q0, op.q1, -1, 0.0}, params);
        return;
      }
      case GateKind::Rzz: {
        // RZZ(theta) = CX . RZ_target(theta) . CX (exact identity).
        const double theta = op.resolved_angle(params);
        apply(GateOp{GateKind::CX, op.q0, op.q1, -1, 0.0}, params);
        apply(GateOp{GateKind::Rz, op.q1, 0, -1, theta}, params);
        apply(GateOp{GateKind::CX, op.q0, op.q1, -1, 0.0}, params);
        return;
      }
      default:
        break;
    }
    const double angle =
        is_rotation(op.kind) ? op.resolved_angle(params) : 0.0;
    apply_1q(Statevector::gate_matrix(op.kind, angle), op.q0);
}

void
DensityMatrix::apply_kraus_1q(
    const std::vector<std::array<std::complex<double>, 4>>& kraus,
    std::size_t q)
{
    CAFQA_REQUIRE(!kraus.empty(), "empty Kraus set");
    const std::vector<std::complex<double>> saved = rho_;
    std::vector<std::complex<double>> accum(rho_.size(),
                                            std::complex<double>{0.0, 0.0});
    for (const auto& k : kraus) {
        rho_ = saved;
        apply_1q(k, q); // K rho K^dagger
        for (std::size_t i = 0; i < rho_.size(); ++i) {
            accum[i] += rho_[i];
        }
    }
    rho_ = std::move(accum);
}

void
DensityMatrix::conjugate_pauli(const PauliString& pauli)
{
    const auto [xm, zm] = pauli.first_word_masks();
    auto weight = [&](std::uint64_t b) -> std::complex<double> {
        const double sign = (std::popcount(b & zm) & 1) ? -1.0 : 1.0;
        return PauliString::i_power(pauli.phase_exponent()) * sign;
    };
    std::vector<std::complex<double>> out(rho_.size());
    for (std::size_t r = 0; r < dim_; ++r) {
        const auto wr = weight(r);
        for (std::size_t c = 0; c < dim_; ++c) {
            out[(r ^ xm) * dim_ + (c ^ xm)] =
                wr * std::conj(weight(c)) * rho_[r * dim_ + c];
        }
    }
    rho_ = std::move(out);
}

void
DensityMatrix::depolarize_1q(std::size_t q, double p)
{
    if (p <= 0.0) {
        return;
    }
    CAFQA_REQUIRE(p <= 1.0, "depolarizing probability above 1");
    const std::vector<std::complex<double>> saved = rho_;
    std::vector<std::complex<double>> accum(rho_.size(),
                                            std::complex<double>{0.0, 0.0});
    for (const PauliLetter letter :
         {PauliLetter::X, PauliLetter::Y, PauliLetter::Z}) {
        rho_ = saved;
        PauliString pauli(num_qubits_);
        pauli.set_letter(q, letter);
        conjugate_pauli(pauli);
        for (std::size_t i = 0; i < rho_.size(); ++i) {
            accum[i] += rho_[i];
        }
    }
    rho_ = saved;
    for (std::size_t i = 0; i < rho_.size(); ++i) {
        rho_[i] = (1.0 - p) * rho_[i] + (p / 3.0) * accum[i];
    }
}

void
DensityMatrix::depolarize_2q(std::size_t a, std::size_t b, double p)
{
    if (p <= 0.0) {
        return;
    }
    CAFQA_REQUIRE(a != b, "depolarize_2q needs distinct qubits");
    CAFQA_REQUIRE(p <= 1.0, "depolarizing probability above 1");
    const std::vector<std::complex<double>> saved = rho_;
    std::vector<std::complex<double>> accum(rho_.size(),
                                            std::complex<double>{0.0, 0.0});
    for (int la = 0; la < 4; ++la) {
        for (int lb = 0; lb < 4; ++lb) {
            if (la == 0 && lb == 0) {
                continue;
            }
            rho_ = saved;
            PauliString pauli(num_qubits_);
            pauli.set_letter(a, static_cast<PauliLetter>(la));
            pauli.set_letter(b, static_cast<PauliLetter>(lb));
            conjugate_pauli(pauli);
            for (std::size_t i = 0; i < rho_.size(); ++i) {
                accum[i] += rho_[i];
            }
        }
    }
    rho_ = saved;
    for (std::size_t i = 0; i < rho_.size(); ++i) {
        rho_[i] = (1.0 - p) * rho_[i] + (p / 15.0) * accum[i];
    }
}

void
DensityMatrix::amplitude_damp(std::size_t q, double gamma)
{
    if (gamma <= 0.0) {
        return;
    }
    CAFQA_REQUIRE(gamma <= 1.0, "damping probability above 1");
    const double s = std::sqrt(1.0 - gamma);
    const double g = std::sqrt(gamma);
    apply_kraus_1q({{std::complex<double>{1.0, 0.0}, 0.0, 0.0,
                     std::complex<double>{s, 0.0}},
                    {0.0, std::complex<double>{g, 0.0}, 0.0, 0.0}},
                   q);
}

std::complex<double>
DensityMatrix::expectation(const PauliString& pauli) const
{
    CAFQA_REQUIRE(pauli.num_qubits() == num_qubits_,
                  "operator qubit count mismatch");
    const auto [xm, zm] = pauli.first_word_masks();
    std::complex<double> total{0.0, 0.0};
    for (std::size_t k = 0; k < dim_; ++k) {
        const double sign = (std::popcount(k & zm) & 1) ? -1.0 : 1.0;
        total += sign * rho_[k * dim_ + (k ^ xm)];
    }
    return PauliString::i_power(pauli.phase_exponent()) * total;
}

double
DensityMatrix::expectation(const PauliSum& op) const
{
    CAFQA_REQUIRE(op.num_qubits() == num_qubits_,
                  "operator qubit count mismatch");
    double total = 0.0;
    for (const auto& term : op.terms()) {
        total += (term.coefficient * expectation(term.string)).real();
    }
    return total;
}

double
DensityMatrix::trace() const
{
    std::complex<double> t{0.0, 0.0};
    for (std::size_t i = 0; i < dim_; ++i) {
        t += rho_[i * dim_ + i];
    }
    return t.real();
}

double
DensityMatrix::purity() const
{
    double total = 0.0;
    for (std::size_t r = 0; r < dim_; ++r) {
        for (std::size_t c = 0; c < dim_; ++c) {
            total += std::norm(rho_[r * dim_ + c]);
        }
    }
    return total;
}

} // namespace cafqa
