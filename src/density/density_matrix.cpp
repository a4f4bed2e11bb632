#include "density/density_matrix.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "pauli/compiled_pauli_sum.hpp"
#include "statevector/pair_kernel.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {

namespace {

constexpr std::size_t max_density_qubits = 12;

/**
 * U rho U^dagger on the dim x dim matrix `in` (interleaved doubles), one
 * row pair at a time: rows r and r | bit are the only inputs of the left
 * multiply's output rows r and r | bit, and the right multiply acts
 * within a row, so each element sees the same operations as a full left
 * pass followed by a full right pass. Without `scratch` the result
 * overwrites `out` (which may be `in`); with a two-row `scratch` it is
 * added into `out`.
 */
void
conjugate_1q(const std::array<std::complex<double>, 4>& u, std::size_t q,
             std::size_t dim, const double* in, double* out,
             double* scratch)
{
    const std::size_t bit = std::size_t{1} << q;
    const Matrix2 left = to_matrix2(u);
    const Matrix2 right = to_matrix2(u, true);
    const std::size_t row = 2 * dim;
    for (std::size_t r = 0; r < dim; ++r) {
        if (r & bit) {
            continue;
        }
        double* t0 = scratch ? scratch : out + r * row;
        double* t1 = scratch ? scratch + row : out + (r | bit) * row;
        mix_pairs(left, in + r * row, in + (r | bit) * row, t0, t1, dim);
        mix_strided(right, t0, dim, bit);
        mix_strided(right, t1, dim, bit);
        if (scratch) {
            double* d0 = out + r * row;
            double* d1 = out + (r | bit) * row;
            for (std::size_t i = 0; i < row; ++i) {
                d0[i] += t0[i];
                d1[i] += t1[i];
            }
        }
    }
}

/** std::complex<double> is layout-compatible with double[2]. */
double*
as_doubles(std::vector<std::complex<double>>& v)
{
    return reinterpret_cast<double*>(v.data());
}

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
    conjugate_1q(u, q, dim_, as_doubles(rho_), as_doubles(rho_), nullptr);
}

void
DensityMatrix::apply_cx(std::size_t control, std::size_t target)
{
    const std::size_t cbit = std::size_t{1} << control;
    const std::size_t tbit = std::size_t{1} << target;
    const std::size_t lo = std::min(cbit, tbit);
    const std::size_t hi = std::max(cbit, tbit);
    // Calls swap(i | cbit, i | cbit | tbit) for every i < dim with both
    // bits clear.
    auto for_each_pair = [&](auto&& swap) {
        for (std::size_t i = 0; i < dim_; i += 2 * hi) {
            for (std::size_t j = i; j < i + hi; j += 2 * lo) {
                for (std::size_t k = j; k < j + lo; ++k) {
                    swap(k | cbit, k | cbit | tbit);
                }
            }
        }
    };
    // Swaps are exact, so rows first and then columns within each row
    // permutes the matrix exactly as the column-major order did.
    std::complex<double>* rows = rho_.data();
    for_each_pair([&](std::size_t a, std::size_t b) {
        std::swap_ranges(rows + a * dim_, rows + (a + 1) * dim_,
                         rows + b * dim_);
    });
    for (std::size_t r = 0; r < dim_; ++r) {
        std::complex<double>* row = rows + r * dim_;
        for_each_pair(
            [row](std::size_t a, std::size_t b) { std::swap(row[a], row[b]); });
    }
}

void
DensityMatrix::apply(const GateOp& op, const std::vector<double>& params)
{
    switch (op.kind) {
      case GateKind::CX:
        apply_cx(op.q0, op.q1);
        return;
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
      case GateKind::Swap:
        apply_cx(op.q0, op.q1);
        apply_cx(op.q1, op.q0);
        apply_cx(op.q0, op.q1);
        return;
      case GateKind::Rzz:
        // RZZ(theta) = CX . RZ_target(theta) . CX (exact identity).
        apply_cx(op.q0, op.q1);
        apply_1q(Statevector::gate_matrix(GateKind::Rz,
                                          op.resolved_angle(params)),
                 op.q1);
        apply_cx(op.q0, op.q1);
        return;
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
    CAFQA_REQUIRE(q < num_qubits_, "qubit index out of range");
    // Each K rho K^dagger goes row pair by row pair through a two-row
    // scratch straight into the one accumulator, in Kraus order.
    std::vector<std::complex<double>> accum(rho_.size(),
                                            std::complex<double>{0.0, 0.0});
    std::vector<std::complex<double>> scratch(2 * dim_);
    for (const auto& k : kraus) {
        conjugate_1q(k, q, dim_, as_doubles(rho_), as_doubles(accum),
                     as_doubles(scratch));
    }
    rho_ = std::move(accum);
}

void
DensityMatrix::accumulate_conjugated(
    const PauliString& pauli, std::vector<std::complex<double>>& accum) const
{
    const auto [xm, zm] = pauli.first_word_masks();
    const std::complex<double> phase =
        PauliString::i_power(pauli.phase_exponent());
    auto weight = [&](std::uint64_t b) -> std::complex<double> {
        const double sign =
            parity32(static_cast<std::uint32_t>(b & zm)) ? -1.0 : 1.0;
        return phase * sign;
    };
    std::vector<std::complex<double>> col_weight(dim_);
    for (std::size_t c = 0; c < dim_; ++c) {
        col_weight[c] = std::conj(weight(c));
    }
    for (std::size_t r = 0; r < dim_; ++r) {
        const auto wr = weight(r);
        const std::complex<double>* src = rho_.data() + r * dim_;
        std::complex<double>* dst = accum.data() + (r ^ xm) * dim_;
        for (std::size_t c = 0; c < dim_; ++c) {
            dst[c ^ xm] += wr * col_weight[c] * src[c];
        }
    }
}

void
DensityMatrix::depolarize_1q(std::size_t q, double p)
{
    if (p <= 0.0) {
        return;
    }
    CAFQA_REQUIRE(p <= 1.0, "depolarizing probability above 1");
    std::vector<std::complex<double>> accum(rho_.size(),
                                            std::complex<double>{0.0, 0.0});
    for (const PauliLetter letter :
         {PauliLetter::X, PauliLetter::Y, PauliLetter::Z}) {
        PauliString pauli(num_qubits_);
        pauli.set_letter(q, letter);
        accumulate_conjugated(pauli, accum);
    }
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
    std::vector<std::complex<double>> accum(rho_.size(),
                                            std::complex<double>{0.0, 0.0});
    for (int la = 0; la < 4; ++la) {
        for (int lb = 0; lb < 4; ++lb) {
            if (la == 0 && lb == 0) {
                continue;
            }
            PauliString pauli(num_qubits_);
            pauli.set_letter(a, static_cast<PauliLetter>(la));
            pauli.set_letter(b, static_cast<PauliLetter>(lb));
            accumulate_conjugated(pauli, accum);
        }
    }
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
