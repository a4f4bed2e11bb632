/**
 * @file
 * Reference dense kernels: the straightforward per-term and
 * column-strided kernels the library's compiled Pauli-sum, sampled and
 * row-contiguous density kernels replaced, kept as differential
 * oracles. The library must match them bit for bit
 * (tests/test_dense_kernels.cpp; bench/dense_kernels times the two
 * against each other).
 *
 * - `apply_1q` / `prepare`: statevector gates through std::complex
 *   arithmetic.
 * - `statevector_expectation`: one popcount sweep over every amplitude
 *   per term.
 * - `sampled_expectation`: regroups the sum on every call and rebuilds
 *   each term's support bit by bit on every shot.
 * - `DensityMatrix`: left multiplies stride down the columns of the
 *   row-major matrix; depolarizing and Kraus channels copy the whole
 *   matrix per Pauli or Kraus operator.
 *
 * Header-only so the test and the bench share one copy.
 */
#ifndef CAFQA_TESTS_REFERENCE_DENSE_HPP
#define CAFQA_TESTS_REFERENCE_DENSE_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "density/noise_model.hpp"
#include "pauli/grouping.hpp"
#include "pauli/pauli_sum.hpp"
#include "statevector/statevector.hpp"

namespace cafqa::reference {

/** Apply a 2x2 unitary (row-major) on one qubit with std::complex. */
inline void
apply_1q(Statevector& psi, const std::array<std::complex<double>, 4>& u,
         std::size_t q)
{
    auto& amplitudes = psi.amplitudes();
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < amplitudes.size(); base += 2 * stride) {
        for (std::size_t i = base; i < base + stride; ++i) {
            const std::complex<double> a0 = amplitudes[i];
            const std::complex<double> a1 = amplitudes[i + stride];
            amplitudes[i] = u[0] * a0 + u[1] * a1;
            amplitudes[i + stride] = u[2] * a0 + u[3] * a1;
        }
    }
}

/** |0...0> evolved by `circuit`, single-qubit gates through
 *  `apply_1q` above (the two-qubit gates are the library's). */
inline Statevector
prepare(const Circuit& circuit, const std::vector<double>& params = {})
{
    Statevector psi(circuit.num_qubits());
    for (const auto& op : circuit.ops()) {
        switch (op.kind) {
          case GateKind::CX:
          case GateKind::CZ:
          case GateKind::Swap:
          case GateKind::Rzz:
            psi.apply(op, params);
            break;
          default:
            apply_1q(psi,
                     Statevector::gate_matrix(
                         op.kind, is_rotation(op.kind)
                                      ? op.resolved_angle(params)
                                      : 0.0),
                     op.q0);
            break;
        }
    }
    return psi;
}

/** <psi|P|psi> for one Pauli string, one popcount per amplitude. */
inline std::complex<double>
statevector_expectation(const Statevector& psi, const PauliString& pauli)
{
    const auto& amplitudes = psi.amplitudes();
    const auto [xm, zm] = pauli.first_word_masks();
    const std::complex<double> phase =
        PauliString::i_power(pauli.phase_exponent());

    std::complex<double> total{0.0, 0.0};
    for (std::uint64_t b = 0; b < amplitudes.size(); ++b) {
        const double sign = (std::popcount(b & zm) & 1) ? -1.0 : 1.0;
        total += std::conj(amplitudes[b ^ xm]) * sign * amplitudes[b];
    }
    return phase * total;
}

/** Real expectation of a Pauli sum: one full sweep per term. */
inline double
statevector_expectation(const Statevector& psi, const PauliSum& op)
{
    double total = 0.0;
    for (const auto& term : op.terms()) {
        total += (term.coefficient *
                  statevector_expectation(psi, term.string))
                     .real();
    }
    return total;
}

/**
 * Finite-shot estimate of `op` on `state`: `shots` draws from `rng` per
 * qubit-wise-commuting group, in group order. Advances `rng` exactly as
 * `SampledEvaluator::expectation` advances its own generator.
 */
inline double
sampled_expectation(const Statevector& state, const PauliSum& op,
                    std::size_t shots, Rng& rng)
{
    const auto groups = group_qubitwise_commuting(op);
    double total = 0.0;

    std::vector<double> cumulative(state.dim());
    for (const auto& group : groups) {
        if (group.basis.is_identity_letters()) {
            for (const std::size_t t : group.term_indices) {
                total += op.terms()[t].coefficient.real();
            }
            continue;
        }

        Statevector rotated = state;
        for (std::size_t q = 0; q < op.num_qubits(); ++q) {
            switch (group.basis.letter(q)) {
              case PauliLetter::X:
                apply_1q(rotated,
                         Statevector::gate_matrix(GateKind::H, 0.0), q);
                break;
              case PauliLetter::Y:
                apply_1q(rotated,
                         Statevector::gate_matrix(GateKind::Sdg, 0.0), q);
                apply_1q(rotated,
                         Statevector::gate_matrix(GateKind::H, 0.0), q);
                break;
              default:
                break;
            }
        }

        double acc = 0.0;
        for (std::size_t i = 0; i < rotated.dim(); ++i) {
            acc += std::norm(rotated.amplitudes()[i]);
            cumulative[i] = acc;
        }
        std::vector<double> term_sums(group.term_indices.size(), 0.0);
        for (std::size_t shot = 0; shot < shots; ++shot) {
            const double u = rng.uniform_real(0.0, acc);
            const auto it = std::lower_bound(cumulative.begin(),
                                             cumulative.end(), u);
            const std::uint64_t bits = static_cast<std::uint64_t>(
                std::distance(cumulative.begin(), it));
            for (std::size_t k = 0; k < group.term_indices.size(); ++k) {
                const PauliString& term =
                    op.terms()[group.term_indices[k]].string;
                std::uint64_t support = 0;
                for (std::size_t q = 0; q < op.num_qubits(); ++q) {
                    if (term.letter(q) != PauliLetter::I) {
                        support |= std::uint64_t{1} << q;
                    }
                }
                const bool odd = std::popcount(bits & support) % 2 == 1;
                term_sums[k] += odd ? -1.0 : 1.0;
            }
        }
        for (std::size_t k = 0; k < group.term_indices.size(); ++k) {
            const auto& term = op.terms()[group.term_indices[k]];
            total += term.coefficient.real() * term_sums[k] /
                     static_cast<double>(shots);
        }
    }
    return total;
}

/** Dense row-major density matrix with the column-strided kernels. */
class DensityMatrix
{
  public:
    explicit DensityMatrix(std::size_t num_qubits)
        : num_qubits_(num_qubits), dim_(std::size_t{1} << num_qubits),
          rho_(dim_ * dim_, std::complex<double>{0.0, 0.0})
    {
        rho_[0] = std::complex<double>{1.0, 0.0};
    }

    std::size_t dim() const { return dim_; }

    std::complex<double>& at(std::size_t row, std::size_t col)
    {
        return rho_[row * dim_ + col];
    }

    void apply_1q(const std::array<std::complex<double>, 4>& u,
                  std::size_t q)
    {
        const std::size_t bit = std::size_t{1} << q;
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
        for (std::size_t r = 0; r < dim_; ++r) {
            for (std::size_t c = 0; c < dim_; ++c) {
                if (c & bit) {
                    continue;
                }
                const auto a0 = at(r, c);
                const auto a1 = at(r, c | bit);
                at(r, c) = a0 * std::conj(u[0]) + a1 * std::conj(u[1]);
                at(r, c | bit) =
                    a0 * std::conj(u[2]) + a1 * std::conj(u[3]);
            }
        }
    }

    void apply_cx(std::size_t control, std::size_t target)
    {
        const std::size_t cbit = std::size_t{1} << control;
        const std::size_t tbit = std::size_t{1} << target;
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
    }

    void apply(const GateOp& op, const std::vector<double>& params = {})
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
          case GateKind::Rzz: {
            const double theta = op.resolved_angle(params);
            apply_cx(op.q0, op.q1);
            apply(GateOp{GateKind::Rz, op.q1, 0, -1, theta}, params);
            apply_cx(op.q0, op.q1);
            return;
          }
          default:
            break;
        }
        const double angle =
            is_rotation(op.kind) ? op.resolved_angle(params) : 0.0;
        apply_1q(Statevector::gate_matrix(op.kind, angle), op.q0);
    }

    void apply_kraus_1q(
        const std::vector<std::array<std::complex<double>, 4>>& kraus,
        std::size_t q)
    {
        const std::vector<std::complex<double>> saved = rho_;
        std::vector<std::complex<double>> accum(
            rho_.size(), std::complex<double>{0.0, 0.0});
        for (const auto& k : kraus) {
            rho_ = saved;
            apply_1q(k, q);
            for (std::size_t i = 0; i < rho_.size(); ++i) {
                accum[i] += rho_[i];
            }
        }
        rho_ = std::move(accum);
    }

    /** rho -> P rho P^dagger into a fresh copy. */
    void conjugate_pauli(const PauliString& pauli)
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

    void depolarize_1q(std::size_t q, double p)
    {
        if (p <= 0.0) {
            return;
        }
        const std::vector<std::complex<double>> saved = rho_;
        std::vector<std::complex<double>> accum(
            rho_.size(), std::complex<double>{0.0, 0.0});
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

    void depolarize_2q(std::size_t a, std::size_t b, double p)
    {
        if (p <= 0.0) {
            return;
        }
        const std::vector<std::complex<double>> saved = rho_;
        std::vector<std::complex<double>> accum(
            rho_.size(), std::complex<double>{0.0, 0.0});
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

    void amplitude_damp(std::size_t q, double gamma)
    {
        if (gamma <= 0.0) {
            return;
        }
        const double s = std::sqrt(1.0 - gamma);
        const double g = std::sqrt(gamma);
        apply_kraus_1q({{std::complex<double>{1.0, 0.0}, 0.0, 0.0,
                         std::complex<double>{s, 0.0}},
                        {0.0, std::complex<double>{g, 0.0}, 0.0, 0.0}},
                       q);
    }

  private:
    std::size_t num_qubits_;
    std::size_t dim_;
    std::vector<std::complex<double>> rho_;
};

/** `cafqa::simulate_noisy` on the reference density matrix. */
inline DensityMatrix
simulate_noisy(const Circuit& circuit, const std::vector<double>& params,
               const NoiseModel& noise)
{
    DensityMatrix rho(circuit.num_qubits());
    for (const auto& op : circuit.ops()) {
        rho.apply(op, params);
        if (!noise.enabled()) {
            continue;
        }
        if (is_two_qubit(op.kind)) {
            rho.depolarize_2q(op.q0, op.q1, noise.depolarizing_2q);
            rho.amplitude_damp(op.q0, noise.amplitude_damping);
            rho.amplitude_damp(op.q1, noise.amplitude_damping);
        } else {
            rho.depolarize_1q(op.q0, noise.depolarizing_1q);
            rho.amplitude_damp(op.q0, noise.amplitude_damping);
        }
    }
    return rho;
}

} // namespace cafqa::reference

#endif // CAFQA_TESTS_REFERENCE_DENSE_HPP
