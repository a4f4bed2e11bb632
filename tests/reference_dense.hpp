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
 * - `sampled_expectation`: regroups the sum on every call, draws each
 *   shot through `std::uniform_real_distribution` on `std::mt19937_64`
 *   (so it also checks the library's in-tree engine and block draws),
 *   and rebuilds each term's support bit by bit on every shot.
 * - `DensityMatrix`: left multiplies stride down the columns of the
 *   row-major matrix; depolarizing and Kraus channels copy the whole
 *   matrix per Pauli or Kraus operator.
 * - `accumulate_apply` / `lanczos_ground_state`: the Lanczos matvec as
 *   one popcount sweep per term through std::complex arithmetic, and
 *   the Lanczos loop over it that takes its Ritz values from a full
 *   `symmetric_eigen` (eigenvectors included) every iteration.
 * - `dense_spectrum` / `dense_ground_state`: eigenvalues and a ground
 *   state of a small Pauli sum from the dense matrix, the ground truth
 *   the Lanczos tests (and Fig. 6's exact column) read.
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
#include <limits>
#include <random>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "density/noise_model.hpp"
#include "pauli/grouping.hpp"
#include "pauli/pauli_sum.hpp"
#include "statevector/lanczos.hpp"
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
 * `SampledEvaluator::expectation` advances its own generator seeded
 * alike.
 */
inline double
sampled_expectation(const Statevector& state, const PauliSum& op,
                    std::size_t shots, std::mt19937_64& rng)
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
        std::uniform_real_distribution<double> draw(0.0, acc);
        for (std::size_t shot = 0; shot < shots; ++shot) {
            const double u = draw(rng);
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

/** y += op x, one popcount sweep over every basis state per term. */
inline void
accumulate_apply(const PauliSum& op, const std::vector<std::complex<double>>& x,
                 std::vector<std::complex<double>>& y)
{
    CAFQA_REQUIRE(x.size() == y.size(), "buffer size mismatch");
    for (const auto& term : op.terms()) {
        const auto [xm, zm] = term.string.first_word_masks();
        const std::complex<double> w =
            term.coefficient *
            PauliString::i_power(term.string.phase_exponent());
        for (std::uint64_t b = 0; b < x.size(); ++b) {
            const double sign = (std::popcount(b & zm) & 1) ? -1.0 : 1.0;
            y[b ^ xm] += w * sign * x[b];
        }
    }
}

/**
 * `cafqa::lanczos_ground_state` over `accumulate_apply`, calling the
 * basis filter for every basis state after every matvec, with each
 * iteration's Ritz values from a full `symmetric_eigen` of the dense
 * tridiagonal matrix.
 */
inline GroundState
lanczos_ground_state(const PauliSum& hamiltonian,
                     const LanczosOptions& options = {})
{
    using Vec = std::vector<std::complex<double>>;
    const auto dot = [](const Vec& a, const Vec& b) {
        std::complex<double> total{0.0, 0.0};
        for (std::size_t i = 0; i < a.size(); ++i) {
            total += std::conj(a[i]) * b[i];
        }
        return total;
    };
    const auto norm = [](const Vec& a) {
        double total = 0.0;
        for (const auto& v : a) {
            total += std::norm(v);
        }
        return std::sqrt(total);
    };
    const auto axpy = [](Vec& y, std::complex<double> alpha, const Vec& x) {
        for (std::size_t i = 0; i < y.size(); ++i) {
            y[i] += alpha * x[i];
        }
    };
    const auto scale = [](Vec& y, double alpha) {
        for (auto& v : y) {
            v *= alpha;
        }
    };
    const auto project = [&options](Vec& v) {
        if (!options.basis_filter) {
            return;
        }
        for (std::uint64_t b = 0; b < v.size(); ++b) {
            if (!options.basis_filter(b)) {
                v[b] = std::complex<double>{0.0, 0.0};
            }
        }
    };

    const std::size_t dim = std::size_t{1} << hamiltonian.num_qubits();
    Rng rng(options.seed);
    Vec v_cur(dim);
    for (auto& a : v_cur) {
        a = std::complex<double>{rng.normal(), rng.normal()};
    }
    const double start_norm = norm(v_cur);
    for (auto& a : v_cur) {
        a /= start_norm;
    }
    if (options.basis_filter) {
        project(v_cur);
        scale(v_cur, 1.0 / norm(v_cur));
    }
    Vec v_prev(dim, std::complex<double>{0.0, 0.0});
    Vec w(dim);

    std::vector<double> alpha;
    std::vector<double> beta;
    double best = 0.0;
    bool have_best = false;
    GroundState result;
    result.ritz_change = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < options.max_iterations; ++j) {
        ++result.iterations;
        std::fill(w.begin(), w.end(), std::complex<double>{0.0, 0.0});
        accumulate_apply(hamiltonian, v_cur, w);
        project(w);

        const double a_j = dot(v_cur, w).real();
        alpha.push_back(a_j);
        axpy(w, std::complex<double>{-a_j, 0.0}, v_cur);
        if (j > 0) {
            axpy(w, std::complex<double>{-beta.back(), 0.0}, v_prev);
        }
        const double b_j = norm(w);

        const std::size_t m = alpha.size();
        Matrix t(m, m);
        for (std::size_t i = 0; i < m; ++i) {
            t(i, i) = alpha[i];
            if (i + 1 < m) {
                t(i, i + 1) = beta[i];
                t(i + 1, i) = beta[i];
            }
        }
        const double current = symmetric_eigen(t).values.front();
        if (have_best) {
            result.ritz_change = std::abs(current - best);
        }
        if (have_best && std::abs(current - best) < options.tolerance) {
            best = current;
            result.converged = true;
            break;
        }
        best = current;
        have_best = true;
        if (b_j < 1e-12) {
            result.converged = true;
            break;
        }
        beta.push_back(b_j);
        v_prev = v_cur;
        v_cur = w;
        scale(v_cur, 1.0 / b_j);
    }
    result.energy = best;
    return result;
}

/**
 * The real-symmetric embedding [[A, -B], [B, A]] of H = A + iB, a
 * Hermitian Pauli sum on at most 8 qubits, diagonalized. H is built
 * column by column with `accumulate_apply`. Every eigenvalue of H
 * appears twice; an eigenvector (u; v) gives the eigenvector u + iv.
 */
inline SymmetricEigen
dense_embedded_eigen(const PauliSum& hamiltonian)
{
    const std::size_t n = hamiltonian.num_qubits();
    CAFQA_REQUIRE(n <= 8, "dense spectrum limited to 8 qubits");
    CAFQA_REQUIRE(hamiltonian.max_imag_coefficient() < 1e-8,
                  "Hamiltonian must be Hermitian");
    const std::size_t dim = std::size_t{1} << n;

    std::vector<std::vector<std::complex<double>>> columns(
        dim, std::vector<std::complex<double>>(dim));
    std::vector<std::complex<double>> unit(dim);
    for (std::size_t c = 0; c < dim; ++c) {
        std::fill(unit.begin(), unit.end(), std::complex<double>{0.0, 0.0});
        unit[c] = std::complex<double>{1.0, 0.0};
        accumulate_apply(hamiltonian, unit, columns[c]);
    }
    Matrix big(2 * dim, 2 * dim);
    for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
            const double re = columns[c][r].real();
            const double im = columns[c][r].imag();
            big(r, c) = re;
            big(r + dim, c + dim) = re;
            big(r, c + dim) = -im;
            big(r + dim, c) = im;
        }
    }
    return symmetric_eigen(big);
}

/** Every eigenvalue of a Hermitian Pauli sum on at most 8 qubits,
 *  ascending. */
inline std::vector<double>
dense_spectrum(const PauliSum& hamiltonian)
{
    const SymmetricEigen eig = dense_embedded_eigen(hamiltonian);
    std::vector<double> values;
    values.reserve(eig.values.size() / 2);
    for (std::size_t i = 0; i < eig.values.size(); i += 2) {
        values.push_back(eig.values[i]);
    }
    return values;
}

/** A normalized eigenvector of the lowest eigenvalue of a Hermitian
 *  Pauli sum on at most 8 qubits. */
inline Statevector
dense_ground_state(const PauliSum& hamiltonian)
{
    const SymmetricEigen eig = dense_embedded_eigen(hamiltonian);
    Statevector ground(hamiltonian.num_qubits());
    auto& amplitudes = ground.amplitudes();
    for (std::size_t i = 0; i < amplitudes.size(); ++i) {
        amplitudes[i] = std::complex<double>{
            eig.vectors(i, 0), eig.vectors(i + amplitudes.size(), 0)};
    }
    ground.normalize();
    return ground;
}

} // namespace cafqa::reference

#endif // CAFQA_TESTS_REFERENCE_DENSE_HPP
