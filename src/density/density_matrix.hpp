/**
 * @file
 * Density-matrix simulator with quantum noise channels — the "noisy
 * machine" substrate standing in for the paper's IBMQ noise-model
 * simulations (Fig. 5 purple/blue curves, Fig. 14 noisy tuning).
 *
 * The density matrix is stored dense (row-major), so this backend is
 * intended for the small post-CAFQA systems (<= ~8 qubits) the paper
 * evaluates noisily. Gates run row-contiguously (U rho U^dagger one row
 * pair at a time) and the channels accumulate into a single buffer;
 * every floating-point operation matches the column-strided kernels in
 * tests/reference_dense.hpp, so results are bit-identical to them.
 */
#ifndef CAFQA_DENSITY_DENSITY_MATRIX_HPP
#define CAFQA_DENSITY_DENSITY_MATRIX_HPP

#include <array>
#include <complex>
#include <vector>

#include "circuit/circuit.hpp"
#include "pauli/pauli_sum.hpp"

namespace cafqa {

/** Dense density matrix on up to 12 qubits. */
class DensityMatrix
{
  public:
    /** |0...0><0...0|. */
    explicit DensityMatrix(std::size_t num_qubits);

    std::size_t num_qubits() const { return num_qubits_; }
    std::size_t dim() const { return dim_; }

    std::complex<double>& at(std::size_t row, std::size_t col)
    {
        return rho_[row * dim_ + col];
    }
    const std::complex<double>& at(std::size_t row, std::size_t col) const
    {
        return rho_[row * dim_ + col];
    }

    /** rho -> U rho U^dagger for a single-qubit unitary. */
    void apply_1q(const std::array<std::complex<double>, 4>& u,
                  std::size_t q);

    /** Apply one gate op (unitary part only). */
    void apply(const GateOp& op, const std::vector<double>& params = {});

    /** Kraus channel on one qubit: rho -> sum_k K rho K^dagger. */
    void apply_kraus_1q(
        const std::vector<std::array<std::complex<double>, 4>>& kraus,
        std::size_t q);

    /** Single-qubit depolarizing channel with error probability p. */
    void depolarize_1q(std::size_t q, double p);

    /** Two-qubit depolarizing channel (uniform over 15 Paulis). */
    void depolarize_2q(std::size_t a, std::size_t b, double p);

    /** Amplitude damping with decay probability gamma. */
    void amplitude_damp(std::size_t q, double gamma);

    /** tr(P rho). */
    std::complex<double> expectation(const PauliString& pauli) const;

    /** Real expectation of a Hermitian Pauli sum. */
    double expectation(const PauliSum& op) const;

    /** tr(rho); should stay 1 under trace-preserving evolution. */
    double trace() const;

    /** tr(rho^2); 1 for pure states, < 1 for mixed. */
    double purity() const;

  private:
    void apply_cx(std::size_t control, std::size_t target);

    /** accum += P rho P^dagger, element by element. */
    void accumulate_conjugated(
        const PauliString& pauli,
        std::vector<std::complex<double>>& accum) const;

    std::size_t num_qubits_;
    std::size_t dim_;
    std::vector<std::complex<double>> rho_;
};

} // namespace cafqa

#endif // CAFQA_DENSITY_DENSITY_MATRIX_HPP
