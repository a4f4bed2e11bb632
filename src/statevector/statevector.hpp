/**
 * @file
 * Dense statevector simulator — the "ideal machine" reference used for
 * exact expectation values, cross-validation of the stabilizer simulator,
 * post-CAFQA noise-free VQA tuning and the Clifford+kT branch evaluation.
 *
 * Qubit 0 is the least significant bit of the amplitude index.
 */
#ifndef CAFQA_STATEVECTOR_STATEVECTOR_HPP
#define CAFQA_STATEVECTOR_STATEVECTOR_HPP

#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "pauli/compiled_pauli_sum.hpp"
#include "pauli/pauli_sum.hpp"

namespace cafqa {

using Complex = std::complex<double>;

class ThreadPool;

/** Work, in basis states times Pauli terms, from which a dense kernel
 *  given a pool (Lanczos matvec, compiled expectation) splits across
 *  it; below it the dispatch would cost more than it saves. */
constexpr std::size_t kPooledKernelWork = std::size_t{1} << 18;

/** True when a dense kernel of `work` basis-state terms splits across
 *  `pool`: a pool of two or more workers, and at least
 *  `kPooledKernelWork`. */
bool splits_across(const ThreadPool* pool, std::size_t work);

/** Dense pure state on up to 28 qubits. */
class Statevector
{
  public:
    /** |0...0> on `num_qubits` qubits. */
    explicit Statevector(std::size_t num_qubits);

    /** Computational basis state |bits> (bit q of `bits` is qubit q). */
    static Statevector basis_state(std::size_t num_qubits,
                                   std::uint64_t bits);

    std::size_t num_qubits() const { return num_qubits_; }
    std::size_t dim() const { return amplitudes_.size(); }

    const std::vector<Complex>& amplitudes() const { return amplitudes_; }
    std::vector<Complex>& amplitudes() { return amplitudes_; }

    /** Apply a 2x2 unitary (row-major [u00,u01,u10,u11]) on one qubit. */
    void apply_1q(const std::array<Complex, 4>& u, std::size_t q);

    void apply_cx(std::size_t control, std::size_t target);
    void apply_cz(std::size_t a, std::size_t b);
    void apply_swap(std::size_t a, std::size_t b);

    /** Apply one gate op, resolving rotation parameters. */
    void apply(const GateOp& op, const std::vector<double>& params = {});

    /** Apply a full circuit. */
    void apply_circuit(const Circuit& circuit,
                       const std::vector<double>& params = {});

    /** Apply a Pauli string (including its phase) in place. */
    void apply_pauli(const PauliString& pauli);

    /** <psi|P|psi>. */
    Complex expectation(const PauliString& pauli) const;

    /** Real expectation of a Hermitian Pauli sum (compiles `op`; a
     *  caller that measures the same sum repeatedly should keep its
     *  `CompiledPauliSum` and use the overload below). */
    double expectation(const PauliSum& op) const;

    /**
     * Real expectation of a compiled sum: one pass per X mask forms
     * conj(a[b^x]) * a[b] once and adds it, signed by each term's Z
     * parity, into that term's accumulator in ascending b. Every
     * floating-point operation matches the per-term sweep
     * `sum_t (c_t * (i^k_t * sum_b conj(a[b^x_t]) * s_t(b) * a[b])).real()`
     * in order, so the result is bit-identical to it. With a `pool`
     * and at least `kPooledKernelWork` basis-state terms, the X-mask
     * groups run as separate jobs; each writes only its own terms'
     * sums, and the total is still added serially in term order, so
     * the result is the same to the bit.
     */
    double expectation(const CompiledPauliSum& op,
                       ThreadPool* pool = nullptr) const;

    /** <this|other>. */
    Complex inner(const Statevector& other) const;

    /** Squared norm. */
    double norm_squared() const;

    /** Scale so that norm == 1; throws on the zero vector. */
    void normalize();

    /** The 2x2 matrix for a single-qubit gate kind (rotations need
     *  `angle`). */
    static std::array<Complex, 4> gate_matrix(GateKind kind, double angle);

  private:
    std::size_t num_qubits_;
    std::vector<Complex> amplitudes_;
};

} // namespace cafqa

#endif // CAFQA_STATEVECTOR_STATEVECTOR_HPP
