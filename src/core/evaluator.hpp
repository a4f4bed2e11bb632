/**
 * @file
 * Concrete state-preparation backends behind the common `Backend`
 * interface (`core/backend.hpp`): prepare the ansatz state for a
 * parameter assignment, then evaluate expectation values of any number
 * of observables (Hamiltonian + constraint operators) on the prepared
 * state.
 *
 * - CliffordEvaluator ("clifford"): exact polynomial-time stabilizer
 *   evaluation, CAFQA's classical search backend (integer quarter-turn
 *   parameters).
 * - IdealEvaluator ("statevector"): dense statevector, the "ideal
 *   machine".
 * - NoisyEvaluator ("density"): density matrix with a gate noise model,
 *   the "noisy machine".
 * - CliffordTEvaluator ("clifford_t"): Clifford + k T-gate circuits via
 *   the exact branch decomposition T = alpha I + beta S (Section 8).
 *
 * The finite-shot backend ("sampled") lives in
 * `core/sampled_evaluator.hpp`. All five are constructible by string
 * key through `make_backend` (`core/backend_registry.hpp`).
 */
#ifndef CAFQA_CORE_EVALUATOR_HPP
#define CAFQA_CORE_EVALUATOR_HPP

#include <memory>
#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/backend.hpp"
#include "density/noise_model.hpp"
#include "pauli/compiled_pauli_sum.hpp"
#include "pauli/pauli_sum.hpp"
#include "stabilizer/expectation_engine.hpp"
#include "stabilizer/symplectic_tableau.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {

/**
 * Exact stabilizer backend over integer quarter-turn parameters.
 *
 * `prepare` replays the ansatz onto a fresh `SymplecticTableau`
 * (`replay_circuit_steps`, `stabilizer/circuit_replay.hpp`). Pauli-sum
 * observables are precompiled once per distinct sum into a
 * `StabilizerExpectationEngine` (packed term masks + QWC grouping) and
 * memoized in an `ObservableMemo`, so the search's hot loop — re-prepare,
 * re-measure the same Hamiltonian — pays compilation once and then
 * evaluates every term in a single batched pass per point. `clone()`
 * shares the compiled engines across thread-pool workers.
 */
class CliffordEvaluator final : public DiscreteBackend
{
  public:
    explicit CliffordEvaluator(Circuit ansatz);

    std::string_view kind() const override { return "clifford"; }
    std::size_t num_qubits() const override { return ansatz_.num_qubits(); }
    std::size_t num_params() const override { return ansatz_.num_params(); }

    /** Rebuild the tableau for a step assignment. */
    void prepare(const std::vector<int>& steps) override;

    double expectation(const PauliSum& op) const override;
    std::vector<double>
    expectations(std::span<const PauliSum> ops) const override;
    std::vector<double>
    expectation_batch(const std::vector<std::vector<int>>& candidates,
                      const PauliSum& op) override;
    /** Single Pauli term: exactly -1, 0 or +1. */
    int expectation(const PauliString& pauli) const;

    std::unique_ptr<Backend> clone() const override;

    const Circuit& ansatz() const { return ansatz_; }

  private:
    Circuit ansatz_;
    std::optional<SymplecticTableau> tableau_;
    /** Engines compiled before a clone() are shared with the clone;
     *  each instance then grows its own memo, so per-worker clones stay
     *  lock-free. Concurrent calls must go through distinct clones, as
     *  the thread-pool fan-out does. */
    mutable ObservableMemo<StabilizerExpectationEngine> engines_;
};

/** Noise-free statevector backend. Observables are compiled once per
 *  distinct sum (`CompiledPauliSum`), shared with clones the same way
 *  as `CliffordEvaluator`'s engines. A non-null `pool` (non-owning,
 *  shared with clones) splits each expectation across its workers,
 *  with the same result to the bit. */
class IdealEvaluator final : public ContinuousBackend
{
  public:
    explicit IdealEvaluator(Circuit ansatz, ThreadPool* pool = nullptr);

    std::string_view kind() const override { return "statevector"; }
    std::size_t num_qubits() const override { return ansatz_.num_qubits(); }
    std::size_t num_params() const override { return ansatz_.num_params(); }

    void prepare(const std::vector<double>& params) override;
    double expectation(const PauliSum& op) const override;
    std::unique_ptr<Backend> clone() const override;

    const Statevector& state() const;

  private:
    Circuit ansatz_;
    ThreadPool* pool_;
    std::optional<Statevector> state_;
    mutable ObservableMemo<CompiledPauliSum> compiled_;
};

/** Density-matrix backend with gate noise. */
class NoisyEvaluator final : public ContinuousBackend
{
  public:
    NoisyEvaluator(Circuit ansatz, NoiseModel noise);

    std::string_view kind() const override { return "density"; }
    std::size_t num_qubits() const override { return ansatz_.num_qubits(); }
    std::size_t num_params() const override { return ansatz_.num_params(); }

    void prepare(const std::vector<double>& params) override;
    double expectation(const PauliSum& op) const override;
    std::unique_ptr<Backend> clone() const override;

    const NoiseModel& noise() const { return noise_; }

  private:
    Circuit ansatz_;
    NoiseModel noise_;
    std::optional<DensityMatrix> rho_;
};

/**
 * Clifford + k T-gate backend: expands the circuit into 2^k Clifford
 * branches using T = alpha I + beta S and sums the branch statevectors.
 * Rotation parameters remain integer quarter-turns.
 */
class CliffordTEvaluator final : public DiscreteBackend
{
  public:
    explicit CliffordTEvaluator(Circuit ansatz_with_t);

    std::string_view kind() const override { return "clifford_t"; }
    std::size_t num_qubits() const override
    {
        return original_.num_qubits();
    }
    std::size_t num_params() const override
    {
        return original_.num_params();
    }

    std::size_t num_t_gates() const { return num_t_; }
    std::size_t num_branches() const { return branches_.size(); }

    void prepare(const std::vector<int>& steps) override;
    double expectation(const PauliSum& op) const override;
    std::unique_ptr<Backend> clone() const override;

  private:
    struct Branch
    {
        std::complex<double> amplitude;
        Circuit circuit;
    };

    Circuit original_;
    std::size_t num_t_ = 0;
    std::vector<Branch> branches_;
    std::optional<Statevector> state_;
    mutable ObservableMemo<CompiledPauliSum> compiled_;
};

} // namespace cafqa

#endif // CAFQA_CORE_EVALUATOR_HPP
