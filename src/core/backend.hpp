/**
 * @file
 * The unified state-preparation backend hierarchy (the evaluation API the
 * whole library is built on).
 *
 * A `Backend` owns an ansatz circuit, prepares the ansatz state for one
 * parameter assignment, and measures expectation values of Hermitian
 * Pauli-sum observables on the prepared state. The two concrete shapes
 * differ only in the parameter domain:
 *
 * - `DiscreteBackend`:   integer quarter-turn steps (theta = k * pi/2),
 *   the CAFQA search domain. Implementations: `CliffordEvaluator`
 *   ("clifford"), `CliffordTEvaluator` ("clifford_t").
 * - `ContinuousBackend`: radian parameter vectors, the VQA tuning
 *   domain. Implementations: `IdealEvaluator` ("statevector"),
 *   `NoisyEvaluator` ("density"), `SampledEvaluator` ("sampled").
 *
 * Both expose a *batched* surface:
 *
 * - `expectations(std::span<const PauliSum>)` measures many observables
 *   on one prepared state, amortizing state preparation across the
 *   Hamiltonian and constraint operators of an objective.
 * - `expectation_batch(candidates, op)` sweeps one observable across
 *   many parameter assignments (the warm-up / enumeration access
 *   pattern); combined with `clone()` it is the unit of thread-pool
 *   fan-out.
 *
 * Backends are constructed directly or through the string-keyed registry
 * in `core/backend_registry.hpp` (`make_backend(BackendConfig)`).
 */
#ifndef CAFQA_CORE_BACKEND_HPP
#define CAFQA_CORE_BACKEND_HPP

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "pauli/pauli_sum.hpp"

namespace cafqa {

/** Common backend base: measure observables on the prepared state. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Registry key of this backend's kind (e.g. "clifford"). */
    virtual std::string_view kind() const = 0;

    /** Qubit count of the underlying ansatz/state. */
    virtual std::size_t num_qubits() const = 0;

    /** Parameter count of the underlying ansatz. */
    virtual std::size_t num_params() const = 0;

    /** True when prepare() takes integer quarter-turn steps. */
    virtual bool discrete() const = 0;

    /** Expectation of one Hermitian operator on the prepared state. */
    virtual double expectation(const PauliSum& op) const = 0;

    /**
     * Expectations of several operators on the *same* prepared state —
     * one state preparation amortized across all observables. The
     * default implementation loops `expectation`; backends with
     * per-call setup cost override it.
     */
    virtual std::vector<double>
    expectations(std::span<const PauliSum> ops) const;

    /** Deep copy in the unprepared-or-prepared current state, for
     *  per-thread fan-out. */
    virtual std::unique_ptr<Backend> clone() const = 0;
};

/** Backend over the discrete quarter-turn domain (CAFQA search). */
class DiscreteBackend : public Backend
{
  public:
    bool discrete() const final { return true; }

    /** Prepare the ansatz state for a step assignment
     *  (steps[i] in {0, 1, 2, 3}, theta = steps[i] * pi/2). */
    virtual void prepare(const std::vector<int>& steps) = 0;

    /**
     * Sweep `op` across many candidate step assignments, re-preparing
     * per candidate. Leaves the backend prepared at the last candidate.
     */
    virtual std::vector<double>
    expectation_batch(const std::vector<std::vector<int>>& candidates,
                      const PauliSum& op);

    /** clone() with the derived static type restored. */
    std::unique_ptr<DiscreteBackend> clone_discrete() const;
};

/** Backend over continuous radian parameters (VQA tuning). */
class ContinuousBackend : public Backend
{
  public:
    bool discrete() const final { return false; }

    /** Prepare the ansatz state for a radian parameter vector. */
    virtual void prepare(const std::vector<double>& params) = 0;

    /** Sweep `op` across many parameter vectors (see DiscreteBackend). */
    virtual std::vector<double>
    expectation_batch(const std::vector<std::vector<double>>& candidates,
                      const PauliSum& op);

    /** clone() with the derived static type restored. */
    std::unique_ptr<ContinuousBackend> clone_continuous() const;
};

} // namespace cafqa

#endif // CAFQA_CORE_BACKEND_HPP
