#include "core/evaluator.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "core/clifford_ansatz.hpp"
#include "stabilizer/circuit_replay.hpp"

namespace cafqa {

// ---------------------------------------------------------------- Clifford

CliffordEvaluator::CliffordEvaluator(Circuit ansatz)
    : ansatz_(std::move(ansatz))
{
    require_clifford_ansatz(ansatz_);
}

void
CliffordEvaluator::prepare(const std::vector<int>& steps)
{
    tableau_.emplace(ansatz_.num_qubits());
    replay_circuit_steps(*tableau_, ansatz_, steps);
}

double
CliffordEvaluator::expectation(const PauliSum& op) const
{
    CAFQA_REQUIRE(tableau_.has_value(), "prepare() has not been called");
    return engines_.get(op).expectation(*tableau_);
}

std::vector<double>
CliffordEvaluator::expectations(std::span<const PauliSum> ops) const
{
    CAFQA_REQUIRE(tableau_.has_value(), "prepare() has not been called");
    std::vector<double> values;
    values.reserve(ops.size());
    for (const PauliSum& op : ops) {
        values.push_back(engines_.get(op).expectation(*tableau_));
    }
    return values;
}

std::vector<double>
CliffordEvaluator::expectation_batch(
    const std::vector<std::vector<int>>& candidates, const PauliSum& op)
{
    // Compile once, then sweep: each candidate pays only tableau
    // construction plus one batched evaluation pass.
    const StabilizerExpectationEngine& engine = engines_.get(op);
    std::vector<double> values;
    values.reserve(candidates.size());
    for (const auto& steps : candidates) {
        prepare(steps);
        values.push_back(engine.expectation(*tableau_));
    }
    return values;
}

int
CliffordEvaluator::expectation(const PauliString& pauli) const
{
    CAFQA_REQUIRE(tableau_.has_value(), "prepare() has not been called");
    return tableau_->expectation(pauli);
}

std::unique_ptr<Backend>
CliffordEvaluator::clone() const
{
    return std::make_unique<CliffordEvaluator>(*this);
}

// ------------------------------------------------------------------- Ideal

IdealEvaluator::IdealEvaluator(Circuit ansatz, ThreadPool* pool)
    : ansatz_(std::move(ansatz)), pool_(pool)
{}

void
IdealEvaluator::prepare(const std::vector<double>& params)
{
    state_.emplace(ansatz_.num_qubits());
    state_->apply_circuit(ansatz_, params);
}

double
IdealEvaluator::expectation(const PauliSum& op) const
{
    CAFQA_REQUIRE(state_.has_value(), "prepare() has not been called");
    return state_->expectation(compiled_.get(op), pool_);
}

const Statevector&
IdealEvaluator::state() const
{
    CAFQA_REQUIRE(state_.has_value(), "prepare() has not been called");
    return *state_;
}

std::unique_ptr<Backend>
IdealEvaluator::clone() const
{
    return std::make_unique<IdealEvaluator>(*this);
}

// ------------------------------------------------------------------- Noisy

NoisyEvaluator::NoisyEvaluator(Circuit ansatz, NoiseModel noise)
    : ansatz_(std::move(ansatz)), noise_(std::move(noise))
{}

void
NoisyEvaluator::prepare(const std::vector<double>& params)
{
    rho_ = simulate_noisy(ansatz_, params, noise_);
}

double
NoisyEvaluator::expectation(const PauliSum& op) const
{
    CAFQA_REQUIRE(rho_.has_value(), "prepare() has not been called");
    return rho_->expectation(op);
}

std::unique_ptr<Backend>
NoisyEvaluator::clone() const
{
    return std::make_unique<NoisyEvaluator>(*this);
}

// ------------------------------------------------------------- Clifford+kT

CliffordTEvaluator::CliffordTEvaluator(Circuit ansatz_with_t)
    : original_(std::move(ansatz_with_t))
{
    // Exact single-qubit identity: T = alpha I + beta S with
    // beta = (e^{i pi/4} - 1)/(i - 1), alpha = 1 - beta.
    const std::complex<double> i{0.0, 1.0};
    const std::complex<double> beta =
        (std::exp(i * (std::numbers::pi / 4.0)) - 1.0) / (i - 1.0);
    const std::complex<double> alpha = 1.0 - beta;
    // Tdg = conj(alpha) I + conj(beta) Sdg.

    num_t_ = original_.count(GateKind::T) + original_.count(GateKind::Tdg);
    CAFQA_REQUIRE(num_t_ <= 12,
                  "branch decomposition limited to 12 T gates (2^k "
                  "branches)");

    branches_.push_back(
        Branch{std::complex<double>{1.0, 0.0}, Circuit(original_.num_qubits())});
    for (const auto& op : original_.ops()) {
        if (op.kind != GateKind::T && op.kind != GateKind::Tdg) {
            for (auto& branch : branches_) {
                branch.circuit.push(op);
            }
            continue;
        }
        const bool dagger = op.kind == GateKind::Tdg;
        const std::complex<double> a = dagger ? std::conj(alpha) : alpha;
        const std::complex<double> b = dagger ? std::conj(beta) : beta;
        std::vector<Branch> expanded;
        expanded.reserve(branches_.size() * 2);
        for (const auto& branch : branches_) {
            Branch identity_branch = branch;
            identity_branch.amplitude *= a;
            expanded.push_back(std::move(identity_branch));

            Branch s_branch = branch;
            s_branch.amplitude *= b;
            s_branch.circuit.push(GateOp{
                dagger ? GateKind::Sdg : GateKind::S, op.q0, 0, -1, 0.0});
            expanded.push_back(std::move(s_branch));
        }
        branches_ = std::move(expanded);
    }
}

void
CliffordTEvaluator::prepare(const std::vector<int>& steps)
{
    const std::vector<double> angles = steps_to_angles(steps);
    Statevector total(original_.num_qubits());
    auto& amps = total.amplitudes();
    std::fill(amps.begin(), amps.end(), std::complex<double>{0.0, 0.0});

    for (const auto& branch : branches_) {
        Statevector psi(original_.num_qubits());
        for (const auto& op : branch.circuit.ops()) {
            psi.apply(op, angles);
        }
        for (std::size_t k = 0; k < amps.size(); ++k) {
            amps[k] += branch.amplitude * psi.amplitudes()[k];
        }
    }
    // T is unitary, so the branch sum has unit norm up to roundoff.
    total.normalize();
    state_ = std::move(total);
}

double
CliffordTEvaluator::expectation(const PauliSum& op) const
{
    CAFQA_REQUIRE(state_.has_value(), "prepare() has not been called");
    return state_->expectation(compiled_.get(op));
}

std::unique_ptr<Backend>
CliffordTEvaluator::clone() const
{
    return std::make_unique<CliffordTEvaluator>(*this);
}

} // namespace cafqa
