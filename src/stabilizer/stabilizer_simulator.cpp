#include "stabilizer/stabilizer_simulator.hpp"

#include "common/error.hpp"
#include "stabilizer/circuit_replay.hpp"

namespace cafqa {

namespace {

/** Max tolerated |imag coefficient| of a summed observable. */
constexpr double kHermitianTolerance = 1e-8;

} // namespace

StabilizerSimulator::StabilizerSimulator(std::size_t num_qubits)
    : tableau_(num_qubits)
{}

int
StabilizerSimulator::angle_to_steps(double angle, double tolerance)
{
    return angle_to_quarter_steps(angle, tolerance);
}

void
StabilizerSimulator::apply(const GateOp& op, const std::vector<double>& params)
{
    replay_gate(tableau_, op,
                is_rotation(op.kind) ? op.resolved_angle(params) : 0.0);
}

void
StabilizerSimulator::apply_circuit(const Circuit& circuit,
                                   const std::vector<double>& params)
{
    replay_circuit(tableau_, circuit, params);
}

void
StabilizerSimulator::apply_circuit_steps(const Circuit& circuit,
                                         const std::vector<int>& steps)
{
    replay_circuit_steps(tableau_, circuit, steps);
}

int
StabilizerSimulator::expectation(const PauliString& pauli) const
{
    return tableau_.expectation(pauli);
}

double
StabilizerSimulator::expectation(const PauliSum& op) const
{
    CAFQA_REQUIRE(op.num_qubits() == num_qubits(),
                  "operator qubit count mismatch");
    require_hermitian(op, kHermitianTolerance);
    double total = 0.0;
    for (const auto& term : op.terms()) {
        const int e = tableau_.expectation(term.string);
        if (e != 0) {
            total += term.coefficient.real() * e;
        }
    }
    return total;
}

} // namespace cafqa
