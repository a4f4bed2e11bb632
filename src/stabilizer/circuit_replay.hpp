/**
 * @file
 * Circuit-to-tableau replay shared by every stabilizer representation.
 *
 * `SymplecticTableau` (production) and the legacy `Tableau` (reference
 * oracle in `tests/reference_tableau.hpp`) expose the same
 * gate-conjugation surface; the function templates here hold the one
 * copy of the gate-dispatch logic so the two representations are
 * driven gate-for-gate identically — the property the differential
 * tests rely on.
 */
#ifndef CAFQA_STABILIZER_CIRCUIT_REPLAY_HPP
#define CAFQA_STABILIZER_CIRCUIT_REPLAY_HPP

#include <cmath>
#include <numbers>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"

namespace cafqa {

/**
 * Convert an angle to quarter-turn counts (angle = k * pi/2, k in
 * {0,1,2,3}); throws if the angle is not a multiple of pi/2.
 *
 * The check is relative-aware: the distance to the nearest quarter turn
 * is compared against `tolerance * max(1, |angle / (pi/2)|)`, so
 * accumulated multiples such as 1e6 * (pi/2) — whose double
 * representation carries an absolute error far above any fixed
 * tolerance — are accepted, while genuinely non-Clifford angles of any
 * magnitude still throw.
 */
inline int
angle_to_quarter_steps(double angle, double tolerance = 1e-9)
{
    constexpr double half_pi = std::numbers::pi / 2.0;
    const double steps = angle / half_pi;
    const double rounded = std::round(steps);
    const double slack = tolerance * std::max(1.0, std::abs(steps));
    CAFQA_REQUIRE(std::abs(steps - rounded) <= slack,
                  "rotation angle is not a multiple of pi/2");
    const int k = static_cast<int>(std::llround(rounded) % 4);
    return (k + 4) % 4;
}

/** Apply one gate; rotation angles must be multiples of pi/2. */
template <typename TableauT>
void
replay_gate(TableauT& tableau, const GateOp& op, double angle)
{
    switch (op.kind) {
      case GateKind::H: tableau.h(op.q0); break;
      case GateKind::X: tableau.x(op.q0); break;
      case GateKind::Y: tableau.y(op.q0); break;
      case GateKind::Z: tableau.z(op.q0); break;
      case GateKind::S: tableau.s(op.q0); break;
      case GateKind::Sdg: tableau.sdg(op.q0); break;
      case GateKind::CX: tableau.cx(op.q0, op.q1); break;
      case GateKind::CZ: tableau.cz(op.q0, op.q1); break;
      case GateKind::Swap: tableau.swap(op.q0, op.q1); break;
      case GateKind::Rx:
        tableau.rx_steps(op.q0, angle_to_quarter_steps(angle));
        break;
      case GateKind::Ry:
        tableau.ry_steps(op.q0, angle_to_quarter_steps(angle));
        break;
      case GateKind::Rz:
        tableau.rz_steps(op.q0, angle_to_quarter_steps(angle));
        break;
      case GateKind::Rzz:
        tableau.rzz_steps(op.q0, op.q1, angle_to_quarter_steps(angle));
        break;
      case GateKind::T:
      case GateKind::Tdg:
        CAFQA_REQUIRE(false,
                      "T gates are not Clifford; use the Clifford+kT "
                      "branch simulator (core/clifford_t)");
    }
}

/** Apply a whole circuit with real-valued parameters (each bound
 *  rotation angle must be a multiple of pi/2). */
template <typename TableauT>
void
replay_circuit(TableauT& tableau, const Circuit& circuit,
               const std::vector<double>& params = {})
{
    CAFQA_REQUIRE(circuit.num_qubits() == tableau.num_qubits(),
                  "circuit qubit count mismatch");
    for (const auto& op : circuit.ops()) {
        replay_gate(tableau, op,
                    is_rotation(op.kind) ? op.resolved_angle(params) : 0.0);
    }
}

/** Apply a parameterized circuit where parameter slot i is the integer
 *  quarter-turn count steps[i] — the CAFQA search fast path. */
template <typename TableauT>
void
replay_circuit_steps(TableauT& tableau, const Circuit& circuit,
                     const std::vector<int>& steps)
{
    CAFQA_REQUIRE(circuit.num_qubits() == tableau.num_qubits(),
                  "circuit qubit count mismatch");
    CAFQA_REQUIRE(steps.size() == circuit.num_params(),
                  "step vector size must equal circuit parameter count");
    for (const auto& op : circuit.ops()) {
        if (is_rotation(op.kind) && op.param >= 0) {
            const int k = steps[static_cast<std::size_t>(op.param)];
            switch (op.kind) {
              case GateKind::Rx: tableau.rx_steps(op.q0, k); break;
              case GateKind::Ry: tableau.ry_steps(op.q0, k); break;
              case GateKind::Rz: tableau.rz_steps(op.q0, k); break;
              case GateKind::Rzz:
                tableau.rzz_steps(op.q0, op.q1, k);
                break;
              default: break;
            }
        } else {
            replay_gate(tableau, op,
                        is_rotation(op.kind) ? op.angle : 0.0);
        }
    }
}

} // namespace cafqa

#endif // CAFQA_STABILIZER_CIRCUIT_REPLAY_HPP
