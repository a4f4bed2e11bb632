/**
 * @file
 * Circuit-level front end for the stabilizer state: applies Clifford
 * circuits (with rotation parameters given either as angles that are
 * multiples of pi/2, or directly as integer quarter-turn counts) and
 * evaluates Pauli-sum expectation values exactly.
 *
 * The state lives in the column-packed `SymplecticTableau`
 * (word-parallel gate conjugations); the legacy row-based `Tableau`,
 * the differential tests' oracle, is `tests/reference_tableau.hpp`.
 */
#ifndef CAFQA_STABILIZER_STABILIZER_SIMULATOR_HPP
#define CAFQA_STABILIZER_STABILIZER_SIMULATOR_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "pauli/pauli_sum.hpp"
#include "stabilizer/symplectic_tableau.hpp"

namespace cafqa {

/** Stabilizer-state simulator over the circuit IR. */
class StabilizerSimulator
{
  public:
    /** Start in |0...0>. */
    explicit StabilizerSimulator(std::size_t num_qubits);

    std::size_t num_qubits() const { return tableau_.num_qubits(); }

    /** Apply one gate; rotation angles must be multiples of pi/2. */
    void apply(const GateOp& op, const std::vector<double>& params = {});

    /** Apply a whole circuit with real-valued parameters (each bound
     *  rotation angle must be a multiple of pi/2). */
    void apply_circuit(const Circuit& circuit,
                       const std::vector<double>& params = {});

    /**
     * Apply a parameterized circuit where parameter slot i is the integer
     * quarter-turn count steps[i] (angle = steps[i] * pi/2). This is the
     * CAFQA search fast path — no floating-point rounding involved.
     */
    void apply_circuit_steps(const Circuit& circuit,
                             const std::vector<int>& steps);

    /** Exact single-term expectation: +1, -1 or 0. */
    int expectation(const PauliString& pauli) const;

    /**
     * Exact expectation of a Hermitian Pauli sum. Throws when any
     * coefficient carries an imaginary part above `hermitian_tolerance`
     * — silently taking `.real()` would hide mapping bugs that produce
     * non-Hermitian sums.
     */
    double expectation(const PauliSum& op,
                       double hermitian_tolerance = 1e-8) const;

    const SymplecticTableau& tableau() const { return tableau_; }

    /** Convert an angle to quarter-turns; throws if not a multiple of
     *  pi/2 within `tolerance` relative to the magnitude (see
     *  `angle_to_quarter_steps` in stabilizer/circuit_replay.hpp). */
    static int angle_to_steps(double angle, double tolerance = 1e-9);

  private:
    SymplecticTableau tableau_;
};

} // namespace cafqa

#endif // CAFQA_STABILIZER_STABILIZER_SIMULATOR_HPP
