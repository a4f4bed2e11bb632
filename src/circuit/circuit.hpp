/**
 * @file
 * Gate-level circuit intermediate representation shared by the stabilizer,
 * statevector and density-matrix simulators.
 *
 * A circuit may contain *parameterized* rotation gates (RX/RY/RZ whose
 * angle is a slot in an external parameter vector) alongside fixed gates.
 * CAFQA restricts the parameter slots to multiples of pi/2, which makes
 * every gate Clifford; the same circuit evaluated with free angles is the
 * conventional VQA ansatz.
 */
#ifndef CAFQA_CIRCUIT_CIRCUIT_HPP
#define CAFQA_CIRCUIT_CIRCUIT_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace cafqa {

/** Supported gate kinds. */
enum class GateKind : std::uint8_t {
    H, X, Y, Z, S, Sdg, T, Tdg,
    CX, CZ, Swap,
    Rx, Ry, Rz,
    /** Two-qubit ZZ rotation exp(-i theta/2 Z x Z), used by QAOA-style
     *  ansatze; Clifford at quarter-turn angles like the 1q rotations. */
    Rzz,
};

/** True for RX/RY/RZ/RZZ. */
bool is_rotation(GateKind kind);
/** True for CX/CZ/Swap. */
bool is_two_qubit(GateKind kind);
/** Printable mnemonic, e.g. "cx". */
std::string gate_name(GateKind kind);

/** One gate application. */
struct GateOp
{
    GateKind kind;
    std::size_t q0 = 0;
    /** Second operand for two-qubit gates (target for CX). */
    std::size_t q1 = 0;
    /** Parameter slot for rotations; -1 means the fixed `angle` is used. */
    int param = -1;
    /** Fixed rotation angle, when param < 0. */
    double angle = 0.0;

    /** Resolve the rotation angle against a parameter vector. */
    double resolved_angle(const std::vector<double>& params) const;
};

/** An ordered list of gates on a fixed number of qubits. */
class Circuit
{
  public:
    explicit Circuit(std::size_t num_qubits = 0);

    std::size_t num_qubits() const { return num_qubits_; }
    std::size_t num_params() const { return num_params_; }
    const std::vector<GateOp>& ops() const { return ops_; }

    void h(std::size_t q);
    void x(std::size_t q);
    void y(std::size_t q);
    void z(std::size_t q);
    void s(std::size_t q);
    void sdg(std::size_t q);
    void t(std::size_t q);
    void tdg(std::size_t q);
    void cx(std::size_t control, std::size_t target);
    void cz(std::size_t a, std::size_t b);
    void swap(std::size_t a, std::size_t b);

    /** Fixed-angle rotations. */
    void rx(std::size_t q, double angle);
    void ry(std::size_t q, double angle);
    void rz(std::size_t q, double angle);

    /** Fixed-angle two-qubit ZZ rotation. */
    void rzz(std::size_t a, std::size_t b, double angle);

    /** Parameterized rotations; allocates the next parameter slot and
     *  returns its index. */
    int rx_param(std::size_t q);
    int ry_param(std::size_t q);
    int rz_param(std::size_t q);

    /** Allocate a parameter slot without attaching a gate (for shared
     *  parameters, e.g. QAOA layer angles). */
    int new_param();

    /** Rotations bound to an existing slot (shared parameters). */
    void rx_at(std::size_t q, int slot);
    void rzz_at(std::size_t a, std::size_t b, int slot);

    /** Append another circuit's gates (parameter slots are shifted). */
    void append(const Circuit& other);

    /** Append one gate as given: a parameterized gate keeps its slot
     *  index, and `num_params()` grows to cover that slot (the way to
     *  rebuild a circuit gate by gate with its slots intact). */
    void push(const GateOp& op);

    /**
     * True if every gate is Clifford given the parameter values: fixed
     * gates are all Clifford except T/Tdg, rotations must be multiples of
     * pi/2 within `tolerance`.
     */
    bool is_clifford(const std::vector<double>& params,
                     double tolerance = 1e-9) const;

    /** Count of gates of one kind. */
    std::size_t count(GateKind kind) const;

    /** One-gate-per-line dump. */
    std::string to_string() const;

  private:
    void check_qubit(std::size_t q) const;

    std::size_t num_qubits_ = 0;
    std::size_t num_params_ = 0;
    std::vector<GateOp> ops_;
};

} // namespace cafqa

#endif // CAFQA_CIRCUIT_CIRCUIT_HPP
