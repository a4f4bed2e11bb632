#include "circuit/circuit.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "common/error.hpp"

namespace cafqa {

bool
is_rotation(GateKind kind)
{
    return kind == GateKind::Rx || kind == GateKind::Ry ||
           kind == GateKind::Rz || kind == GateKind::Rzz;
}

bool
is_two_qubit(GateKind kind)
{
    return kind == GateKind::CX || kind == GateKind::CZ ||
           kind == GateKind::Swap || kind == GateKind::Rzz;
}

std::string
gate_name(GateKind kind)
{
    switch (kind) {
      case GateKind::H: return "h";
      case GateKind::X: return "x";
      case GateKind::Y: return "y";
      case GateKind::Z: return "z";
      case GateKind::S: return "s";
      case GateKind::Sdg: return "sdg";
      case GateKind::T: return "t";
      case GateKind::Tdg: return "tdg";
      case GateKind::CX: return "cx";
      case GateKind::CZ: return "cz";
      case GateKind::Swap: return "swap";
      case GateKind::Rx: return "rx";
      case GateKind::Ry: return "ry";
      case GateKind::Rz: return "rz";
      case GateKind::Rzz: return "rzz";
    }
    return "?";
}

double
GateOp::resolved_angle(const std::vector<double>& params) const
{
    if (param < 0) {
        return angle;
    }
    CAFQA_REQUIRE(static_cast<std::size_t>(param) < params.size(),
                  "parameter vector too short for circuit");
    return params[static_cast<std::size_t>(param)];
}

Circuit::Circuit(std::size_t num_qubits) : num_qubits_(num_qubits) {}

void
Circuit::check_qubit(std::size_t q) const
{
    CAFQA_REQUIRE(q < num_qubits_, "qubit index out of range");
}

#define CAFQA_DEFINE_1Q(NAME, KIND)                                          \
    void Circuit::NAME(std::size_t q)                                        \
    {                                                                        \
        check_qubit(q);                                                      \
        ops_.push_back(GateOp{GateKind::KIND, q, 0, -1, 0.0});               \
    }

CAFQA_DEFINE_1Q(h, H)
CAFQA_DEFINE_1Q(x, X)
CAFQA_DEFINE_1Q(y, Y)
CAFQA_DEFINE_1Q(z, Z)
CAFQA_DEFINE_1Q(s, S)
CAFQA_DEFINE_1Q(sdg, Sdg)
CAFQA_DEFINE_1Q(t, T)
CAFQA_DEFINE_1Q(tdg, Tdg)

#undef CAFQA_DEFINE_1Q

void
Circuit::cx(std::size_t control, std::size_t target)
{
    check_qubit(control);
    check_qubit(target);
    CAFQA_REQUIRE(control != target, "control equals target");
    ops_.push_back(GateOp{GateKind::CX, control, target, -1, 0.0});
}

void
Circuit::cz(std::size_t a, std::size_t b)
{
    check_qubit(a);
    check_qubit(b);
    CAFQA_REQUIRE(a != b, "cz operands equal");
    ops_.push_back(GateOp{GateKind::CZ, a, b, -1, 0.0});
}

void
Circuit::swap(std::size_t a, std::size_t b)
{
    check_qubit(a);
    check_qubit(b);
    CAFQA_REQUIRE(a != b, "swap operands equal");
    ops_.push_back(GateOp{GateKind::Swap, a, b, -1, 0.0});
}

void
Circuit::rx(std::size_t q, double angle)
{
    check_qubit(q);
    ops_.push_back(GateOp{GateKind::Rx, q, 0, -1, angle});
}

void
Circuit::ry(std::size_t q, double angle)
{
    check_qubit(q);
    ops_.push_back(GateOp{GateKind::Ry, q, 0, -1, angle});
}

void
Circuit::rz(std::size_t q, double angle)
{
    check_qubit(q);
    ops_.push_back(GateOp{GateKind::Rz, q, 0, -1, angle});
}

int
Circuit::rx_param(std::size_t q)
{
    check_qubit(q);
    const int slot = static_cast<int>(num_params_++);
    ops_.push_back(GateOp{GateKind::Rx, q, 0, slot, 0.0});
    return slot;
}

int
Circuit::ry_param(std::size_t q)
{
    check_qubit(q);
    const int slot = static_cast<int>(num_params_++);
    ops_.push_back(GateOp{GateKind::Ry, q, 0, slot, 0.0});
    return slot;
}

int
Circuit::rz_param(std::size_t q)
{
    check_qubit(q);
    const int slot = static_cast<int>(num_params_++);
    ops_.push_back(GateOp{GateKind::Rz, q, 0, slot, 0.0});
    return slot;
}

void
Circuit::rzz(std::size_t a, std::size_t b, double angle)
{
    check_qubit(a);
    check_qubit(b);
    CAFQA_REQUIRE(a != b, "rzz operands equal");
    ops_.push_back(GateOp{GateKind::Rzz, a, b, -1, angle});
}

int
Circuit::new_param()
{
    return static_cast<int>(num_params_++);
}

namespace {

void
check_slot(int slot, std::size_t num_params)
{
    CAFQA_REQUIRE(slot >= 0 &&
                      static_cast<std::size_t>(slot) < num_params,
                  "parameter slot was not allocated");
}

} // namespace

void
Circuit::rx_at(std::size_t q, int slot)
{
    check_qubit(q);
    check_slot(slot, num_params_);
    ops_.push_back(GateOp{GateKind::Rx, q, 0, slot, 0.0});
}

void
Circuit::rzz_at(std::size_t a, std::size_t b, int slot)
{
    check_qubit(a);
    check_qubit(b);
    CAFQA_REQUIRE(a != b, "rzz operands equal");
    check_slot(slot, num_params_);
    ops_.push_back(GateOp{GateKind::Rzz, a, b, slot, 0.0});
}

void
Circuit::append(const Circuit& other)
{
    CAFQA_REQUIRE(other.num_qubits_ == num_qubits_, "qubit count mismatch");
    for (GateOp op : other.ops_) {
        if (op.param >= 0) {
            op.param += static_cast<int>(num_params_);
        }
        ops_.push_back(op);
    }
    num_params_ += other.num_params_;
}

void
Circuit::push(const GateOp& op)
{
    check_qubit(op.q0);
    if (is_two_qubit(op.kind)) {
        check_qubit(op.q1);
        CAFQA_REQUIRE(op.q0 != op.q1, "two-qubit gate operands equal");
    }
    if (op.param >= 0) {
        num_params_ = std::max(num_params_,
                               static_cast<std::size_t>(op.param) + 1);
    }
    ops_.push_back(op);
}

bool
Circuit::is_clifford(const std::vector<double>& params,
                     double tolerance) const
{
    constexpr double half_pi = std::numbers::pi / 2.0;
    for (const auto& op : ops_) {
        if (op.kind == GateKind::T || op.kind == GateKind::Tdg) {
            return false;
        }
        if (is_rotation(op.kind)) {
            const double angle = op.resolved_angle(params);
            const double steps = angle / half_pi;
            if (std::abs(steps - std::round(steps)) > tolerance) {
                return false;
            }
        }
    }
    return true;
}

std::size_t
Circuit::count(GateKind kind) const
{
    std::size_t total = 0;
    for (const auto& op : ops_) {
        if (op.kind == kind) {
            ++total;
        }
    }
    return total;
}

std::string
Circuit::to_string() const
{
    std::ostringstream out;
    for (const auto& op : ops_) {
        out << gate_name(op.kind) << " q" << op.q0;
        if (is_two_qubit(op.kind)) {
            out << ", q" << op.q1;
        }
        if (is_rotation(op.kind)) {
            if (op.param >= 0) {
                out << " (theta[" << op.param << "])";
            } else {
                out << " (" << op.angle << ")";
            }
        }
        out << '\n';
    }
    return out.str();
}

} // namespace cafqa
