// Tests for the circuit IR and the EfficientSU2 ansatz builder.

#include <gtest/gtest.h>

#include <numbers>

#include "circuit/circuit.hpp"
#include "circuit/efficient_su2.hpp"

namespace cafqa {
namespace {

TEST(Circuit, GateClassification)
{
    EXPECT_TRUE(is_rotation(GateKind::Rx));
    EXPECT_TRUE(is_rotation(GateKind::Ry));
    EXPECT_TRUE(is_rotation(GateKind::Rz));
    EXPECT_FALSE(is_rotation(GateKind::H));
    EXPECT_TRUE(is_two_qubit(GateKind::CX));
    EXPECT_TRUE(is_two_qubit(GateKind::Swap));
    EXPECT_FALSE(is_two_qubit(GateKind::T));
    EXPECT_EQ(gate_name(GateKind::Sdg), "sdg");
    EXPECT_EQ(gate_name(GateKind::CX), "cx");
}

TEST(Circuit, ParameterSlotAllocation)
{
    Circuit c(3);
    EXPECT_EQ(c.ry_param(0), 0);
    EXPECT_EQ(c.rz_param(1), 1);
    EXPECT_EQ(c.rx_param(2), 2);
    EXPECT_EQ(c.num_params(), 3u);
    c.ry(0, 1.5); // fixed angle takes no slot
    EXPECT_EQ(c.num_params(), 3u);
}

TEST(Circuit, ResolvedAngle)
{
    Circuit c(1);
    c.ry_param(0);
    c.ry(0, 0.25);
    const auto& ops = c.ops();
    EXPECT_NEAR(ops[0].resolved_angle({1.5}), 1.5, 1e-15);
    EXPECT_NEAR(ops[1].resolved_angle({1.5}), 0.25, 1e-15);
    EXPECT_THROW(ops[0].resolved_angle({}), std::invalid_argument);
}

TEST(Circuit, AppendShiftsParameterSlots)
{
    Circuit a(2);
    a.ry_param(0);
    Circuit b(2);
    b.rz_param(1);
    b.cx(0, 1);
    a.append(b);
    EXPECT_EQ(a.num_params(), 2u);
    EXPECT_EQ(a.ops()[1].param, 1);

    Circuit wrong(3);
    EXPECT_THROW(a.append(wrong), std::invalid_argument);
}

TEST(Circuit, PushKeepsSlotsAndCountsThem)
{
    Circuit source(2);
    source.ry_param(0);
    source.t(0);
    source.rz_param(1);
    source.cx(0, 1);
    Circuit copy(2);
    for (const GateOp& op : source.ops()) {
        copy.push(op);
    }
    EXPECT_EQ(copy.num_params(), source.num_params());
    EXPECT_EQ(copy.to_string(), source.to_string());

    // A slot beyond the count grows it to cover the slot; fixed gates
    // take none.
    Circuit sparse(2);
    sparse.push(GateOp{GateKind::Rx, 1, 0, 4, 0.0});
    sparse.push(GateOp{GateKind::S, 0, 0, -1, 0.0});
    EXPECT_EQ(sparse.num_params(), 5u);

    EXPECT_THROW(sparse.push(GateOp{GateKind::H, 2, 0, -1, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(sparse.push(GateOp{GateKind::CX, 0, 2, -1, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(sparse.push(GateOp{GateKind::CZ, 1, 1, -1, 0.0}),
                 std::invalid_argument);
}

TEST(Circuit, Validation)
{
    Circuit c(2);
    EXPECT_THROW(c.h(2), std::invalid_argument);
    EXPECT_THROW(c.cx(0, 0), std::invalid_argument);
    EXPECT_THROW(c.swap(1, 1), std::invalid_argument);
}

TEST(Circuit, IsCliffordCheck)
{
    constexpr double half_pi = std::numbers::pi / 2.0;
    Circuit c(2);
    c.h(0);
    const int slot = c.ry_param(1);
    (void)slot;
    c.cx(0, 1);
    EXPECT_TRUE(c.is_clifford({2 * half_pi}));
    EXPECT_FALSE(c.is_clifford({0.3}));

    Circuit with_t(1);
    with_t.t(0);
    EXPECT_FALSE(with_t.is_clifford({}));
}

TEST(Circuit, CountAndToString)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.ry_param(2);
    EXPECT_EQ(c.count(GateKind::CX), 2u);
    EXPECT_EQ(c.count(GateKind::H), 1u);
    const std::string text = c.to_string();
    EXPECT_NE(text.find("cx q0, q1"), std::string::npos);
    EXPECT_NE(text.find("theta[0]"), std::string::npos);
}

TEST(EfficientSu2, DefaultShape)
{
    const Circuit c = make_efficient_su2(5);
    // 2 rotation blocks x (reps=1 + final layer) x 5 qubits.
    EXPECT_EQ(c.num_params(), 20u);
    EXPECT_EQ(c.count(GateKind::CX), 4u); // linear ladder
    EXPECT_EQ(c.count(GateKind::Ry), 10u);
    EXPECT_EQ(c.count(GateKind::Rz), 10u);
}

TEST(EfficientSu2, RepsAndBlocks)
{
    EfficientSu2Options options;
    options.reps = 3;
    options.rotation_blocks = {GateKind::Ry};
    const Circuit c = make_efficient_su2(4, options);
    EXPECT_EQ(c.num_params(), 4u * 1u * 4u); // (reps+final) * blocks * n
    EXPECT_EQ(c.count(GateKind::CX), 3u * 3u);

    options.final_rotation_layer = false;
    const Circuit c2 = make_efficient_su2(4, options);
    EXPECT_EQ(c2.num_params(), 4u * 3u);
}

TEST(EfficientSu2, RejectsBadOptions)
{
    EfficientSu2Options bad;
    bad.rotation_blocks = {GateKind::H};
    EXPECT_THROW(make_efficient_su2(2, bad), std::invalid_argument);
    EXPECT_THROW(make_efficient_su2(0), std::invalid_argument);
    EfficientSu2Options empty;
    empty.rotation_blocks = {};
    EXPECT_THROW(make_efficient_su2(2, empty), std::invalid_argument);
}

TEST(EfficientSu2, MicrobenchmarkAnsatz)
{
    const Circuit c = make_microbenchmark_ansatz();
    EXPECT_EQ(c.num_qubits(), 2u);
    EXPECT_EQ(c.num_params(), 1u);
    EXPECT_EQ(c.count(GateKind::CX), 1u);
}

} // namespace
} // namespace cafqa
