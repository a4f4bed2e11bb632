// Unit and property tests for the Pauli algebra module.

#include <gtest/gtest.h>

#include <complex>
#include <map>
#include <string>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "pauli/grouping.hpp"
#include "pauli/pauli_string.hpp"
#include "pauli/pauli_sum.hpp"
#include "reference_tableau.hpp"
#include "stabilizer/circuit_replay.hpp"
#include "stabilizer/expectation_engine.hpp"
#include "stabilizer/symplectic_tableau.hpp"

namespace cafqa {
namespace {

TEST(PauliString, IdentityDefaults)
{
    PauliString p(4);
    EXPECT_EQ(p.num_qubits(), 4u);
    EXPECT_TRUE(p.is_identity_letters());
    EXPECT_TRUE(p.is_hermitian());
    EXPECT_EQ(p.weight(), 0u);
    EXPECT_EQ(p.to_label(), "IIII");
}

TEST(PauliString, FromLabelRoundTrip)
{
    for (const std::string label :
         {"XIZY", "-XX", "+iZZ", "-iYI", "IIII", "YYYY", "-YZXI"}) {
        const PauliString p = PauliString::from_label(label);
        std::string expect = label;
        if (expect[0] != '-' && expect[0] != '+') {
            // no prefix
        } else if (expect.substr(0, 2) == "+i") {
            // canonical form
        }
        EXPECT_EQ(PauliString::from_label(p.to_label()), p) << label;
    }
    EXPECT_EQ(PauliString::from_label("XIZY").to_label(), "XIZY");
    EXPECT_EQ(PauliString::from_label("-XX").to_label(), "-XX");
}

TEST(PauliString, SingleQubitMultiplicationTable)
{
    // Expected products with phases: row * column.
    const std::map<std::pair<char, char>, std::string> table = {
        {{'X', 'X'}, "I"},   {{'Y', 'Y'}, "I"},   {{'Z', 'Z'}, "I"},
        {{'X', 'Y'}, "+iZ"}, {{'Y', 'X'}, "-iZ"}, {{'Y', 'Z'}, "+iX"},
        {{'Z', 'Y'}, "-iX"}, {{'Z', 'X'}, "+iY"}, {{'X', 'Z'}, "-iY"},
        {{'X', 'I'}, "X"},   {{'I', 'X'}, "X"},   {{'I', 'I'}, "I"},
    };
    for (const auto& [operands, expected] : table) {
        const PauliString a =
            PauliString::from_label(std::string(1, operands.first));
        const PauliString b =
            PauliString::from_label(std::string(1, operands.second));
        EXPECT_EQ((a * b).to_label(), expected)
            << operands.first << " * " << operands.second;
    }
}

TEST(PauliString, CommutationRules)
{
    const PauliString xx = PauliString::from_label("XX");
    const PauliString zz = PauliString::from_label("ZZ");
    const PauliString zi = PauliString::from_label("ZI");
    EXPECT_TRUE(xx.commutes_with(zz));
    EXPECT_FALSE(xx.commutes_with(zi));
    EXPECT_TRUE(zz.commutes_with(zi));
}

TEST(PauliString, HermiticityTracking)
{
    EXPECT_TRUE(PauliString::from_label("Y").is_hermitian());
    EXPECT_TRUE(PauliString::from_label("-YYZ").is_hermitian());
    EXPECT_FALSE(PauliString::from_label("+iX").is_hermitian());
    const PauliString y2 = PauliString::from_label("YY");
    EXPECT_NEAR((y2.sign() - std::complex<double>{1.0, 0.0}).real(), 0.0,
                1e-15);
}

TEST(PauliString, SetLetterPreservesSign)
{
    PauliString p = PauliString::from_label("-XIZ");
    p.set_letter(1, PauliLetter::Y);
    EXPECT_EQ(p.to_label(), "-XYZ");
    p.set_letter(1, PauliLetter::I);
    EXPECT_EQ(p.to_label(), "-XIZ");
}

TEST(PauliString, RemoveQubit)
{
    PauliString p = PauliString::from_label("-XZYI");
    p.remove_qubit(1);
    EXPECT_EQ(p.to_label(), "-XYI");
    EXPECT_THROW(p.remove_qubit(1), std::invalid_argument); // Y has X bit
}

TEST(PauliString, WideStringsCrossWordBoundary)
{
    PauliString p(130);
    p.set_letter(0, PauliLetter::X);
    p.set_letter(64, PauliLetter::Y);
    p.set_letter(129, PauliLetter::Z);
    EXPECT_EQ(p.weight(), 3u);
    EXPECT_TRUE(p.is_hermitian());

    PauliString q(130);
    q.set_letter(64, PauliLetter::Z); // anticommutes with the Y at 64
    EXPECT_FALSE(p.commutes_with(q));
    q.set_letter(0, PauliLetter::Z);  // second anticommuting position
    EXPECT_TRUE(p.commutes_with(q));
}

// Property: multiplication is associative and phase-exact on random strings.
class PauliAlgebraProperty : public ::testing::TestWithParam<int> {};

TEST_P(PauliAlgebraProperty, AssociativityAndInverse)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 9));
    auto random_string = [&]() {
        PauliString p(n);
        for (std::size_t q = 0; q < n; ++q) {
            p.set_letter(q,
                         static_cast<PauliLetter>(rng.uniform_int(0, 3)));
        }
        if (rng.bernoulli(0.5)) {
            p.mul_phase(2); // random sign
        }
        return p;
    };
    const PauliString a = random_string();
    const PauliString b = random_string();
    const PauliString c = random_string();

    EXPECT_EQ(((a * b) * c), (a * (b * c)));

    // P * P = sign-squared identity for Hermitian P.
    const PauliString sq = a * a;
    EXPECT_TRUE(sq.is_identity_letters());
    EXPECT_NEAR(std::abs(sq.sign() - std::complex<double>{1.0, 0.0}), 0.0,
                1e-15);

    // Commutation is symmetric.
    EXPECT_EQ(a.commutes_with(b), b.commutes_with(a));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PauliAlgebraProperty,
                         ::testing::Range(0, 25));

TEST(PauliSum, SimplifyCombinesTerms)
{
    PauliSum sum(2);
    sum.add_term(1.0, PauliString::from_label("XY"));
    sum.add_term(0.5, PauliString::from_label("XY"));
    sum.add_term(-1.5, PauliString::from_label("XY"));
    sum.add_term(2.0, PauliString::from_label("ZZ"));
    sum.simplify();
    ASSERT_EQ(sum.num_terms(), 1u);
    EXPECT_EQ(sum.terms()[0].string.to_label(), "ZZ");
}

TEST(PauliSum, SignsFoldIntoCoefficients)
{
    PauliSum sum(1);
    sum.add_term(2.0, PauliString::from_label("-Z"));
    sum.simplify();
    ASSERT_EQ(sum.num_terms(), 1u);
    EXPECT_NEAR(sum.terms()[0].coefficient.real(), -2.0, 1e-15);
    EXPECT_EQ(sum.terms()[0].string.to_label(), "Z");
}

TEST(PauliSum, ProductMatchesAlgebra)
{
    // (X + Z) * (X - Z) = XX - XZ + ZX - ZZ = I - (-iY)... validated
    // numerically below: X*Z = -iY, Z*X = +iY, so the product is
    // I*1 - (-iY) + (iY) - I = 2iY.
    const PauliSum a = PauliSum::from_terms(1, {{1.0, "X"}, {1.0, "Z"}});
    const PauliSum b = PauliSum::from_terms(1, {{1.0, "X"}, {-1.0, "Z"}});
    PauliSum prod = a * b;
    prod.simplify();
    ASSERT_EQ(prod.num_terms(), 1u);
    EXPECT_EQ(prod.terms()[0].string.to_label(), "Y");
    EXPECT_NEAR(prod.terms()[0].coefficient.imag(), 2.0, 1e-15);
}

TEST(PauliSum, DiagonalPartExtraction)
{
    const PauliSum h = PauliSum::from_terms(
        4, {{0.1, "XYXY"}, {0.5, "IZZI"}, {0.25, "ZIII"}, {-0.3, "IXII"}});
    EXPECT_FALSE(h.is_diagonal());
    const PauliSum diag = h.diagonal_part();
    EXPECT_EQ(diag.num_terms(), 2u);
    EXPECT_TRUE(diag.is_diagonal());
    EXPECT_NEAR(diag.one_norm(), 0.75, 1e-15);
}

TEST(PauliSum, IdentityCoefficient)
{
    const PauliSum h =
        PauliSum::from_terms(2, {{1.5, "II"}, {0.5, "ZZ"}});
    EXPECT_NEAR(h.identity_coefficient().real(), 1.5, 1e-15);
}

TEST(Grouping, QubitwiseCommuteMatchesLetterDefinition)
{
    // The word-parallel implementation must agree with the per-letter
    // definition, including across the 64-qubit word boundary.
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = (trial % 2 == 0) ? 9 : 70;
        PauliString a(n);
        PauliString b(n);
        for (std::size_t q = 0; q < n; ++q) {
            a.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(0, 3)));
            b.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(0, 3)));
        }
        bool expected = true;
        for (std::size_t q = 0; q < n; ++q) {
            const PauliLetter la = a.letter(q);
            const PauliLetter lb = b.letter(q);
            if (la != PauliLetter::I && lb != PauliLetter::I && la != lb) {
                expected = false;
                break;
            }
        }
        EXPECT_EQ(qubitwise_commute(a, b), expected) << a.to_label()
                                                     << " vs "
                                                     << b.to_label();
    }
}

TEST(Grouping, GroupedStabilizerEnergiesMatchRowLoop)
{
    // The expectation engine precompiles through the QWC grouping;
    // grouping is a layout optimization and must not change a single
    // bit of the evaluated energy against the plain per-term row loop.
    Rng rng(31);
    const std::size_t n = 8;
    PauliSum op(n);
    for (int t = 0; t < 30; ++t) {
        PauliString p(n);
        for (std::size_t q = 0; q < n; ++q) {
            if (rng.bernoulli(0.6)) {
                continue;
            }
            p.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(1, 3)));
        }
        op.add_term(rng.uniform_real(-1.5, 1.5), p);
    }

    const StabilizerExpectationEngine grouped(op, EvalStrategy::PerTerm);
    const StabilizerExpectationEngine auto_engine(op);
    EXPECT_GT(grouped.num_groups(), 1u);
    EXPECT_LT(grouped.num_groups(), grouped.num_terms());

    for (int trial = 0; trial < 10; ++trial) {
        SymplecticTableau tableau(n);
        Circuit circuit(n);
        for (int g = 0; g < 40; ++g) {
            const auto q = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
            switch (rng.uniform_int(0, 3)) {
              case 0: circuit.h(q); break;
              case 1: circuit.s(q); break;
              case 2: circuit.x(q); break;
              default: circuit.cx(q, (q + 1) % n); break;
            }
        }
        replay_circuit(tableau, circuit);
        const double via_rows = reference::reference_expectation(tableau, op);
        EXPECT_EQ(grouped.expectation(tableau), via_rows);
        EXPECT_EQ(auto_engine.expectation(tableau), via_rows);
    }
}

TEST(PauliSum, HermitianChopRejectsComplex)
{
    PauliSum sum(1);
    sum.add_term(std::complex<double>{0.0, 1.0},
                 PauliString::from_label("X"));
    EXPECT_THROW(sum.chop_to_hermitian(), std::invalid_argument);
}

} // namespace
} // namespace cafqa
