/**
 * @file
 * Tests for the 42-operation integer operation set.
 */

#include <gtest/gtest.h>

#include "core/opcode.hh"
#include "core/params.hh"

namespace tia {
namespace {

TEST(Opcode, CountMatchesTable1)
{
    EXPECT_EQ(kNumOps, 42u);
    EXPECT_EQ(kNumOps, ArchParams{}.numOps);
}

TEST(Opcode, MnemonicRoundTrip)
{
    for (unsigned i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        const auto looked_up = opFromMnemonic(opInfo(op).mnemonic);
        ASSERT_TRUE(looked_up.has_value()) << opInfo(op).mnemonic;
        EXPECT_EQ(*looked_up, op);
    }
    EXPECT_FALSE(opFromMnemonic("div").has_value());
    EXPECT_FALSE(opFromMnemonic("").has_value());
}

TEST(Opcode, Arithmetic)
{
    EXPECT_EQ(evalAlu(Op::Add, 2, 3), 5u);
    EXPECT_EQ(evalAlu(Op::Add, 0xffffffffu, 1), 0u); // wraparound
    EXPECT_EQ(evalAlu(Op::Sub, 3, 5), 0xfffffffeu);
    EXPECT_EQ(evalAlu(Op::Neg, 1, 0), 0xffffffffu);
    EXPECT_EQ(evalAlu(Op::Mov, 42, 99), 42u);
    EXPECT_EQ(evalAlu(Op::Nop, 7, 8), 0u);
}

TEST(Opcode, TwoWordMultiplication)
{
    // Section 2.2: "the lengthiest of these being two-word product
    // integer multiplication".
    EXPECT_EQ(evalAlu(Op::Mul, 0x10000u, 0x10000u), 0u);
    EXPECT_EQ(evalAlu(Op::Mulhu, 0x10000u, 0x10000u), 1u);
    EXPECT_EQ(evalAlu(Op::Mul, 7, 6), 42u);
    // Signed high product: (-1) * (-1) = 1 → high word 0.
    EXPECT_EQ(evalAlu(Op::Mulhs, 0xffffffffu, 0xffffffffu), 0u);
    // Unsigned high product of the same bits is large.
    EXPECT_EQ(evalAlu(Op::Mulhu, 0xffffffffu, 0xffffffffu), 0xfffffffeu);
    // (-2) * 3 = -6 → high word all ones.
    EXPECT_EQ(evalAlu(Op::Mulhs, 0xfffffffeu, 3), 0xffffffffu);
}

TEST(Opcode, Logic)
{
    EXPECT_EQ(evalAlu(Op::And, 0b1100, 0b1010), 0b1000u);
    EXPECT_EQ(evalAlu(Op::Or, 0b1100, 0b1010), 0b1110u);
    EXPECT_EQ(evalAlu(Op::Xor, 0b1100, 0b1010), 0b0110u);
    EXPECT_EQ(evalAlu(Op::Not, 0, 0), 0xffffffffu);
    EXPECT_EQ(evalAlu(Op::Nand, 0b1100, 0b1010), ~0b1000u);
    EXPECT_EQ(evalAlu(Op::Nor, 0b1100, 0b1010), ~0b1110u);
    EXPECT_EQ(evalAlu(Op::Xnor, 0b1100, 0b1010), ~0b0110u);
}

TEST(Opcode, ShiftsAndRotates)
{
    EXPECT_EQ(evalAlu(Op::Sll, 1, 4), 16u);
    EXPECT_EQ(evalAlu(Op::Srl, 0x80000000u, 31), 1u);
    EXPECT_EQ(evalAlu(Op::Sra, 0x80000000u, 31), 0xffffffffu);
    EXPECT_EQ(evalAlu(Op::Rol, 0x80000001u, 1), 3u);
    EXPECT_EQ(evalAlu(Op::Ror, 3, 1), 0x80000001u);
    // Shift amounts are modulo 32.
    EXPECT_EQ(evalAlu(Op::Sll, 1, 33), 2u);
}

TEST(Opcode, ComparisonsAreBoolean)
{
    EXPECT_EQ(evalAlu(Op::Eq, 4, 4), 1u);
    EXPECT_EQ(evalAlu(Op::Eq, 4, 5), 0u);
    EXPECT_EQ(evalAlu(Op::Ne, 4, 5), 1u);
    // Signed vs unsigned disagreement on negative values.
    EXPECT_EQ(evalAlu(Op::Slt, 0xffffffffu, 0), 1u); // -1 < 0 signed
    EXPECT_EQ(evalAlu(Op::Ult, 0xffffffffu, 0), 0u); // huge > 0 unsigned
    EXPECT_EQ(evalAlu(Op::Sle, 5, 5), 1u);
    EXPECT_EQ(evalAlu(Op::Sgt, 6, 5), 1u);
    EXPECT_EQ(evalAlu(Op::Sge, 5, 5), 1u);
    EXPECT_EQ(evalAlu(Op::Ule, 5, 5), 1u);
    EXPECT_EQ(evalAlu(Op::Ugt, 6, 5), 1u);
    EXPECT_EQ(evalAlu(Op::Uge, 5, 6), 0u);
}

TEST(Opcode, BitManipulation)
{
    // Section 2.2 calls out clz and ctz explicitly.
    EXPECT_EQ(evalAlu(Op::Clz, 0, 0), 32u);
    EXPECT_EQ(evalAlu(Op::Clz, 1, 0), 31u);
    EXPECT_EQ(evalAlu(Op::Clz, 0x80000000u, 0), 0u);
    EXPECT_EQ(evalAlu(Op::Ctz, 0, 0), 32u);
    EXPECT_EQ(evalAlu(Op::Ctz, 0x80000000u, 0), 31u);
    EXPECT_EQ(evalAlu(Op::Popc, 0xf0f0f0f0u, 0), 16u);
    EXPECT_EQ(evalAlu(Op::Brev, 0x80000000u, 0), 1u);
    EXPECT_EQ(evalAlu(Op::Brev, 0x00000001u, 0), 0x80000000u);
    EXPECT_EQ(evalAlu(Op::Bswap, 0x12345678u, 0), 0x78563412u);
}

TEST(Opcode, MinMax)
{
    EXPECT_EQ(evalAlu(Op::Min, 0xffffffffu, 1), 0xffffffffu); // -1 < 1
    EXPECT_EQ(evalAlu(Op::Umin, 0xffffffffu, 1), 1u);
    EXPECT_EQ(evalAlu(Op::Max, 0xffffffffu, 1), 1u);
    EXPECT_EQ(evalAlu(Op::Umax, 0xffffffffu, 1), 0xffffffffu);
}

TEST(Opcode, TraitsAreConsistent)
{
    unsigned comparisons = 0;
    for (unsigned i = 0; i < kNumOps; ++i) {
        const OpInfo &info = opInfo(static_cast<Op>(i));
        EXPECT_FALSE(info.mnemonic.empty());
        EXPECT_LE(info.numSrcs, 2u);
        if (info.isComparison) {
            ++comparisons;
            EXPECT_TRUE(info.hasResult);
        }
        if (info.isHalt || info.writesScratchpad) {
            EXPECT_FALSE(info.hasResult && info.isHalt);
        }
    }
    EXPECT_EQ(comparisons, 10u);
}

TEST(Opcode, NonPureOpsPanicInEvalAlu)
{
    EXPECT_ANY_THROW(evalAlu(Op::Lsw, 0, 0));
    EXPECT_ANY_THROW(evalAlu(Op::Ssw, 0, 0));
    EXPECT_ANY_THROW(evalAlu(Op::Halt, 0, 0));
}

} // namespace
} // namespace tia
