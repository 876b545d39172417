/**
 * @file
 * Tests for ArchParams and the derived Table 2 field widths.
 */

#include <gtest/gtest.h>

#include "core/logging.hh"
#include "core/params.hh"

namespace tia {
namespace {

TEST(Params, DefaultsMatchTable1)
{
    ArchParams p;
    EXPECT_EQ(p.numRegs, 8u);
    EXPECT_EQ(p.numInputQueues, 4u);
    EXPECT_EQ(p.numOutputQueues, 4u);
    EXPECT_EQ(p.maxCheck, 2u);
    EXPECT_EQ(p.maxDeq, 2u);
    EXPECT_EQ(p.numPreds, 8u);
    EXPECT_EQ(p.wordWidth, 32u);
    EXPECT_EQ(p.tagWidth, 2u);
    EXPECT_EQ(p.numInstructions, 16u);
    EXPECT_EQ(p.numOps, 42u);
    EXPECT_EQ(p.numSrcs, 2u);
    EXPECT_EQ(p.numDsts, 1u);
    EXPECT_NO_THROW(p.validate());
}

TEST(Params, FieldWidthsMatchTable2)
{
    const FieldWidths w = fieldWidths(ArchParams{});
    EXPECT_EQ(w.val, 1u);
    EXPECT_EQ(w.predMask, 16u);
    EXPECT_EQ(w.queueIndices, 6u);
    EXPECT_EQ(w.notTags, 2u);
    EXPECT_EQ(w.tagVals, 4u);
    EXPECT_EQ(w.op, 6u);
    EXPECT_EQ(w.srcTypes, 4u);
    EXPECT_EQ(w.srcIds, 6u);
    EXPECT_EQ(w.dstTypes, 2u);
    EXPECT_EQ(w.dstIds, 3u);
    EXPECT_EQ(w.outTag, 2u);
    EXPECT_EQ(w.iQueueDeq, 6u);
    EXPECT_EQ(w.predUpdate, 16u);
    EXPECT_EQ(w.imm, 32u);
}

TEST(Params, TotalEncodedWidthIs106BitsPaddedTo128)
{
    // Section 2.3: "we have padded each 106-bit instruction to a round
    // 128 bits".
    const FieldWidths w = fieldWidths(ArchParams{});
    EXPECT_EQ(w.total(), 106u);
    EXPECT_EQ(w.padded(), 128u);
}

TEST(Params, Clog2)
{
    EXPECT_EQ(clog2(0), 0u);
    EXPECT_EQ(clog2(1), 0u);
    EXPECT_EQ(clog2(2), 1u);
    EXPECT_EQ(clog2(3), 2u);
    EXPECT_EQ(clog2(4), 2u);
    EXPECT_EQ(clog2(5), 3u);
    EXPECT_EQ(clog2(8), 3u);
    EXPECT_EQ(clog2(9), 4u);
    EXPECT_EQ(clog2(42), 6u);
}

TEST(Params, ParseRoundTrip)
{
    ArchParams p;
    p.numRegs = 16;
    p.tagWidth = 3;
    p.queueCapacity = 8;
    const ArchParams parsed = parseParams(p.toString());
    EXPECT_EQ(parsed, p);
}

TEST(Params, ParseAcceptsCommentsAndBlanks)
{
    const ArchParams parsed = parseParams(
        "# a comment\n"
        "\n"
        "NRegs: 4   # trailing comment\n"
        "NIns: 8\n");
    EXPECT_EQ(parsed.numRegs, 4u);
    EXPECT_EQ(parsed.numInstructions, 8u);
    EXPECT_EQ(parsed.numPreds, 8u); // default retained
}

TEST(Params, ParseRejectsUnknownKey)
{
    EXPECT_THROW(parseParams("Bogus: 3\n"), FatalError);
}

TEST(Params, ParseRejectsMalformedValue)
{
    EXPECT_THROW(parseParams("NRegs: eight\n"), FatalError);
    EXPECT_THROW(parseParams("NRegs\n"), FatalError);
    EXPECT_THROW(parseParams("NRegs: -2\n"), FatalError);
}

TEST(Params, ValidateRejectsBadCombinations)
{
    ArchParams p;
    p.maxCheck = 5; // exceeds NIQueues
    EXPECT_THROW(p.validate(), FatalError);

    p = ArchParams{};
    p.wordWidth = 0;
    EXPECT_THROW(p.validate(), FatalError);

    p = ArchParams{};
    p.queueCapacity = 0;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Params, InstructionStoreCappedAt64)
{
    // The cycle-accurate scheduler keeps one candidate bit per
    // instruction in a 64-bit mask.
    EXPECT_EQ(parseParams("NIns: 64\n").numInstructions, 64u);
    EXPECT_THROW(parseParams("NIns: 65\n"), FatalError);
    ArchParams p;
    p.numInstructions = 65;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Params, WidthsScaleWithParameters)
{
    // Doubling predicate count grows PredMask and PredUpdate by
    // 2 x NPreds each.
    ArchParams p;
    const unsigned base = fieldWidths(p).total();
    p.numPreds = 16;
    EXPECT_EQ(fieldWidths(p).total(), base + 2 * 8 + 2 * 8 + 1);
    // +1: DstIDs grows from 3 to 4 bits (max(8,4,16) = 16).
}

} // namespace
} // namespace tia
