/**
 * @file
 * Failure-injection tests: out-of-bounds accesses, run-status
 * reporting, and misuse of the public API must fail loudly and
 * specifically, never silently.
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "core/encoding.hh"
#include "core/logging.hh"
#include "sim/functional.hh"
#include "uarch/cycle_fabric.hh"
#include "workloads/runner.hh"

namespace tia {
namespace {

FabricConfig
loneConfig()
{
    FabricBuilder builder(ArchParams{}, 1);
    return builder.build();
}

TEST(RuntimeErrors, ScratchpadLoadOutOfBoundsIsFatal)
{
    const Program program = assemble(
        "when %p == XXXXXXX0: lsw %r0, #999999, %r1; "
        "set %p = ZZZZZZZ1;\n");
    FunctionalFabric fabric(loneConfig(), program);
    EXPECT_THROW(fabric.run(10), FatalError);
}

TEST(RuntimeErrors, ScratchpadStoreOutOfBoundsIsFatal)
{
    const Program program = assemble(
        "when %p == XXXXXXX0: ssw #999999, %r1; set %p = ZZZZZZZ1;\n");
    CycleFabric fabric(loneConfig(), program,
                       {PipelineShape{true, false, false}, false, false});
    EXPECT_THROW(fabric.run(10), FatalError);
}

TEST(RuntimeErrors, MemoryAccessOutOfBoundsIsFatal)
{
    const Program program = assemble(
        "when %p == XXXXXXX0: mov %o0.0, #99; set %p = ZZZZZZZ1;\n");
    FabricBuilder builder(ArchParams{}, 1);
    builder.addReadPort(0, 0, 0);
    builder.setMemoryWords(16);
    FunctionalFabric fabric(builder.build(), program);
    EXPECT_THROW(fabric.run(10), FatalError);
}

TEST(RuntimeErrors, ProgramWithMorePesThanFabricIsRejected)
{
    const Program program = assemble(
        ".pe 0\nwhen %p == XXXXXXXX: halt;\n"
        ".pe 1\nwhen %p == XXXXXXXX: halt;\n");
    EXPECT_THROW(FunctionalFabric(loneConfig(), program), FatalError);
    EXPECT_THROW(CycleFabric(loneConfig(), program,
                             {PipelineShape{false, false, false}, false,
                              false}),
                 FatalError);
}

TEST(RuntimeErrors, StepLimitReported)
{
    // A PE that never halts.
    const Program program = assemble(
        "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: add %r0, %r0, #1; set %p = ZZZZZZZ0;\n");
    CycleFabric fabric(loneConfig(), program,
                       {PipelineShape{false, false, false}, false, false});
    EXPECT_EQ(fabric.run(100), RunStatus::StepLimit);
    EXPECT_EQ(fabric.now(), 100u);
}

TEST(RuntimeErrors, QuiescenceDetectedQuickly)
{
    // A PE waiting on a token that never comes goes quiescent well
    // before the cycle budget.
    const Program program = assemble(
        ".pe 0\n"
        "when %p == XXXXXXXX with %i0.0: mov %r0, %i0; deq %i0;\n"
        ".pe 1\n"
        "when %p == XXXXXXX1: mov %o0.0, #1;\n");
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(1, 0, 0, 0);
    CycleFabric fabric(builder.build(), program,
                       {PipelineShape{true, false, false}, true, true});
    EXPECT_EQ(fabric.run(1'000'000, 500), RunStatus::Quiescent);
    EXPECT_LT(fabric.now(), 2'000u);
}

TEST(RuntimeErrors, RunnerSurfacesNonCompletion)
{
    // Sabotage a workload by truncating its program: the runner must
    // report failure rather than validate garbage.
    Workload w = makeGcd(WorkloadSizes::small());
    w.program.pes[0].resize(2); // drop most of the program
    const WorkloadRun run = runFunctional(w, 100'000);
    EXPECT_FALSE(run.ok());
    EXPECT_NE(run.checkError, "");
}

TEST(RuntimeErrors, DecodeStoreRejectsWrongSize)
{
    const ArchParams params;
    EXPECT_THROW(decodeStore(params, MachineCode(7, 0)), FatalError);
}

TEST(RuntimeErrors, ValidateCatchesHandBuiltNonsense)
{
    const ArchParams params;
    Instruction inst;
    inst.trigger.valid = true;
    inst.op = static_cast<Op>(60); // beyond NOps
    EXPECT_THROW(inst.validate(params), FatalError);

    Instruction conflicting;
    conflicting.trigger.valid = true;
    conflicting.trigger.predOn = 0b1;
    conflicting.trigger.predOff = 0b1; // both set and clear
    conflicting.op = Op::Nop;
    EXPECT_THROW(conflicting.validate(params), FatalError);
}

TEST(RuntimeErrors, PeIndexOutOfRangeThrows)
{
    // Both accessors range-check before touching per-PE sleep state.
    CycleFabric fabric(loneConfig(), Program{},
                       {allShapes()[0], false, false, false});
    EXPECT_THROW(fabric.pe(40), std::out_of_range);
    const CycleFabric &view = fabric;
    EXPECT_THROW(view.pe(40), std::out_of_range);
    EXPECT_THROW(fabric.pe(1), std::out_of_range);
    EXPECT_NO_THROW(view.pe(0));
}

TEST(RuntimeErrors, ChannelIndexOutOfRangeThrows)
{
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(0, 0, 1, 0);
    const CycleFabric fabric(builder.build(), Program{},
                             {allShapes()[0], false, false, false});
    ASSERT_EQ(fabric.numChannels(), 1u);
    EXPECT_NO_THROW(fabric.channel(0));
    EXPECT_THROW(fabric.channel(1), std::out_of_range);
    EXPECT_THROW(fabric.channel(40), std::out_of_range);
}

} // namespace
} // namespace tia
