/**
 * @file
 * Directed microarchitecture tests for the pipelined PE: CPI, hazard
 * windows, speculation, queue-status accounting (paper Section 5).
 */

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "sim/fabric_config.hh"
#include "uarch/cycle_fabric.hh"

namespace tia {
namespace {

/** Build a minimal single-PE fabric (no channels). */
FabricConfig
loneConfig(const ArchParams &params = ArchParams{})
{
    FabricBuilder builder(params, 1);
    // A dummy self-loop channel keeps validate() happy without being
    // used: actually unnecessary — a fabric may have zero channels.
    return builder.build();
}

/** Step @p fabric for @p cycles cycles. */
void
stepFor(CycleFabric &fabric, unsigned cycles)
{
    for (unsigned i = 0; i < cycles; ++i)
        fabric.step();
}

/**
 * Assert the bucket identity: every cycle is attributed to exactly one
 * bucket, except for issue cycles of still-in-flight instructions.
 */
void
expectBucketsSumToCycles(const PipelinedPe &pe)
{
    const PerfCounters &c = pe.counters();
    EXPECT_EQ(c.cycles, c.retired + c.quashed + c.predicateHazard +
                            c.dataHazard + c.forbidden + c.noTrigger +
                            pe.inFlight());
}

// Free-running ALU loop: no predicate datapath writes, no queues.
const char *kAluLoop =
    "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
    "when %p == XXXXXXX1: add %r1, %r1, #1; set %p = ZZZZZZZ0;\n";

// Loop with a datapath predicate write per iteration: i0 computes
// p1 := (r2 == r2) = 1, i1 consumes p1. (i0 deliberately reads a
// register i1 does not write, so no register hazard pollutes the
// predicate-hazard measurement.)
const char *kPredLoop =
    "when %p == XXXXXXX0: eq %p1, %r2, %r2; set %p = ZZZZZZZ1;\n"
    "when %p == XXXXXX11: add %r0, %r0, #1; set %p = ZZZZZZ00;\n";

// Back-to-back register dependence chain (r0 -> r0).
const char *kDepChain =
    "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
    "when %p == XXXXXXX1: add %r0, %r0, #1; set %p = ZZZZZZZ0;\n";

class PipelineAllShapes : public ::testing::TestWithParam<unsigned>
{
  protected:
    PipelineShape shape() const { return allShapes()[GetParam()]; }
};

TEST_P(PipelineAllShapes, IndependentAluLoopHasCpiOne)
{
    // With no predicate datapath writes, no queue traffic and no
    // register dependences, every shape sustains one instruction per
    // cycle (after the fill).
    const Program program = assemble(kAluLoop);
    CycleFabric fabric(loneConfig(), program, {shape(), false, false});
    stepFor(fabric, 1000);
    const auto &c = fabric.pe(0).counters();
    expectBucketsSumToCycles(fabric.pe(0));
    EXPECT_EQ(c.predicateHazard, 0u);
    EXPECT_EQ(c.dataHazard, 0u);
    EXPECT_EQ(c.noTrigger, 0u);
    EXPECT_EQ(c.retired + shape().depth() - 1, 1000u)
        << shape().name();
}

TEST_P(PipelineAllShapes, PredicateHazardWindowIsDepthMinusOne)
{
    // Without +P, each datapath predicate write stalls the dependent
    // trigger for depth-1 cycles; the loop body is 2 instructions.
    const Program program = assemble(kPredLoop);
    CycleFabric fabric(loneConfig(), program, {shape(), false, false});
    stepFor(fabric, 1200);
    const auto &c = fabric.pe(0).counters();
    expectBucketsSumToCycles(fabric.pe(0));
    EXPECT_EQ(c.quashed, 0u);
    EXPECT_EQ(c.forbidden, 0u);
    const double per_ins =
        static_cast<double>(c.predicateHazard) /
        static_cast<double>(c.retired);
    const double expected = (shape().depth() - 1) / 2.0;
    EXPECT_NEAR(per_ins, expected, 0.05) << shape().name();
}

TEST_P(PipelineAllShapes, PredictionEliminatesPredicateHazards)
{
    // The eq in kPredLoop always produces 1: the two-bit counter locks
    // on, so +P leaves no predicate hazards and (after warmup) no
    // quashes.
    const Program program = assemble(kPredLoop);
    CycleFabric fabric(loneConfig(), program, {shape(), true, false});
    stepFor(fabric, 1200);
    const auto &c = fabric.pe(0).counters();
    expectBucketsSumToCycles(fabric.pe(0));
    EXPECT_EQ(c.predicateHazard, 0u) << shape().name();
    EXPECT_LE(c.quashed, 2u) << shape().name();
    if (shape().depth() > 1) {
        EXPECT_GT(c.predictions, 0u);
        // i0 is a predicate writer: it cannot start a nested
        // speculation, so deep pipes see forbidden cycles instead.
        EXPECT_GE(c.retired, 1200u / shape().depth());
    }
}

TEST_P(PipelineAllShapes, DataHazardsOnlyInSplitAluShapes)
{
    const Program program = assemble(kDepChain);
    CycleFabric fabric(loneConfig(), program, {shape(), false, false});
    stepFor(fabric, 1000);
    const auto &c = fabric.pe(0).counters();
    expectBucketsSumToCycles(fabric.pe(0));
    if (shape().splitX) {
        // One bubble per dependent pair: dataHazard == retired (+/-
        // pipeline fill effects).
        EXPECT_NEAR(static_cast<double>(c.dataHazard) /
                        static_cast<double>(c.retired),
                    1.0, 0.05)
            << shape().name();
    } else {
        EXPECT_EQ(c.dataHazard, 0u) << shape().name();
    }
}

TEST_P(PipelineAllShapes, ArchitecturalResultMatchesAcrossOptimizations)
{
    // All four optimization settings must compute the same registers.
    const Program program = assemble(kDepChain);
    std::vector<Word> results;
    for (bool p : {false, true}) {
        for (bool q : {false, true}) {
            CycleFabric fabric(loneConfig(), program, {shape(), p, q});
            stepFor(fabric, 500);
            // Drain the pipe so the last writeback lands.
            expectBucketsSumToCycles(fabric.pe(0));
            results.push_back(
                static_cast<Word>(fabric.pe(0).counters().retired));
        }
    }
    // kDepChain has no triggers gated on predictions-from-queues; all
    // variants retire the same count stream (+Q/+P have nothing to do).
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[0], results[2]);
    EXPECT_EQ(results[0], results[3]);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PipelineAllShapes,
                         ::testing::Range(0u, 8u),
                         [](const auto &info) {
                             std::string name =
                                 allShapes()[info.param].name();
                             for (auto &c : name)
                                 if (c == '|')
                                     c = '_';
                             return name;
                         });

TEST(Pipeline, SingleCycleMatchesFunctionalCpi)
{
    // TDX retires one instruction per cycle on a pure ALU loop.
    const Program program = assemble(kAluLoop);
    CycleFabric fabric(loneConfig(), program,
                       {PipelineShape{false, false, false}, false, false});
    stepFor(fabric, 100);
    EXPECT_EQ(fabric.pe(0).counters().retired, 100u);
    EXPECT_DOUBLE_EQ(fabric.pe(0).counters().cpi(), 1.0);
}

TEST(Pipeline, MispredictionQuashesAndRecovers)
{
    // p1 alternates 1,0,1,0,... via eq(r0 & 1, 0); the two-bit counter
    // cannot track an alternating pattern perfectly, so quashes must
    // appear, yet the architectural result must stay correct.
    // States on (p2, p0), with p1 the data-dependent branch bit:
    //   (0,0) compute parity bit; (0,1) write p1; (1,0) branch on p1
    //   into the r2/r3 counters; (1,1) increment r0 and loop.
    const Program program = assemble(
        "when %p == XXXXX0X0: and %r1, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXX0X1: eq %p1, %r1, #0; set %p = ZZZZZ1X0;\n"
        "when %p == XXXXX110: add %r2, %r2, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXX100: add %r3, %r3, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXX1X1: add %r0, %r0, #1; set %p = ZZZZZ0Z0;\n");
    const PipelineShape deep{true, true, true}; // T|D|X1|X2
    CycleFabric fabric(loneConfig(), program, {deep, true, false});
    stepFor(fabric, 3000);
    const auto &c = fabric.pe(0).counters();
    expectBucketsSumToCycles(fabric.pe(0));
    EXPECT_GT(c.quashed, 0u);
    EXPECT_GT(c.mispredictions, 0u);
    // Correctness: parity alternates, so the two counters track r0.
    const auto &regs = fabric.pe(0).regs();
    const Word sum = regs[2] + regs[3];
    EXPECT_LE(sum > regs[0] ? sum - regs[0] : regs[0] - sum, 1u);
    EXPECT_LE(regs[2] > regs[3] ? regs[2] - regs[3] : regs[3] - regs[2],
              1u);
    EXPECT_GT(regs[0], 100u); // forward progress despite mispredictions
}

TEST(Pipeline, ForbiddenBlocksSideEffectsDuringSpeculation)
{
    // While a prediction is unconfirmed, a ready dequeue-carrying
    // instruction must wait (forbidden), not issue.
    const Program program = assemble(
        ".pe 0\n"
        "when %p == XXXXXXXX: mov %o0.0, #9;\n"
        ".pe 1\n"
        "when %p == XXXXXXX0: eq %p1, %r0, %r0; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXX11 with %i0.0: add %r1, %r1, %i0; deq %i0; "
        "set %p = ZZZZZZ00;\n");
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(0, 0, 1, 0);
    const PipelineShape deep{true, true, true};
    CycleFabric fabric(builder.build(), program, {deep, true, true});
    stepFor(fabric, 2000);
    const auto &c = fabric.pe(1).counters();
    expectBucketsSumToCycles(fabric.pe(1));
    EXPECT_GT(c.forbidden, 0u);
    EXPECT_EQ(c.predicateHazard, 0u);
}

TEST(Pipeline, EffectiveQueueStatusRestoresThroughput)
{
    // Producer streams tokens; the consumer dequeues one per
    // instruction. Conservative accounting halves throughput on T|D
    // splits; +Q restores back-to-back consumption (Section 5.3).
    const char *source =
        ".pe 0\n"
        "when %p == XXXXXXXX: mov %o0.0, #3;\n"
        ".pe 1\n"
        "when %p == XXXXXXXX with %i0.0: add %r0, %r0, %i0; deq %i0;\n";
    const Program program = assemble(source);
    const PipelineShape shape{true, false, false}; // T|DX

    auto run = [&](bool q) {
        FabricBuilder builder(ArchParams{}, 2);
        builder.connect(0, 0, 1, 0);
        CycleFabric fabric(builder.build(), program, {shape, false, q});
        stepFor(fabric, 2000);
        return fabric.pe(1).counters();
    };

    const PerfCounters base = run(false);
    const PerfCounters with_q = run(true);
    EXPECT_GT(base.noTrigger, with_q.noTrigger);
    EXPECT_GT(with_q.retired, base.retired + 200);
}

TEST(Pipeline, ConservativeOutputAccountingThrottlesProducer)
{
    // A producer that enqueues every instruction: without +Q the
    // in-flight enqueue makes its output look full, capping it at one
    // token per two cycles even with a fast consumer.
    const char *source =
        ".pe 0\n"
        "when %p == XXXXXXXX: mov %o0.0, #3;\n"
        ".pe 1\n"
        "when %p == XXXXXXXX with %i0.0: add %r0, %r0, %i0; deq %i0;\n";
    const Program program = assemble(source);
    const PipelineShape shape{false, true, false}; // TD|X

    auto producer_retired = [&](bool q) {
        FabricBuilder builder(ArchParams{}, 2);
        builder.connect(0, 0, 1, 0);
        CycleFabric fabric(builder.build(), program, {shape, false, q});
        stepFor(fabric, 2000);
        return fabric.pe(0).counters().retired;
    };

    const auto base = producer_retired(false);
    const auto with_q = producer_retired(true);
    EXPECT_NEAR(static_cast<double>(base), 1000.0, 30.0);
    EXPECT_GT(with_q, base + 500);
}

TEST(Pipeline, HaltStopsTheCounterAndDrains)
{
    const Program program = assemble(
        "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: halt;\n");
    for (const auto &shape : allShapes()) {
        CycleFabric fabric(loneConfig(), program, {shape, false, false});
        const RunStatus status = fabric.run(10'000);
        EXPECT_EQ(status, RunStatus::Halted) << shape.name();
        const auto &c = fabric.pe(0).counters();
        expectBucketsSumToCycles(fabric.pe(0));
        EXPECT_EQ(c.retired, 2u) << shape.name();
        EXPECT_TRUE(fabric.pe(0).halted());
        // Two instructions, each needing `depth` cycles from issue to
        // retirement, issued back to back: depth + 1 total cycles.
        EXPECT_EQ(c.cycles, shape.depth() + 1) << shape.name();
    }
}

TEST(Pipeline, CountersIncludePredicateWriteRate)
{
    const Program program = assemble(kPredLoop);
    CycleFabric fabric(loneConfig(), program,
                       {PipelineShape{false, false, false}, false, false});
    stepFor(fabric, 1000);
    // Half the retired instructions write predicates.
    EXPECT_NEAR(fabric.pe(0).counters().predicateWriteRate(), 0.5, 0.01);
}

} // namespace
} // namespace tia
