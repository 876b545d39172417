/**
 * @file
 * Hang-diagnosis tests: the wait-for graph classifier must tell a
 * finished fabric from a deadlocked or livelocked one, and the
 * cycle-accurate fabric must render a deadlock as a wait chain naming
 * the blocked PEs and the queues they wait on.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/assembler.hh"
#include "sim/hang_diagnosis.hh"
#include "uarch/cycle_fabric.hh"

namespace tia {
namespace {

bool
anyLineContains(const std::vector<std::string> &lines,
                const std::string &needle)
{
    for (const auto &line : lines) {
        if (line.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

TEST(WaitForGraph, FindsCycleThroughBlockedAgent)
{
    WaitForGraph graph;
    const auto pe0 = graph.addNode(AgentKind::Pe, 0, "PE 0", true);
    const auto ch0 = graph.addNode(AgentKind::Channel, 0, "channel 0");
    const auto pe1 = graph.addNode(AgentKind::Pe, 1, "PE 1", true);
    const auto ch1 = graph.addNode(AgentKind::Channel, 1, "channel 1");
    graph.addEdge(pe0, ch0, "input %i0 empty");
    graph.addEdge(ch0, pe1, "fed by");
    graph.addEdge(pe1, ch1, "input %i0 empty");
    graph.addEdge(ch1, pe0, "fed by");

    const auto cycle = graph.findCycle();
    ASSERT_EQ(cycle.size(), 4u);

    const auto chain = graph.renderChain(cycle);
    EXPECT_TRUE(anyLineContains(chain, "PE 0"));
    EXPECT_TRUE(anyLineContains(chain, "PE 1"));
    EXPECT_TRUE(anyLineContains(chain, "channel"));
    EXPECT_TRUE(anyLineContains(chain, "input %i0 empty"));
}

TEST(WaitForGraph, IgnoresCycleWithoutBlockedAgents)
{
    // A ring of idle agents is wiring, not a deadlock.
    WaitForGraph graph;
    const auto a = graph.addNode(AgentKind::Pe, 0, "PE 0");
    const auto b = graph.addNode(AgentKind::Channel, 0, "channel 0");
    graph.addEdge(a, b, "x");
    graph.addEdge(b, a, "y");
    EXPECT_TRUE(graph.findCycle().empty());
}

TEST(WaitForGraph, AcyclicGraphHasNoCycle)
{
    WaitForGraph graph;
    const auto a = graph.addNode(AgentKind::Pe, 0, "PE 0", true);
    const auto b = graph.addNode(AgentKind::Channel, 0, "channel 0");
    const auto c = graph.addNode(AgentKind::Pe, 1, "PE 1");
    graph.addEdge(a, b, "input %i0 empty");
    graph.addEdge(b, c, "fed by");
    EXPECT_TRUE(graph.findCycle().empty());

    const HangReport report = classifyQuiescence(graph);
    EXPECT_EQ(report.classification, RunStatus::Quiescent);
    EXPECT_TRUE(anyLineContains(report.blockedAgents, "PE 0"));
}

TEST(HangClassifier, StepLimitBecomesLivelockPastTheWindow)
{
    EXPECT_EQ(classifyStepLimit(100, 500).classification,
              RunStatus::StepLimit);
    EXPECT_EQ(classifyStepLimit(500, 500).classification,
              RunStatus::Livelock);
    EXPECT_EQ(classifyStepLimit(4000, 500).classification,
              RunStatus::Livelock);
}

/** Two PEs cross-wired: channel 0 is 0 -> 1, channel 1 is 1 -> 0. */
FabricConfig
pingPongConfig()
{
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(0, 0, 1, 0);
    builder.connect(1, 0, 0, 0);
    return builder.build();
}

const PeConfig kUarch{PipelineShape{true, false, false}, true, true};

TEST(HangDiagnosis, PingPongDeadlockIsDiagnosedWithChain)
{
    // Both PEs wait for the other to send first; nobody seeds, so the
    // wait-for graph is PE 0 -> ch 1 -> PE 1 -> ch 0 -> PE 0.
    const Program program = assemble(
        ".pe 0\n"
        "when %p == XXXXXXX0 with %i0.0: add %o0.0, %i0, #1; deq %i0; "
        "set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: halt;\n"
        ".pe 1\n"
        "when %p == XXXXXXX0 with %i0.0: add %o0.0, %i0, #1; deq %i0; "
        "set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: halt;\n");
    CycleFabric fabric(pingPongConfig(), program, kUarch);

    EXPECT_EQ(fabric.run(1'000'000, 500), RunStatus::Deadlock);

    const HangReport &report = fabric.hangReport();
    EXPECT_EQ(report.classification, RunStatus::Deadlock);
    ASSERT_FALSE(report.waitChain.empty());
    // The chain names the blocked PEs and the queues they wait on.
    EXPECT_TRUE(anyLineContains(report.waitChain, "PE 0"));
    EXPECT_TRUE(anyLineContains(report.waitChain, "PE 1"));
    EXPECT_TRUE(anyLineContains(report.waitChain, "channel"));
    EXPECT_TRUE(anyLineContains(report.blockedAgents, "PE 0"));
    EXPECT_TRUE(anyLineContains(report.blockedAgents, "PE 1"));
    EXPECT_NE(report.summary.find("deadlock"), std::string::npos);
}

TEST(HangDiagnosis, SeededPingPongHalts)
{
    // The same exchange minus the bug: PE 0 seeds the first token, so
    // the ring drains and both PEs halt.
    const Program program = assemble(
        ".pe 0\n"
        "when %p == XXXXXX00: mov %o0.0, #1; set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01 with %i0.0: mov %r0, %i0; deq %i0; "
        "set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10: halt;\n"
        ".pe 1\n"
        "when %p == XXXXXXX0 with %i0.0: add %o0.0, %i0, #1; deq %i0; "
        "set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: halt;\n");
    CycleFabric fabric(pingPongConfig(), program, kUarch);

    EXPECT_EQ(fabric.run(1'000'000, 500), RunStatus::Halted);
    EXPECT_EQ(fabric.hangReport().classification, RunStatus::Halted);
    EXPECT_TRUE(fabric.hangReport().waitChain.empty());
    EXPECT_EQ(fabric.pe(0).regs()[0], 2u);
}

TEST(HangDiagnosis, StarvationStaysQuiescent)
{
    // PE 0 waits on a producer that never fires (its trigger predicate
    // is unreachable). The producer is idle, not blocked: no wait
    // cycle, so this is starvation, not deadlock.
    const Program program = assemble(
        ".pe 0\n"
        "when %p == XXXXXXXX with %i0.0: mov %r0, %i0; deq %i0;\n"
        ".pe 1\n"
        "when %p == XXXXXXX1: mov %o0.0, #1;\n");
    FabricBuilder builder(ArchParams{}, 2);
    builder.connect(1, 0, 0, 0);
    CycleFabric fabric(builder.build(), program, kUarch);

    EXPECT_EQ(fabric.run(1'000'000, 500), RunStatus::Quiescent);
    const HangReport &report = fabric.hangReport();
    EXPECT_EQ(report.classification, RunStatus::Quiescent);
    EXPECT_TRUE(report.waitChain.empty());
    EXPECT_TRUE(anyLineContains(report.blockedAgents, "PE 0"));
}

TEST(HangDiagnosis, PollingLoopIsLivelock)
{
    // A PE spinning on its own predicates (a poll/timeout loop that
    // never sees the token it polls for) is active every cycle yet
    // moves no tokens: past the progress window that is a livelock.
    const Program program = assemble(
        "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: add %r0, %r0, #1; set %p = ZZZZZZZ0;\n");
    FabricBuilder builder(ArchParams{}, 1);
    CycleFabric fabric(builder.build(), program, kUarch);

    FabricRunOptions options;
    options.maxCycles = 4000;
    options.quiescenceWindow = 500;
    EXPECT_EQ(fabric.run(options), RunStatus::Livelock);
    const HangReport &report = fabric.hangReport();
    EXPECT_EQ(report.classification, RunStatus::Livelock);
    EXPECT_NE(report.summary.find("livelock"), std::string::npos);
}

TEST(HangDiagnosis, ShortBudgetStaysStepLimit)
{
    // The same spin loop under the default (10k-cycle) window: a
    // 100-cycle budget is far too short to call livelock.
    const Program program = assemble(
        "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: add %r0, %r0, #1; set %p = ZZZZZZZ0;\n");
    FabricBuilder builder(ArchParams{}, 1);
    CycleFabric fabric(builder.build(), program, kUarch);

    EXPECT_EQ(fabric.run(100), RunStatus::StepLimit);
    EXPECT_EQ(fabric.hangReport().classification, RunStatus::StepLimit);
}

} // namespace
} // namespace tia
