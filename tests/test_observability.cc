/**
 * @file
 * Observability layer tests: trace-derived counter reconstruction must
 * be bit-identical to the live PerfCounters under both scheduler paths
 * and under fault injection; the exporters must produce well-formed
 * documents; the metrics schema checker must accept what the tools
 * emit and reject corrupted documents.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/chrome_trace.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/reconstruct.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"
#include "uarch/cycle_fabric.hh"
#include "uarch/fabric_metrics.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace tia {
namespace {

/** Buffers every event for direct inspection. */
struct VectorSink : TraceSink
{
    std::vector<TraceEvent> events;

    void record(const TraceEvent &event) override
    {
        events.push_back(event);
    }
};

std::vector<PeConfig>
crossCheckUarchs()
{
    const char *names[] = {
        "TDX",               // single cycle, no speculation
        "T|DX +P+Q",         // split trigger, prediction + eff. status
        "TD|X1|X2 +P",       // split execute, prediction only
        "T|D|X1|X2 +P+N+Q",  // deepest pipe, nested speculation
    };
    std::vector<PeConfig> configs;
    for (const char *name : names) {
        const auto config = parseConfigName(name);
        EXPECT_TRUE(config.has_value()) << name;
        configs.push_back(*config);
    }
    return configs;
}

/**
 * Run @p workload under @p uarch with a CpiReconstructor attached and
 * assert every PE's trace-derived counters match the live ones bit
 * for bit.
 */
void
expectTraceMatchesCounters(const Workload &workload, const PeConfig &uarch,
                           bool referenceScheduler)
{
    const std::string where = workload.name + " / " + uarch.name() +
                              (referenceScheduler ? " (reference)"
                                                  : " (fast path)");
    CpiReconstructor recon;
    CycleFabric fabric(workload.config, workload.program, uarch);
    workload.preload(fabric.memory());
    fabric.setTraceSink(&recon, TraceLevel::Events);
    fabric.setUseReferenceScheduler(referenceScheduler);
    const RunStatus status = fabric.run();
    EXPECT_EQ(status, RunStatus::Halted) << where;

    ASSERT_EQ(recon.numPes(), fabric.numPes()) << where;
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        const PerfCounters &live = fabric.pe(pe).counters();
        const PerfCounters rebuilt = recon.counters(pe);
        const std::string at = where + " PE " + std::to_string(pe);
        EXPECT_EQ(rebuilt.cycles, live.cycles) << at;
        EXPECT_EQ(rebuilt.retired, live.retired) << at;
        EXPECT_EQ(rebuilt.quashed, live.quashed) << at;
        EXPECT_EQ(rebuilt.predicateHazard, live.predicateHazard) << at;
        EXPECT_EQ(rebuilt.dataHazard, live.dataHazard) << at;
        EXPECT_EQ(rebuilt.forbidden, live.forbidden) << at;
        EXPECT_EQ(rebuilt.noTrigger, live.noTrigger) << at;
        EXPECT_EQ(rebuilt.predicateWrites, live.predicateWrites) << at;
        EXPECT_EQ(rebuilt.predictions, live.predictions) << at;
        EXPECT_EQ(rebuilt.mispredictions, live.mispredictions) << at;
        EXPECT_EQ(rebuilt.faultsInjected, live.faultsInjected) << at;
        EXPECT_EQ(rebuilt.faultRecoveries, live.faultRecoveries) << at;
        EXPECT_EQ(recon.inFlight(pe), fabric.pe(pe).inFlight()) << at;
        EXPECT_EQ(recon.halted(pe), fabric.pe(pe).halted()) << at;

        // The CPI stacks derived from the two counter sets are the
        // same arithmetic on the same integers — bit-identical.
        const CpiStack liveStack = cpiStack(live);
        const CpiStack traceStack = cpiStack(rebuilt);
        EXPECT_EQ(liveStack.retired, traceStack.retired) << at;
        EXPECT_EQ(liveStack.quashed, traceStack.quashed) << at;
        EXPECT_EQ(liveStack.predicateHazard, traceStack.predicateHazard)
            << at;
        EXPECT_EQ(liveStack.dataHazard, traceStack.dataHazard) << at;
        EXPECT_EQ(liveStack.forbidden, traceStack.forbidden) << at;
        EXPECT_EQ(liveStack.noTrigger, traceStack.noTrigger) << at;
    }
}

TEST(Observability, TraceCpiBitIdenticalOnTable3Suite)
{
    const auto suite = allWorkloads(WorkloadSizes::small());
    for (const PeConfig &uarch : crossCheckUarchs()) {
        for (const Workload &workload : suite) {
            expectTraceMatchesCounters(workload, uarch, false);
            expectTraceMatchesCounters(workload, uarch, true);
        }
    }
}

TEST(Observability, ReferenceSchedulerBitIdenticalToFastPath)
{
    const auto suite = allWorkloads(WorkloadSizes::small());
    for (const PeConfig &uarch : crossCheckUarchs()) {
        for (const Workload &workload : suite) {
            CycleRunOptions fast;
            CycleRunOptions reference;
            reference.referenceScheduler = true;
            const WorkloadRun a = runCycle(workload, uarch, fast);
            const WorkloadRun b = runCycle(workload, uarch, reference);
            const std::string at = workload.name + " / " + uarch.name();
            EXPECT_TRUE(a.ok()) << at << ": " << a.checkError;
            EXPECT_TRUE(b.ok()) << at << ": " << b.checkError;
            EXPECT_EQ(a.totalCycles, b.totalCycles) << at;
            EXPECT_EQ(a.worker, b.worker) << at;
        }
    }
}

TEST(Observability, FaultInjectionEventsMatchCounters)
{
    const Workload workload = makeGcd(WorkloadSizes::small());
    const auto uarch = parseConfigName("T|D|X1|X2 +P+Q");
    ASSERT_TRUE(uarch.has_value());
    const FaultPlan plan =
        FaultPlan::parse("seed=9;mispredict:pe0@p0.2");

    VectorSink events;
    CpiReconstructor recon;
    TeeSink tee;
    tee.add(&events);
    tee.add(&recon);

    CycleRunOptions options;
    options.faults = &plan;
    options.goldenCrossCheck = true;
    options.trace = &tee;
    const WorkloadRun run = runCycle(workload, *uarch, options);
    EXPECT_EQ(run.status, RunStatus::Halted);
    ASSERT_GT(run.worker.faultsInjected, 0u)
        << "plan fired nothing; the test needs a hotter fault plan";

    // Every injected flip surfaces as a Predict event with the fault
    // bit, every rollback repair as a Resolve event with the recovery
    // bit — and the totals agree with the live counters.
    std::uint64_t flipped = 0, recovered = 0, mispredicts = 0;
    for (const TraceEvent &event : events.events) {
        if (event.kind == TraceEventKind::Predict && (event.value & 2))
            ++flipped;
        if (event.kind == TraceEventKind::Resolve) {
            if (event.value & 2)
                ++mispredicts;
            if (event.value & 4)
                ++recovered;
        }
    }
    EXPECT_EQ(flipped, run.worker.faultsInjected);
    EXPECT_EQ(recovered, run.worker.faultRecoveries);
    EXPECT_EQ(mispredicts, run.worker.mispredictions);

    // And the full reconstruction still matches bit for bit.
    const PerfCounters rebuilt = recon.counters(workload.workerPe);
    EXPECT_EQ(rebuilt.cycles, run.worker.cycles);
    EXPECT_EQ(rebuilt.retired, run.worker.retired);
    EXPECT_EQ(rebuilt.quashed, run.worker.quashed);
    EXPECT_EQ(rebuilt.faultsInjected, run.worker.faultsInjected);
    EXPECT_EQ(rebuilt.faultRecoveries, run.worker.faultRecoveries);
}

TEST(Observability, ChromeTraceIsWellFormedJson)
{
    const Workload workload = makeGcd(WorkloadSizes::small());
    const auto uarch = parseConfigName("T|DX +P+Q");
    ASSERT_TRUE(uarch.has_value());

    ChromeTraceSink chrome;
    chrome.setPeMetadata(0, "PE 0", uarch->shape.segmentNames());
    CycleFabric fabric(workload.config, workload.program, *uarch);
    workload.preload(fabric.memory());
    fabric.setTraceSink(&chrome, TraceLevel::Cycles);
    EXPECT_EQ(fabric.run(), RunStatus::Halted);
    EXPECT_GT(chrome.recorded(), 0u);

    std::string error;
    const auto doc = JsonValue::parse(chrome.finish(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_TRUE(doc->isArray());
    EXPECT_GT(doc->items().size(), 2u);
    for (const JsonValue &event : doc->items()) {
        ASSERT_TRUE(event.isObject());
        EXPECT_NE(event.find("ph"), nullptr);
        EXPECT_NE(event.find("pid"), nullptr);
    }
}

TEST(Observability, PipelineSegmentNames)
{
    const auto deep = parseConfigName("T|D|X1|X2 +P+N+Q");
    ASSERT_TRUE(deep.has_value());
    EXPECT_EQ(deep->shape.segmentNames(),
              (std::vector<std::string>{"T", "D", "X1", "X2"}));
    const auto shallow = parseConfigName("TDX");
    ASSERT_TRUE(shallow.has_value());
    EXPECT_EQ(shallow->shape.segmentNames(),
              (std::vector<std::string>{"TDX"}));
    const auto mixed = parseConfigName("T|DX1|X2");
    ASSERT_TRUE(mixed.has_value());
    EXPECT_EQ(mixed->shape.segmentNames(),
              (std::vector<std::string>{"T", "DX1", "X2"}));
}

TEST(Observability, JsonFlatRecordsInArraysPrintInline)
{
    JsonValue record = JsonValue::object();
    record["name"] = "a";
    record["n"] = 1;
    record["x"] = 0.5;

    // Flat objects in an array print one per line; {} stays {}.
    JsonValue rows = JsonValue::array();
    rows.push(record);
    rows.push(JsonValue::object());
    EXPECT_EQ(rows.dump(),
              "[\n  {\"name\": \"a\", \"n\": 1, \"x\": 0.5},\n  {}\n]\n");

    // The same object as an object member stays multi-line.
    JsonValue member = JsonValue::object();
    member["record"] = record;
    EXPECT_EQ(member.dump(), "{\n"
                             "  \"record\": {\n"
                             "    \"name\": \"a\",\n"
                             "    \"n\": 1,\n"
                             "    \"x\": 0.5\n"
                             "  }\n"
                             "}\n");

    // An array element holding a nested container stays multi-line.
    JsonValue nested = record;
    nested["tags"] = JsonValue::array();
    nested["tags"].push("t");
    JsonValue list = JsonValue::array();
    list.push(nested);
    EXPECT_EQ(list.dump(), "[\n"
                           "  {\n"
                           "    \"name\": \"a\",\n"
                           "    \"n\": 1,\n"
                           "    \"x\": 0.5,\n"
                           "    \"tags\": [\"t\"]\n"
                           "  }\n"
                           "]\n");

    // The inline layout is still JSON.
    const auto parsed = JsonValue::parse(rows.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->dump(), rows.dump());
}

TEST(Observability, MetricsDocumentsValidate)
{
    const Workload workload = makeMean(WorkloadSizes::small());
    const auto uarch = parseConfigName("TD|X +Q");
    ASSERT_TRUE(uarch.has_value());

    // The runner-level entry (what tia-sweep emits per cell).
    const WorkloadRun run = runCycle(workload, *uarch);
    ASSERT_TRUE(run.ok()) << run.checkError;
    MetricsRegistry registry("test");
    registry.addRun(workloadRunMetrics(run, *uarch, workload.name));

    // The fabric-level entry (what tia-sim emits per uarch).
    CycleFabric fabric(workload.config, workload.program, *uarch);
    workload.preload(fabric.memory());
    const RunStatus status = fabric.run();
    registry.addRun(fabricRunMetrics(fabric, *uarch, status));

    std::string error;
    const auto doc = JsonValue::parse(registry.dump(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const auto problems = validateMetricsDocument(*doc);
    EXPECT_TRUE(problems.empty())
        << "first problem: " << problems.front();
}

TEST(Observability, ValidatorRejectsBrokenCounters)
{
    // A PE entry whose buckets cannot account for its cycles.
    PerfCounters broken;
    broken.cycles = 10;
    broken.retired = 1;
    MetricsRegistry registry("test");
    JsonValue run = JsonValue::object();
    run["uarch"] = "TDX";
    run["status"] = "halted";
    run["cycles"] = 10;
    JsonValue pes = JsonValue::array();
    pes.push(peMetricsJson(0, broken, 0));
    run["pes"] = std::move(pes);
    registry.addRun(std::move(run));

    const auto doc = JsonValue::parse(registry.dump());
    ASSERT_TRUE(doc.has_value());
    const auto problems = validateMetricsDocument(*doc);
    ASSERT_FALSE(problems.empty());
    bool integrity = false;
    for (const std::string &problem : problems)
        integrity |= problem.find("attribution buckets") !=
                     std::string::npos;
    EXPECT_TRUE(integrity) << problems.front();
}

TEST(Observability, ValidatorRejectsWrongSchema)
{
    const auto doc = JsonValue::parse(
        R"({"schema": "bogus/v0", "runs": [{"uarch": "TDX",
            "status": "halted", "cycles": 0, "pes": []}]})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(validateMetricsDocument(*doc).empty());
}

} // namespace
} // namespace tia
