/**
 * @file
 * The parallel sweep engine: ThreadPool and the SweepEngine oracle
 * (sweep_oracle.hh), and the headline determinism contract — parallel
 * CPI matrices and parallel DSE enumeration are element-wise identical
 * to their serial counterparts, including under an injected FaultPlan. Also pins the
 * two sweep-correctness fixes: the DSE frequency grid following the
 * sweep's tech model, and the unified default cycle budget.
 */

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include <gtest/gtest.h>

#include "exec/thread_pool.hh"
#include "sweep_oracle.hh"
#include "uarch/cycle_fabric.hh"
#include "vlsi/dse.hh"
#include "workloads/cpi.hh"
#include "workloads/runner.hh"

namespace {

using namespace tia;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 100);

    // The pool is reusable after a wait().
    for (int i = 0; i < 10; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 110);
}

TEST(ThreadPool, DefaultConcurrencyIsPositive)
{
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
}

TEST(SweepEngine, MapPreservesSubmissionOrder)
{
    const SweepEngine parallel(4);
    const auto sweep =
        parallel.map(1000, [](std::size_t i) { return i * i; });
    ASSERT_EQ(sweep.values.size(), 1000u);
    for (std::size_t i = 0; i < sweep.values.size(); ++i)
        EXPECT_EQ(sweep.values[i], i * i);
}

TEST(SweepEngine, SerialAndParallelAgree)
{
    auto fn = [](std::size_t i) { return 3 * i + 7; };
    const auto serial = SweepEngine(1).map(257, fn);
    const auto parallel = SweepEngine(8).map(257, fn);
    EXPECT_EQ(serial.values, parallel.values);
    EXPECT_EQ(serial.jobs, 1u);
    EXPECT_EQ(parallel.jobs, 8u);
}

TEST(SweepEngine, UsesNoMoreJobsThanTasks)
{
    const auto sweep =
        SweepEngine(16).map(3, [](std::size_t i) { return i; });
    EXPECT_EQ(sweep.jobs, 3u);
    EXPECT_EQ(sweep.values, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SweepEngine, RethrowsTheLowestIndexException)
{
    const SweepEngine engine(4);
    try {
        engine.map(100, [](std::size_t i) -> int {
            if (i == 17 || i == 80)
                throw std::runtime_error("task " + std::to_string(i));
            return 0;
        });
        FAIL() << "map() swallowed the task exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "task 17");
    }
}

/** Field-by-field equality of two WorkloadRuns (no operator== on
 *  PerfCounters; spell out every counter the figures consume). */
void
expectRunsEqual(const WorkloadRun &a, const WorkloadRun &b,
                const std::string &what)
{
    EXPECT_EQ(a.status, b.status) << what;
    EXPECT_EQ(a.checkError, b.checkError) << what;
    EXPECT_EQ(a.totalCycles, b.totalCycles) << what;
    EXPECT_EQ(a.dynamicInstructions, b.dynamicInstructions) << what;
    EXPECT_EQ(a.hang, b.hang) << what;
    EXPECT_EQ(a.faultOutcome, b.faultOutcome) << what;
    EXPECT_EQ(a.faultStats, b.faultStats) << what;
    EXPECT_EQ(a.worker.cycles, b.worker.cycles) << what;
    EXPECT_EQ(a.worker.retired, b.worker.retired) << what;
    EXPECT_EQ(a.worker.quashed, b.worker.quashed) << what;
    EXPECT_EQ(a.worker.predicateHazard, b.worker.predicateHazard)
        << what;
    EXPECT_EQ(a.worker.dataHazard, b.worker.dataHazard) << what;
    EXPECT_EQ(a.worker.forbidden, b.worker.forbidden) << what;
    EXPECT_EQ(a.worker.noTrigger, b.worker.noTrigger) << what;
    EXPECT_EQ(a.worker.predicateWrites, b.worker.predicateWrites)
        << what;
    EXPECT_EQ(a.worker.predictions, b.worker.predictions) << what;
    EXPECT_EQ(a.worker.mispredictions, b.worker.mispredictions) << what;
    EXPECT_EQ(a.worker.dequeues, b.worker.dequeues) << what;
    EXPECT_EQ(a.worker.enqueues, b.worker.enqueues) << what;
    EXPECT_EQ(a.worker.faultsInjected, b.worker.faultsInjected) << what;
    EXPECT_EQ(a.worker.faultRecoveries, b.worker.faultRecoveries)
        << what;
}

std::vector<PeConfig>
matrixConfigs()
{
    return {
        PeConfig{PipelineShape{false, false, false}, false, false},
        PeConfig{PipelineShape{true, false, false}, true, true},
        PeConfig{PipelineShape{true, true, true}, true, true},
    };
}

TEST(SweepEngine, ParallelCpiMatrixMatchesSerial)
{
    const auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = matrixConfigs();

    const CycleMatrix serial = runCycleMatrix(suite, configs, {}, 1);
    const CycleMatrix parallel = runCycleMatrix(suite, configs, {}, 4);

    ASSERT_EQ(serial.runs.size(), suite.size() * configs.size());
    ASSERT_EQ(parallel.runs.size(), serial.runs.size());
    EXPECT_EQ(parallel.numConfigs, configs.size());
    EXPECT_EQ(parallel.numWorkloads, suite.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t w = 0; w < suite.size(); ++w) {
            expectRunsEqual(serial.run(c, w), parallel.run(c, w),
                            suite[w].name + " on " + configs[c].name());
            EXPECT_TRUE(serial.run(c, w).ok())
                << serial.run(c, w).checkError;
        }
    }
}

TEST(SweepEngine, ParallelCpiMatrixMatchesSerialUnderInjection)
{
    // Each task owns its FaultInjector RNG, so a seeded plan replays
    // bit-identically regardless of how the matrix is scheduled.
    const FaultPlan plan = FaultPlan::parse(
        "seed=99;drop:ch0@p0.05;corrupt:ch0@p0.02,mask=0x4;"
        "mispredict:pe0@p0.1");
    CycleRunOptions options;
    options.faults = &plan;
    options.goldenCrossCheck = true;

    const auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = matrixConfigs();

    const CycleMatrix serial =
        runCycleMatrix(suite, configs, options, 1);
    const CycleMatrix parallel =
        runCycleMatrix(suite, configs, options, 4);

    ASSERT_EQ(parallel.runs.size(), serial.runs.size());
    bool any_fired = false;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t w = 0; w < suite.size(); ++w) {
            expectRunsEqual(serial.run(c, w), parallel.run(c, w),
                            suite[w].name + " on " + configs[c].name());
            any_fired =
                any_fired || serial.run(c, w).faultStats.totalFired() > 0;
        }
    }
    EXPECT_TRUE(any_fired) << "the plan never fired; the test is vacuous";
}

TEST(SweepEngine, ParallelCpiTablesMatchSerial)
{
    const WorkloadSizes sizes = WorkloadSizes::small();
    const auto configs = matrixConfigs();
    EXPECT_EQ(measureCpiTable(sizes, configs, 1),
              measureCpiTable(sizes, configs, 4));
    EXPECT_EQ(suiteAverageCpiTable(sizes, configs, 1),
              suiteAverageCpiTable(sizes, configs, 4));
}

TEST(SweepEngine, ParallelDseEnumerateMatchesSerial)
{
    CpiTable table;
    for (const PeConfig &config : allConfigs())
        table[config.name()] = 1.5;
    const DesignSpace dse(std::move(table));

    const auto serial = dse.enumerate();
    const auto parallel = dse.enumerateStreamed(4).points;

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const DesignPoint &a = serial[i];
        const DesignPoint &b = parallel[i];
        EXPECT_EQ(a.config, b.config) << i;
        EXPECT_EQ(a.vt, b.vt) << i;
        // Bit-identical, not approximately equal: the parallel sweep
        // runs the same arithmetic on the same shard inputs.
        EXPECT_EQ(a.vdd, b.vdd) << i;
        EXPECT_EQ(a.freqMhz, b.freqMhz) << i;
        EXPECT_EQ(a.maxFreqMhz, b.maxFreqMhz) << i;
        EXPECT_EQ(a.cpi, b.cpi) << i;
        EXPECT_EQ(a.nsPerInstruction, b.nsPerInstruction) << i;
        EXPECT_EQ(a.pjPerInstruction, b.pjPerInstruction) << i;
        EXPECT_EQ(a.areaUm2, b.areaUm2) << i;
        EXPECT_EQ(a.powerMw, b.powerMw) << i;
    }
}

// Regression for the frequency-grid bugfix: the near/sub-threshold
// refinements must follow the sweep's tech model, not a
// default-constructed one.
TEST(SweepEngine, FrequencyGridFollowsTheSweepTechModel)
{
    CpiTable table;
    for (const PeConfig &config : allConfigs())
        table[config.name()] = 1.5;

    // Nominal corner: std-VT threshold 0.33 V, so 0.7 V is outside
    // the near-threshold band (0.33 + 0.35 = 0.68) and gets no 50 MHz
    // refinement.
    const DesignSpace nominal(table);
    const auto base = nominal.frequencyGridMhz(VtClass::Standard, 0.7);
    EXPECT_EQ(base.size(), 15u);

    // A high-threshold skewed corner moves the band up: 0.7 V is now
    // near-threshold and must be refined. Before the fix the grid
    // ignored the instance model and stayed at 15 points.
    const TechModel skewed(0.30, 0.50, 0.65);
    const DesignSpace corner(table, skewed);
    const auto refined = corner.frequencyGridMhz(VtClass::Standard, 0.7);
    EXPECT_EQ(refined.size(), 19u);
    EXPECT_NE(std::find(refined.begin(), refined.end(), 150.0),
              refined.end());

    // The subthreshold high-VT refinement moves with the corner too:
    // 0.6 V is subthreshold for a 0.65 V high-VT device.
    const auto sub = corner.frequencyGridMhz(VtClass::High, 0.6);
    EXPECT_NE(std::find(sub.begin(), sub.end(), 10.0), sub.end());
    const auto nominal_sub =
        nominal.frequencyGridMhz(VtClass::High, 0.6);
    EXPECT_EQ(std::find(nominal_sub.begin(), nominal_sub.end(), 10.0),
              nominal_sub.end());

    // And gridSize follows suit.
    EXPECT_GT(corner.gridSize(), nominal.gridSize());
}

// Regression for the unified cycle-budget defaults: the same workload
// must hang-classify identically from every entry point.
TEST(SweepEngine, DefaultCycleBudgetsAgreeAcrossEntryPoints)
{
    EXPECT_EQ(FabricRunOptions{}.maxCycles, kDefaultMaxCycles);
    EXPECT_EQ(CycleRunOptions{}.maxCycles, kDefaultMaxCycles);
    EXPECT_EQ(FabricRunOptions{}.maxCycles,
              CycleRunOptions{}.maxCycles);
    EXPECT_EQ(FabricRunOptions{}.quiescenceWindow,
              CycleRunOptions{}.quiescenceWindow);
}

} // namespace
