/**
 * @file
 * The streaming sweep pipeline (exec/pipeline.hh) and its satellites:
 * in-order sink delivery, no head-of-line throttling, bit-identity of
 * the streamed CPI matrix vs the flat SweepEngine::map barrier oracle
 * (sweep_oracle.hh) across jobs counts (clean and fault-injected),
 * fail-fast cancellation of sibling tasks on the first exception,
 * mid-pipeline StopToken cancellation (every slot Cancelled-or-filled,
 * nothing cached), the incremental Pareto frontier vs the batch
 * algorithm, StopToken::anyOf merging, ThreadPool::parseJobs
 * validation, the SimCache dirty-skip, and the NaN-serializes-as-null
 * pin.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/digest.hh"
#include "cache/simcache.hh"
#include "core/logging.hh"
#include "exec/pipeline.hh"
#include "exec/stop_token.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "sim/fault.hh"
#include "sweep_oracle.hh"
#include "vlsi/dse.hh"
#include "vlsi/pareto.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace {

using namespace tia;

// ---------------------------------------------------------------------
// SweepPipeline mechanics.

TEST(SweepPipeline, SinkSeesEveryResultInIndexOrder)
{
    const SweepPipeline pipeline(4);
    std::size_t expected = 0;
    const PipelineResult result = pipeline.run(
        1000, [](std::size_t i) { return i * i; },
        [&](std::size_t i, std::size_t &&value) {
            EXPECT_EQ(i, expected) << "sink delivered out of order";
            EXPECT_EQ(value, i * i);
            ++expected;
        });
    EXPECT_EQ(expected, 1000u);
    EXPECT_EQ(result.sunk, 1000u);
    EXPECT_EQ(result.jobs, 4u);
}

TEST(SweepPipeline, SerialPathMatchesParallel)
{
    auto fn = [](std::size_t i) { return 3 * i + 7; };
    std::vector<std::size_t> serial, parallel;
    SweepPipeline(1).run(257, fn, [&](std::size_t, std::size_t &&v) {
        serial.push_back(v);
    });
    SweepPipeline(8).run(257, fn, [&](std::size_t, std::size_t &&v) {
        parallel.push_back(v);
    });
    EXPECT_EQ(serial, parallel);
}

TEST(SweepPipeline, UsesNoMoreJobsThanTasks)
{
    const PipelineResult result = SweepPipeline(16).run(
        3, [](std::size_t i) { return i; },
        [](std::size_t, std::size_t &&) {});
    EXPECT_EQ(result.jobs, 3u);
}

TEST(SweepPipeline, RethrowsTaskExceptionAndStopsSinking)
{
    const SweepPipeline pipeline(4);
    std::size_t sunk = 0;
    try {
        pipeline.run(
            100,
            [](std::size_t i) -> int {
                if (i == 17 || i == 80)
                    throw std::runtime_error("task " +
                                             std::to_string(i));
                return 0;
            },
            [&](std::size_t i, int &&) {
                EXPECT_LT(i, 17u)
                    << "sank a result past the first failure";
                ++sunk;
            });
        FAIL() << "run() swallowed the task exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "task 17");
    }
    EXPECT_LE(sunk, 17u);
}

TEST(SweepPipeline, TaskFailureCancelsTokenAwareSiblings)
{
    // Token-aware siblings park on the fail-fast token; if the first
    // exception did not fire it, they would spin out the full 5 s
    // deadline and the test would time out instead of finishing fast.
    const SweepPipeline pipeline(4);
    std::atomic<unsigned> cancelled{0};
    try {
        pipeline.run(
            8,
            [&](std::size_t i, StopToken cancel) -> int {
                if (i == 0)
                    throw std::runtime_error("boom");
                const auto deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::seconds(5);
                while (!cancel.stopRequested()) {
                    if (std::chrono::steady_clock::now() > deadline)
                        return 0; // not cancelled: fail below
                    std::this_thread::yield();
                }
                cancelled.fetch_add(1);
                return 1;
            },
            [](std::size_t, int &&) {});
        FAIL() << "run() swallowed the task exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "boom");
    }
    EXPECT_GT(cancelled.load(), 0u)
        << "no sibling observed the fail-fast token";
}

TEST(SweepPipeline, SinkExceptionFailsTheRunFast)
{
    const SweepPipeline pipeline(4);
    try {
        pipeline.run(
            100, [](std::size_t i) { return i; },
            [](std::size_t i, std::size_t &&) {
                if (i == 3)
                    throw std::runtime_error("sink 3");
            });
        FAIL() << "run() swallowed the sink exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "sink 3");
    }
}

TEST(SweepPipeline, SlowHeadTaskDoesNotThrottleLaterTasks)
{
    // Nothing bounds run-ahead: task 0 blocks until the last task has
    // started, which a small in-flight window would never submit while
    // the sink waits on task 0.
    constexpr std::size_t kTasks = 16;
    std::mutex mutex;
    std::condition_variable lastStarted;
    bool started = false;
    bool released = false;
    std::size_t sunk = 0;
    SweepPipeline(2).run(
        kTasks,
        [&](std::size_t i) {
            std::unique_lock<std::mutex> lock(mutex);
            if (i + 1 == kTasks) {
                started = true;
                lastStarted.notify_all();
            } else if (i == 0) {
                released = lastStarted.wait_for(
                    lock, std::chrono::seconds(10),
                    [&] { return started; });
            }
            return i;
        },
        [&](std::size_t i, std::size_t &&) {
            EXPECT_EQ(i, sunk);
            ++sunk;
        });
    EXPECT_TRUE(released)
        << "task 0 timed out: the head of the sink throttled the pool";
    EXPECT_EQ(sunk, kTasks);
}

// ---------------------------------------------------------------------
// SweepEngine fail-fast (satellite bugfix).

TEST(SweepEngineFailFast, TaskFailureCancelsTokenAwareSiblings)
{
    const SweepEngine engine(4);
    std::atomic<unsigned> cancelled{0};
    try {
        engine.map(8, [&](std::size_t i, StopToken cancel) -> int {
            if (i == 0)
                throw std::runtime_error("boom");
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(5);
            while (!cancel.stopRequested()) {
                if (std::chrono::steady_clock::now() > deadline)
                    return 0;
                std::this_thread::yield();
            }
            cancelled.fetch_add(1);
            return 1;
        });
        FAIL() << "map() swallowed the task exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "boom");
    }
    EXPECT_GT(cancelled.load(), 0u);
}

TEST(SweepEngineFailFast, QueuedTokenlessTasksAreSkipped)
{
    // 2 workers, 64 tasks: task 0 throws immediately, so most of the
    // queued token-less siblings must be skipped, not run.
    const SweepEngine engine(2);
    std::atomic<unsigned> ran{0};
    EXPECT_THROW(engine.map(64,
                            [&](std::size_t i) -> int {
                                if (i == 0)
                                    throw std::runtime_error("boom");
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(1));
                                ran.fetch_add(1);
                                return 0;
                            }),
                 std::runtime_error);
    EXPECT_LT(ran.load(), 63u)
        << "every queued sibling still ran to completion";
}

TEST(SweepEngineFailFast, SerialJobsStillThrowImmediately)
{
    const SweepEngine engine(1);
    unsigned ran = 0;
    EXPECT_THROW(engine.map(10,
                            [&](std::size_t i) -> int {
                                ++ran;
                                if (i == 3)
                                    throw std::runtime_error("boom");
                                return 0;
                            }),
                 std::runtime_error);
    EXPECT_EQ(ran, 4u);
}

// ---------------------------------------------------------------------
// StopToken::anyOf.

TEST(StopTokenAnyOf, FiresWhenEitherInputFires)
{
    StopSource a, b;
    const StopToken merged = StopToken::anyOf(a.token(), b.token());
    EXPECT_TRUE(merged.possible());
    EXPECT_FALSE(merged.stopRequested());
    b.requestStop();
    EXPECT_TRUE(merged.stopRequested());
    EXPECT_STREQ(merged.why(), "stop requested");
}

TEST(StopTokenAnyOf, DetachedInputsCollapse)
{
    StopSource a;
    const StopToken left = StopToken::anyOf(a.token(), StopToken{});
    const StopToken right = StopToken::anyOf(StopToken{}, a.token());
    const StopToken none = StopToken::anyOf(StopToken{}, StopToken{});
    EXPECT_FALSE(none.possible());
    EXPECT_FALSE(left.stopRequested());
    a.requestStop();
    EXPECT_TRUE(left.stopRequested());
    EXPECT_TRUE(right.stopRequested());
}

TEST(StopTokenAnyOf, PropagatesDeadlineWhy)
{
    StopSource deadline;
    deadline.setDeadline(std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1));
    StopSource other;
    const StopToken merged =
        StopToken::anyOf(other.token(), deadline.token());
    EXPECT_TRUE(merged.stopRequested());
    EXPECT_STREQ(merged.why(), "deadline expired");
}

// ---------------------------------------------------------------------
// Streamed CPI matrix vs the flat barrier: bit-identity.

std::vector<PeConfig>
matrixConfigs()
{
    return {
        PeConfig{PipelineShape{false, false, false}, false, false},
        PeConfig{PipelineShape{true, false, false}, true, true},
        PeConfig{PipelineShape{true, true, true}, true, true},
    };
}

/**
 * The flat oracle: every cell on the SweepEngine::map barrier with the
 * same per-cell task as runCycleMatrixStreamed, assembled after the
 * last one finishes.
 */
CycleMatrix
runCycleMatrixFlat(const std::vector<Workload> &workloads,
                   const std::vector<PeConfig> &configs,
                   const CycleRunOptions &options, unsigned jobs)
{
    auto sweep = SweepEngine(jobs).map(
        configs.size() * workloads.size(),
        [&](std::size_t i, const StopToken &cancel) {
            CycleRunOptions task = options;
            task.stop = StopToken::anyOf(options.stop, cancel);
            return runCycle(workloads[i % workloads.size()],
                            configs[i / workloads.size()], task);
        });
    CycleMatrix matrix;
    matrix.runs = std::move(sweep.values);
    matrix.numConfigs = configs.size();
    matrix.numWorkloads = workloads.size();
    matrix.jobs = sweep.jobs;
    matrix.wallMs = sweep.wallMs;
    return matrix;
}

void
expectMatricesIdentical(const CycleMatrix &a, const CycleMatrix &b,
                        const std::string &what)
{
    ASSERT_EQ(a.runs.size(), b.runs.size()) << what;
    EXPECT_EQ(a.numConfigs, b.numConfigs) << what;
    EXPECT_EQ(a.numWorkloads, b.numWorkloads) << what;
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        // WorkloadRun has field-wise operator==; bit-identity of every
        // counter is the determinism contract.
        EXPECT_TRUE(a.runs[i] == b.runs[i]) << what << " cell " << i;
    }
}

TEST(StreamedMatrix, BitIdenticalToFlatAcrossJobsCounts)
{
    const auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = matrixConfigs();

    const CycleMatrix flat = runCycleMatrixFlat(suite, configs, {}, 1);
    for (unsigned jobs : {1u, 2u, 8u}) {
        std::size_t cells = 0;
        std::size_t expect = 0;
        const CycleMatrix streamed = runCycleMatrixStreamed(
            suite, configs, {}, jobs,
            [&](std::size_t c, std::size_t w, const WorkloadRun &run) {
                // Row-major in-order delivery, and the sink sees the
                // same run object the matrix retains.
                EXPECT_EQ(c * suite.size() + w, expect);
                ++expect;
                EXPECT_TRUE(run == flat.run(c, w));
                ++cells;
            });
        expectMatricesIdentical(flat, streamed,
                                "jobs=" + std::to_string(jobs));
        EXPECT_EQ(cells, flat.runs.size());
    }
}

TEST(StreamedMatrix, BitIdenticalToFlatUnderFaultInjection)
{
    const FaultPlan plan = FaultPlan::parse(
        "seed=99;drop:ch0@p0.05;corrupt:ch0@p0.02,mask=0x4;"
        "mispredict:pe0@p0.1");
    CycleRunOptions options;
    options.faults = &plan;
    options.goldenCrossCheck = true;

    const auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = matrixConfigs();

    const CycleMatrix flat =
        runCycleMatrixFlat(suite, configs, options, 4);
    const CycleMatrix streamed = runCycleMatrixStreamed(
        suite, configs, options, 4, CycleMatrixSink{});
    expectMatricesIdentical(flat, streamed, "fault-injected");

    bool any_fired = false;
    for (const WorkloadRun &run : flat.runs)
        any_fired = any_fired || run.faultStats.totalFired() > 0;
    EXPECT_TRUE(any_fired) << "the plan never fired; the test is vacuous";
}

TEST(StreamedMatrix, MidSweepCancellationFillsEverySlotAndCachesNothing)
{
    // jobs = 1 makes the schedule deterministic: the sink fires the
    // caller's stop source after the first cell, so cell 0 completes
    // (and is cached) and every later cell returns Cancelled at its
    // first stop poll — and must never be cached.
    const auto suite = allWorkloads(WorkloadSizes::small());
    const auto configs = matrixConfigs();

    SimCache cache;
    StopSource stop;
    CycleRunOptions options;
    options.cache = &cache;
    options.stop = stop.token();

    const CycleMatrix matrix = runCycleMatrixStreamed(
        suite, configs, options, 1,
        [&](std::size_t c, std::size_t w, const WorkloadRun &) {
            if (c == 0 && w == 0)
                stop.requestStop();
        });

    ASSERT_EQ(matrix.runs.size(), suite.size() * configs.size());
    std::size_t completed = 0;
    for (std::size_t i = 0; i < matrix.runs.size(); ++i) {
        const RunStatus status = matrix.runs[i].status;
        if (i == 0) {
            EXPECT_NE(status, RunStatus::Cancelled);
            ++completed;
        } else {
            EXPECT_EQ(status, RunStatus::Cancelled)
                << "cell " << i << " ran to completion after the stop";
        }
    }
    // Cancelled runs are never cached: only the completed cell is
    // resident.
    EXPECT_EQ(cache.size(), completed);
}

// ---------------------------------------------------------------------
// Incremental Pareto frontier.

void
expectSameFrontier(const std::vector<DesignPoint> &batch,
                   const std::vector<DesignPoint> &incremental,
                   const std::string &what)
{
    ASSERT_EQ(batch.size(), incremental.size()) << what;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch[i].nsPerInstruction,
                  incremental[i].nsPerInstruction)
            << what << " point " << i;
        EXPECT_EQ(batch[i].pjPerInstruction,
                  incremental[i].pjPerInstruction)
            << what << " point " << i;
        EXPECT_EQ(batch[i].config, incremental[i].config)
            << what << " point " << i;
    }
}

TEST(IncrementalPareto, MatchesBatchOnRandomPoints)
{
    std::mt19937 rng(12345);
    std::uniform_real_distribution<double> dist(0.1, 100.0);
    std::vector<DesignPoint> points(2000);
    for (DesignPoint &p : points) {
        p.nsPerInstruction = dist(rng);
        p.pjPerInstruction = dist(rng);
    }

    IncrementalPareto pareto;
    for (const DesignPoint &p : points)
        pareto.add(p);

    const auto batch = DesignSpace::paretoFrontier(points);
    expectSameFrontier(batch, pareto.frontier(), "random");
    EXPECT_EQ(pareto.pointsSeen(), points.size());
    EXPECT_GE(pareto.updates(), pareto.frontier().size());
}

TEST(IncrementalPareto, WeakDominanceRejectsTies)
{
    auto point = [](double ns, double pj) {
        DesignPoint p;
        p.nsPerInstruction = ns;
        p.pjPerInstruction = pj;
        return p;
    };
    IncrementalPareto pareto;
    EXPECT_TRUE(pareto.add(point(2.0, 5.0)));
    EXPECT_FALSE(pareto.add(point(2.0, 5.0))); // exact duplicate
    EXPECT_FALSE(pareto.add(point(3.0, 5.0))); // dominated (equal pj)
    EXPECT_TRUE(pareto.add(point(2.0, 4.0)));  // evicts equal-ns worse
    ASSERT_EQ(pareto.size(), 1u);
    EXPECT_EQ(pareto.frontier()[0].pjPerInstruction, 4.0);
    EXPECT_TRUE(pareto.add(point(1.0, 9.0)));  // faster, pricier
    EXPECT_TRUE(pareto.add(point(0.5, 3.0)));  // dominates everything
    ASSERT_EQ(pareto.size(), 1u);
    EXPECT_EQ(pareto.frontier()[0].nsPerInstruction, 0.5);
    EXPECT_EQ(pareto.evictions(), 3u);
}

TEST(IncrementalPareto, StreamedDseMatchesBatchFrontier)
{
    CpiTable table;
    for (const PeConfig &config : allConfigs())
        table[config.name()] = 1.5;
    const DesignSpace dse(std::move(table));

    const auto points = dse.enumerate();
    const auto batch = DesignSpace::paretoFrontier(points);

    const DseStreamResult stream = dse.enumerateStreamed(4);
    ASSERT_EQ(stream.points.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].nsPerInstruction,
                  stream.points[i].nsPerInstruction)
            << i;
        EXPECT_EQ(points[i].pjPerInstruction,
                  stream.points[i].pjPerInstruction)
            << i;
    }
    expectSameFrontier(batch, stream.frontier, "full DSE");
}

// ---------------------------------------------------------------------
// --jobs parsing and clamping (satellite bugfix).

TEST(ParseJobs, ResolvesAutoAndPlainValues)
{
    EXPECT_EQ(ThreadPool::parseJobs("0"),
              ThreadPool::defaultConcurrency());
    EXPECT_EQ(ThreadPool::parseJobs("1"), 1u);
    EXPECT_EQ(ThreadPool::parseJobs("4"), 4u);
}

TEST(ParseJobs, ClampsAbsurdValues)
{
    const unsigned limit = ThreadPool::maxReasonableJobs();
    EXPECT_GE(limit, 64u);
    EXPECT_GE(limit, ThreadPool::defaultConcurrency());
    EXPECT_EQ(ThreadPool::parseJobs("999999"), limit);
    // Values past unsigned long range clamp too instead of throwing
    // std::out_of_range out of the CLI.
    EXPECT_EQ(ThreadPool::parseJobs("99999999999999999999999999"),
              limit);
    EXPECT_EQ(ThreadPool::parseJobs(std::to_string(limit)), limit);
}

TEST(ParseJobs, RejectsMalformedText)
{
    EXPECT_THROW(ThreadPool::parseJobs(""), FatalError);
    EXPECT_THROW(ThreadPool::parseJobs("abc"), FatalError);
    EXPECT_THROW(ThreadPool::parseJobs("-1"), FatalError);
    EXPECT_THROW(ThreadPool::parseJobs("4x"), FatalError);
    EXPECT_THROW(ThreadPool::parseJobs("1.5"), FatalError);
}

// ---------------------------------------------------------------------
// Non-finite floats serialize as null (satellite audit pin).

TEST(JsonNonFinite, JsonValueSerializesNonFiniteAsNull)
{
    JsonValue object = JsonValue::object();
    object["nan"] = std::numeric_limits<double>::quiet_NaN();
    object["inf"] = std::numeric_limits<double>::infinity();
    object["neg"] = -std::numeric_limits<double>::infinity();
    object["ok"] = 1.5;
    const std::string text = object.dump();
    EXPECT_NE(text.find("\"nan\": null"), std::string::npos) << text;
    EXPECT_NE(text.find("\"inf\": null"), std::string::npos) << text;
    EXPECT_NE(text.find("\"neg\": null"), std::string::npos) << text;
    EXPECT_EQ(text.find("nan,"), std::string::npos) << text;
    EXPECT_EQ(text.find("inf,"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// SimCache dirty-skip.

class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

TEST(SimCacheDirtySkip, UnchangedCacheSkipsTheRewrite)
{
    TempFile file("dirty_skip.tiasimc");
    SimCache cache;
    cache.put(digest128("a"), "alpha");
    ASSERT_TRUE(cache.save(file.path(), nullptr));

    // Scribble over the file out-of-band: a skipped save leaves the
    // scribble in place, a rewrite would restore the real contents.
    {
        std::ofstream out(file.path(), std::ios::binary);
        out << "scribble";
    }
    ASSERT_TRUE(cache.save(file.path(), nullptr));
    EXPECT_EQ(fileBytes(file.path()), "scribble")
        << "save() rewrote a clean cache";

    // A mutation dirties the cache and the next save really writes.
    cache.put(digest128("b"), "beta");
    ASSERT_TRUE(cache.save(file.path(), nullptr));
    EXPECT_NE(fileBytes(file.path()), "scribble");

    SimCache reloaded;
    ASSERT_TRUE(reloaded.load(file.path(), nullptr));
    EXPECT_EQ(reloaded.size(), 2u);
}

TEST(SimCacheDirtySkip, CleanLoadIntoEmptyCacheSkipsSaveBack)
{
    TempFile file("dirty_skip_load.tiasimc");
    {
        SimCache seed;
        seed.put(digest128("a"), "alpha");
        ASSERT_TRUE(seed.save(file.path(), nullptr));
    }
    const std::string original = fileBytes(file.path());

    // A fully warm run: load, only hits, save back — must not rewrite.
    SimCache warm;
    ASSERT_TRUE(warm.load(file.path(), nullptr));
    {
        std::ofstream out(file.path(), std::ios::binary);
        out << "scribble";
    }
    ASSERT_TRUE(warm.save(file.path(), nullptr));
    EXPECT_EQ(fileBytes(file.path()), "scribble")
        << "a clean loaded cache still rewrote its file";

    // Saving to a different path is never skipped.
    TempFile other("dirty_skip_other.tiasimc");
    ASSERT_TRUE(warm.save(other.path(), nullptr));
    EXPECT_EQ(fileBytes(other.path()), original);
}

TEST(SimCacheDirtySkip, EraseDirtiesTheCache)
{
    TempFile file("dirty_skip_erase.tiasimc");
    SimCache cache;
    cache.put(digest128("a"), "alpha");
    cache.put(digest128("b"), "beta");
    ASSERT_TRUE(cache.save(file.path(), nullptr));
    cache.erase(digest128("a"));
    ASSERT_TRUE(cache.save(file.path(), nullptr));
    SimCache reloaded;
    ASSERT_TRUE(reloaded.load(file.path(), nullptr));
    EXPECT_EQ(reloaded.size(), 1u);
}

} // namespace
