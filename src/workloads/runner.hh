/**
 * @file
 * Convenience runners: execute a Workload on the functional or
 * cycle-accurate fabric, validate the memory image, and collect the
 * worker PE's counters (the figures the paper reports come from "the
 * designated worker PE", Table 3).
 *
 * runCycle optionally runs under a FaultPlan with a golden-model
 * cross-check: the injected cycle-accurate run is validated against
 * the workload's golden model and the result is characterized as
 * masked / recovered / corrupted / trapped / hung, so pipeline
 * variants can prove how they behave when hazards are provoked.
 */

#ifndef TIA_WORKLOADS_RUNNER_HH
#define TIA_WORKLOADS_RUNNER_HH

#include <cstddef>
#include <functional>

#include "exec/stop_token.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"
#include "sim/functional.hh"
#include "sim/hang_diagnosis.hh"
#include "uarch/config.hh"
#include "uarch/counters.hh"
#include "workloads/workload.hh"

namespace tia {

class SimCache; // cache/simcache.hh

/** How an injected run fared against the golden model. */
enum class FaultOutcome
{
    None,      ///< No faults requested (or none fired).
    Masked,    ///< Faults fired; the architecture absorbed them silently.
    Recovered, ///< Faults fired and were repaired by recovery machinery.
    Corrupted, ///< The run completed but the memory image is wrong.
    Trapped,   ///< A fault escalated to an architectural trap (fatal).
    Hung,      ///< The run deadlocked, livelocked, or timed out.
};

/** Human-readable name for a FaultOutcome. */
const char *faultOutcomeName(FaultOutcome outcome);

/** Options for runCycle (previously hard-coded). */
struct CycleRunOptions
{
    /**
     * Simulation budget; kDefaultMaxCycles (core/types.hh) is shared
     * with FabricRunOptions so hang classification does not depend on
     * the entry point.
     */
    Cycle maxCycles = kDefaultMaxCycles;
    Cycle quiescenceWindow = kDefaultQuiescenceWindow;
    /** Fault plan to inject (non-owning; nullptr = clean run). */
    const FaultPlan *faults = nullptr;
    /**
     * After an injected run, re-validate against the golden model and
     * fill WorkloadRun::faultOutcome. (The memory check itself always
     * runs; this additionally classifies the failure mode and tolerates
     * architectural traps raised by corrupted state.)
     */
    bool goldenCrossCheck = false;
    /** Trace sink installed on the fabric (non-owning; nullptr = off). */
    TraceSink *trace = nullptr;
    /** Trace granularity when @ref trace is set (see obs/trace.hh). */
    TraceLevel traceLevel = TraceLevel::Events;
    /**
     * Resolve triggers through the virtual QueueStatusView reference
     * scheduler instead of the trigger table (bit-identical results;
     * exists so tests and tools can cross-check the two).
     */
    bool referenceScheduler = false;
    /**
     * Content-addressed result cache (non-owning; nullptr = off). When
     * set, runCycle memoizes its WorkloadRun under a digest of every
     * input (cache/run_cache.hh) with single-flight dedup across
     * concurrent sweep jobs. Ignored when @ref trace is set — tracing
     * is a side effect a cached result cannot replay.
     */
    SimCache *cache = nullptr;
    /**
     * Cooperative cancellation (exec/stop_token.hh), polled inside the
     * cycle loop every @ref stopCheckInterval cycles. A run cut short
     * returns status RunStatus::Cancelled and is never cached — and a
     * caller coalesced onto a leader whose run was cancelled retries
     * the computation itself unless its own token has also fired, so
     * one client's deadline cannot fail another client's request.
     * Neither field is part of the cache key.
     */
    StopToken stop;
    /** Cycles between stop-token polls when @ref stop is attached. */
    Cycle stopCheckInterval = 4096;
};

/** Result of one workload execution. */
struct WorkloadRun
{
    RunStatus status = RunStatus::StepLimit;
    /** Empty when the golden model validated the memory image. */
    std::string checkError;
    /** Worker PE counters (cycle runs; functional fills a subset). */
    PerfCounters worker;
    /** Worker PE in-flight instructions at run end (cycle runs). */
    std::uint64_t workerInFlight = 0;
    /** Index of the worker PE the counters above belong to. */
    unsigned workerPe = 0;
    /** Dynamic instructions per PE. */
    std::vector<std::uint64_t> dynamicInstructions;
    /** Total cycles simulated (cycle runs). */
    Cycle totalCycles = 0;
    /** Hang diagnosis for cycle runs (how the run ended). */
    HangReport hang;
    /** Outcome classification for injected runs. */
    FaultOutcome faultOutcome = FaultOutcome::None;
    /** Per-event injection counts for injected runs. */
    FaultStats faultStats;
    /** Host-side: PE steps actually executed (cycle runs). */
    std::uint64_t peStepsExecuted = 0;
    /** Host-side: PE steps elided by the idle sleep list (cycle runs). */
    std::uint64_t peStepsSkipped = 0;
    /**
     * Always zero: no simulator path writes them and the cache codec
     * does not carry them. They stay only because
     * perfbench/tia_perfbench.cc reads them (docs/perf.md).
     */
    std::uint64_t resolutionSkips = 0;
    std::uint64_t resolutionFulls = 0;

    bool ok() const { return status == RunStatus::Halted &&
                             checkError.empty(); }

    /** Field-wise equality (cache round-trip and verify tests). */
    bool operator==(const WorkloadRun &) const = default;
};

/** Run on the functional (golden) simulator. */
WorkloadRun runFunctional(const Workload &workload,
                          std::uint64_t max_steps = 50'000'000);

/** Run cycle-accurately under microarchitecture @p uarch. */
WorkloadRun runCycle(const Workload &workload, const PeConfig &uarch,
                     Cycle max_cycles = kDefaultMaxCycles);

/** Run cycle-accurately with full control (fault injection, watchdog). */
WorkloadRun runCycle(const Workload &workload, const PeConfig &uarch,
                     const CycleRunOptions &options);

/**
 * The uarch x workload product behind the Figure 5 CPI stacks. Cell
 * (c, w) is runCycle(workloads[w], configs[c], options); every task
 * owns its fabric, fault-injector RNG and counters, so the matrix is
 * element-wise bit-identical for any jobs count (asserted by
 * tests/test_sweep_engine.cc and tests/test_sweep_pipeline.cc).
 */
struct CycleMatrix
{
    /** Row-major cells: run(c, w) = runs[c * numWorkloads + w]. */
    std::vector<WorkloadRun> runs;
    std::size_t numConfigs = 0;
    std::size_t numWorkloads = 0;
    unsigned jobs = 1;   ///< Worker threads used.
    double wallMs = 0.0; ///< Wall-clock time of the whole matrix.

    const WorkloadRun &
    run(std::size_t config, std::size_t workload) const
    {
        return runs.at(config * numWorkloads + workload);
    }
};

/**
 * Run every workload under every microarchitecture.
 *
 * Implemented on the streaming pipeline (exec/pipeline.hh) with a
 * null sink; a task exception cancels in-flight siblings instead of
 * waiting out the matrix.
 *
 * @param jobs worker threads; 0 = hardware concurrency, 1 = serial
 *             reference loop.
 */
CycleMatrix runCycleMatrix(const std::vector<Workload> &workloads,
                           const std::vector<PeConfig> &configs,
                           const CycleRunOptions &options = {},
                           unsigned jobs = 1);

/**
 * Streaming consumer for runCycleMatrixStreamed: called strictly in
 * row-major cell order — (0,0), (0,1), … — on the calling thread, as
 * soon as each cell's run is available, while later cells are still
 * simulating. The run reference points at the cell just appended to
 * the matrix being built.
 */
using CycleMatrixSink = std::function<void(
    std::size_t config, std::size_t workload, const WorkloadRun &run)>;

/**
 * runCycleMatrix through the SweepPipeline: cells stream to @p sink in
 * row-major order while the worker pool simulates ahead, so JSON
 * assembly / metrics / cache-save work overlaps simulation instead of
 * trailing a full-matrix barrier. The returned matrix is complete and
 * bit-identical for any jobs count. A sink exception fails the sweep
 * fast (sibling tasks are cancelled) and is rethrown.
 */
CycleMatrix runCycleMatrixStreamed(const std::vector<Workload> &workloads,
                                   const std::vector<PeConfig> &configs,
                                   const CycleRunOptions &options,
                                   unsigned jobs,
                                   const CycleMatrixSink &sink);

/**
 * Build the tia-metrics/v1 run entry for a finished cycle run: status,
 * cycle count, hang verdict, sleep statistics, the worker PE's
 * counters/CPI stack and (for injected runs) the fault outcome. The
 * single-element "pes" array carries the worker PE only — matching
 * what WorkloadRun retains — while "num_pes" reports the true fabric
 * size, so validators apply whole-fabric identities only when the two
 * agree.
 */
JsonValue workloadRunMetrics(const WorkloadRun &run, const PeConfig &uarch,
                             const std::string &workload);

} // namespace tia

#endif // TIA_WORKLOADS_RUNNER_HH
