#include "workloads/runner.hh"

#include <chrono>
#include <optional>

#include "cache/run_cache.hh"
#include "cache/simcache.hh"
#include "core/logging.hh"
#include "exec/pipeline.hh"
#include "obs/metrics.hh"
#include "uarch/cycle_fabric.hh"

namespace tia {

namespace {

/** The always-simulate core of runCycle; cached dispatch wraps this. */
WorkloadRun runCycleUncached(const Workload &workload, const PeConfig &uarch,
                             const CycleRunOptions &options);

/**
 * runCycle's cached dispatch (options.cache set, no trace sink), keyed
 * by resuming @p inputs = workloadInputDigest(workload).
 */
WorkloadRun runCycleCached(const Workload &workload, const PeConfig &uarch,
                           const CycleRunOptions &options,
                           const Digest128Builder &inputs);

/**
 * Internal signal used by the cached dispatch path: a computation cut
 * short by a stop token must not be cached, so the compute closure
 * throws the cancelled run out of SimCache::getOrCompute (which caches
 * nothing on a throwing computation) and runCycle catches it.
 */
struct CancelledRun
{
    WorkloadRun run;
};

} // namespace

const char *
faultOutcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::None:
        return "none";
      case FaultOutcome::Masked:
        return "masked";
      case FaultOutcome::Recovered:
        return "recovered";
      case FaultOutcome::Corrupted:
        return "corrupted";
      case FaultOutcome::Trapped:
        return "trapped";
      case FaultOutcome::Hung:
        return "hung";
    }
    return "?";
}

WorkloadRun
runFunctional(const Workload &workload, std::uint64_t max_steps)
{
    FunctionalFabric fabric(workload.config, workload.program);
    workload.preload(fabric.memory());

    WorkloadRun run;
    run.status = fabric.run(max_steps);
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe)
        run.dynamicInstructions.push_back(
            fabric.pe(pe).dynamicInstructions());
    run.worker.retired =
        fabric.pe(workload.workerPe).dynamicInstructions();
    run.worker.predicateWrites =
        fabric.pe(workload.workerPe).predicateWrites();
    if (run.status == RunStatus::Halted)
        run.checkError = workload.check(fabric.memory());
    else
        run.checkError = "run did not complete";
    return run;
}

WorkloadRun
runCycle(const Workload &workload, const PeConfig &uarch, Cycle max_cycles)
{
    CycleRunOptions options;
    options.maxCycles = max_cycles;
    return runCycle(workload, uarch, options);
}

WorkloadRun
runCycle(const Workload &workload, const PeConfig &uarch,
         const CycleRunOptions &options)
{
    // Tracing is a side effect a cached result cannot replay, so a
    // run with a sink installed always simulates.
    if (options.cache == nullptr || options.trace != nullptr)
        return runCycleUncached(workload, uarch, options);
    return runCycleCached(workload, uarch, options,
                          workloadInputDigest(workload));
}

namespace {

WorkloadRun
runCycleCached(const Workload &workload, const PeConfig &uarch,
               const CycleRunOptions &options,
               const Digest128Builder &inputs)
{
    const Digest128 key = workloadRunKey(inputs, uarch, options);
    std::string payload;
    for (;;) {
        try {
            payload = options.cache->getOrCompute(
                key, [&workload, &uarch, &options] {
                    WorkloadRun fresh =
                        runCycleUncached(workload, uarch, options);
                    if (fresh.status == RunStatus::Cancelled)
                        throw CancelledRun{std::move(fresh)};
                    return encodeWorkloadRun(fresh);
                });
            break;
        } catch (const CancelledRun &cancelled) {
            // Our own cancellation (we were the leader, or our token
            // fired while we waited) is a final answer. A waiter
            // coalesced onto someone else's cancelled leader still has
            // budget: retry, becoming the new leader.
            if (options.stop.stopRequested())
                return cancelled.run;
        }
    }
    if (std::optional<WorkloadRun> run = decodeWorkloadRun(payload))
        return *run;

    // A persisted payload that fails to decode (written by a newer
    // build within the same schema version, or damaged in a way the
    // checksum missed) degrades to a miss: recompute and overwrite.
    options.cache->erase(key);
    WorkloadRun fresh = runCycleUncached(workload, uarch, options);
    options.cache->put(key, encodeWorkloadRun(fresh));
    return fresh;
}

WorkloadRun
runCycleUncached(const Workload &workload, const PeConfig &uarch,
                 const CycleRunOptions &options)
{
    std::optional<FaultInjector> injector;
    if (options.faults != nullptr && !options.faults->empty())
        injector.emplace(*options.faults);

    CycleFabric fabric(workload.config, workload.program, uarch,
                       injector ? &*injector : nullptr);
    workload.preload(fabric.memory());
    if (options.trace != nullptr)
        fabric.setTraceSink(options.trace, options.traceLevel);
    if (options.referenceScheduler)
        fabric.setUseReferenceScheduler(true);

    const FabricRunOptions fabric_options{options.maxCycles,
                                          options.quiescenceWindow,
                                          options.stop,
                                          options.stopCheckInterval};
    WorkloadRun run;
    bool trapped = false;
    if (injector) {
        // Corrupted tokens can escalate to architectural traps
        // (out-of-bounds addresses and the like); for injected runs
        // that is a reportable outcome, not a harness failure.
        try {
            run.status = fabric.run(fabric_options);
        } catch (const FatalError &error) {
            trapped = true;
            run.status = RunStatus::StepLimit;
            run.checkError = std::string("trapped: ") + error.what();
        }
    } else {
        run.status = fabric.run(fabric_options);
    }

    run.hang = fabric.hangReport();
    run.totalCycles = fabric.now();
    const FabricStepStats steps = fabric.stepStats();
    run.peStepsExecuted = steps.peStepsExecuted;
    run.peStepsSkipped = steps.peStepsSkipped;
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe)
        run.dynamicInstructions.push_back(
            fabric.pe(pe).counters().retired);
    run.worker = fabric.pe(workload.workerPe).counters();
    run.workerInFlight = fabric.pe(workload.workerPe).inFlight();
    run.workerPe = workload.workerPe;
    if (trapped) {
        // checkError already explains the trap.
    } else if (run.status == RunStatus::Halted) {
        run.checkError = workload.check(fabric.memory());
    } else {
        run.checkError = "run did not complete";
    }

    if (injector) {
        run.faultStats = injector->stats();
        std::uint64_t pe_faults = 0;
        std::uint64_t pe_recoveries = 0;
        for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
            pe_faults += fabric.pe(pe).counters().faultsInjected;
            pe_recoveries += fabric.pe(pe).counters().faultRecoveries;
        }
        if (options.goldenCrossCheck) {
            if (trapped) {
                run.faultOutcome = FaultOutcome::Trapped;
            } else if (run.status != RunStatus::Halted) {
                run.faultOutcome = FaultOutcome::Hung;
            } else if (!run.checkError.empty()) {
                run.faultOutcome = FaultOutcome::Corrupted;
            } else if (run.faultStats.totalFired() == 0) {
                run.faultOutcome = FaultOutcome::None;
            } else if (pe_recoveries > 0) {
                run.faultOutcome = FaultOutcome::Recovered;
            } else {
                run.faultOutcome = FaultOutcome::Masked;
            }
        }
    }
    return run;
}

} // namespace

JsonValue
workloadRunMetrics(const WorkloadRun &run, const PeConfig &uarch,
                   const std::string &workload)
{
    JsonValue entry = JsonValue::object();
    entry["workload"] = workload;
    entry["uarch"] = uarch.name();
    entry["status"] = run.ok() ? "ok" : runStatusName(run.status);
    if (!run.checkError.empty())
        entry["check_error"] = run.checkError;
    entry["cycles"] = run.totalCycles;
    entry["num_pes"] =
        static_cast<std::uint64_t>(run.dynamicInstructions.size());

    JsonValue verdict = JsonValue::object();
    verdict["classification"] = runStatusName(run.hang.classification);
    verdict["summary"] = run.hang.summary;
    entry["verdict"] = std::move(verdict);

    entry["sleep"] =
        sleepMetricsJson(run.peStepsExecuted, run.peStepsSkipped);

    JsonValue pes = JsonValue::array();
    pes.push(peMetricsJson(run.workerPe, run.worker, run.workerInFlight));
    entry["pes"] = std::move(pes);

    if (run.faultOutcome != FaultOutcome::None ||
        run.faultStats.totalFired() != 0) {
        JsonValue faults = JsonValue::object();
        faults["outcome"] = faultOutcomeName(run.faultOutcome);
        faults["total_fired"] = run.faultStats.totalFired();
        JsonValue lines = JsonValue::array();
        for (const auto &line : run.faultStats.lines) {
            JsonValue item = JsonValue::object();
            item["name"] = line.name;
            item["fired"] = line.fired;
            item["declined"] = line.declined;
            lines.push(std::move(item));
        }
        faults["lines"] = std::move(lines);
        entry["faults"] = std::move(faults);
    }
    return entry;
}

CycleMatrix
runCycleMatrixStreamed(const std::vector<Workload> &workloads,
                       const std::vector<PeConfig> &configs,
                       const CycleRunOptions &options, unsigned jobs,
                       const CycleMatrixSink &sink)
{
    // Timed from here, not by the pipeline, so wallMs includes the
    // up-front input digests below.
    const auto start = std::chrono::steady_clock::now();
    CycleMatrix matrix;
    matrix.numConfigs = configs.size();
    matrix.numWorkloads = workloads.size();
    matrix.runs.reserve(configs.size() * workloads.size());

    // Every cell of a workload shares the uarch-independent half of
    // its cache key, so digest it once per workload up front; cells
    // only read these states, and each finishes from its own copy.
    const bool cached = options.cache != nullptr && options.trace == nullptr;
    std::vector<Digest128Builder> inputs;
    if (cached) {
        inputs.reserve(workloads.size());
        for (const Workload &workload : workloads)
            inputs.push_back(workloadInputDigest(workload));
    }

    // Cell i = (c, w) in row-major order, run with the caller's
    // options plus the pipeline's fail-fast cancel token merged into
    // the stop token, so one cell's exception cancels its siblings
    // within a few thousand simulated cycles.
    const SweepPipeline pipeline(jobs);
    const PipelineResult result = pipeline.run(
        configs.size() * workloads.size(),
        [&](std::size_t i, const StopToken &cancel) {
            CycleRunOptions task = options;
            task.stop = StopToken::anyOf(options.stop, cancel);
            const std::size_t w = i % workloads.size();
            const PeConfig &uarch = configs[i / workloads.size()];
            return cached ? runCycleCached(workloads[w], uarch, task,
                                           inputs[w])
                          : runCycleUncached(workloads[w], uarch, task);
        },
        [&](std::size_t i, WorkloadRun &&run) {
            matrix.runs.push_back(std::move(run));
            if (sink) {
                sink(i / workloads.size(), i % workloads.size(),
                     matrix.runs.back());
            }
        });
    matrix.jobs = result.jobs;
    matrix.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return matrix;
}

CycleMatrix
runCycleMatrix(const std::vector<Workload> &workloads,
               const std::vector<PeConfig> &configs,
               const CycleRunOptions &options, unsigned jobs)
{
    return runCycleMatrixStreamed(workloads, configs, options, jobs,
                                  CycleMatrixSink{});
}

} // namespace tia
