/**
 * @file
 * The stepping oracle for CycleFabric::run: run()'s loop with every
 * cycle taken by step(), so none by the solo-PE loop, and the
 * observation the equivalence tests compare between the two.
 */

#ifndef TIA_TESTS_STEP_ORACLE_HH
#define TIA_TESTS_STEP_ORACLE_HH

#include <cstdint>
#include <vector>

#include "sim/hang_diagnosis.hh"
#include "uarch/counters.hh"
#include "uarch/cycle_fabric.hh"

namespace tia {

/** Everything observable about a finished cycle-accurate run. */
struct RunObservation
{
    RunStatus status;
    Cycle cycles;
    std::vector<PerfCounters> counters;
    std::vector<CpiStack> cpi;
    std::vector<std::vector<Word>> regs;
    std::vector<std::uint64_t> preds;
    HangReport report;
    std::vector<Word> memory;

    bool operator==(const RunObservation &) const = default;
};

/** Observe @p fabric after a run that ended with @p report. */
inline RunObservation
observe(const CycleFabric &fabric, const HangReport &report)
{
    RunObservation obs;
    obs.status = report.classification;
    obs.cycles = fabric.now();
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        const PipelinedPe &view = fabric.pe(pe);
        obs.counters.push_back(view.counters());
        obs.cpi.push_back(cpiStack(view.counters()));
        obs.regs.push_back(view.regs());
        obs.preds.push_back(view.preds());
    }
    obs.report = report;
    obs.memory = fabric.memory().snapshot();
    return obs;
}

/** Pushes plus pops on every channel so far: run()'s progress events. */
inline std::uint64_t
queueEventsSoFar(const CycleFabric &fabric)
{
    std::uint64_t total = 0;
    for (unsigned ch = 0; ch < fabric.numChannels(); ++ch) {
        total += fabric.channel(ch).totalPushes() +
                 fabric.channel(ch).totalPops();
    }
    return total;
}

/**
 * CycleFabric::run without the solo-PE loop: the same halt,
 * cycle-limit, quiescence and livelock rules, with every cycle taken
 * by step(). Stop tokens are not polled. Reads only state that does
 * not settle sleep debt, so a traced run emits its events in run()'s
 * order. Returns the report run() would leave in hangReport().
 */
inline HangReport
runByStepping(CycleFabric &fabric, Cycle maxCycles = kDefaultMaxCycles,
              Cycle window = kDefaultQuiescenceWindow)
{
    std::uint64_t last_retired = fabric.totalRetired();
    std::uint64_t last_events = queueEventsSoFar(fabric);
    Cycle last_activity = fabric.now();
    Cycle last_progress = fabric.now();
    for (;;) {
        if (fabric.now() >= maxCycles)
            return classifyStepLimit(fabric.now() - last_progress, window);
        if (fabric.allHalted()) {
            HangReport report;
            report.classification = RunStatus::Halted;
            report.summary = "halted: every PE retired a halt";
            return report;
        }

        fabric.step();

        if (queueEventsSoFar(fabric) != last_events) {
            last_events = queueEventsSoFar(fabric);
            last_progress = fabric.now();
        }
        if (fabric.totalRetired() != last_retired || fabric.anyActivity()) {
            last_retired = fabric.totalRetired();
            last_activity = fabric.now();
        } else if (fabric.now() - last_activity >= window) {
            return fabric.diagnoseQuiescence();
        }
    }
}

/** A finished run as the solo-loop equivalence tests compare it. */
struct DrivenRun
{
    RunObservation obs;
    FabricStepStats steps;

    bool operator==(const DrivenRun &) const = default;
};

/**
 * Run @p fabric through run(@p options), or through runByStepping
 * with the same cycle budget and quiescence window.
 */
inline DrivenRun
drive(CycleFabric &fabric, bool stepping,
      const FabricRunOptions &options = {})
{
    HangReport report;
    if (stepping) {
        report = runByStepping(fabric, options.maxCycles,
                               options.quiescenceWindow);
    } else {
        fabric.run(options);
        report = fabric.hangReport();
    }
    return {observe(fabric, report), fabric.stepStats()};
}

} // namespace tia

#endif // TIA_TESTS_STEP_ORACLE_HH
