/**
 * @file
 * Equivalence tests for the hot-loop optimizations: the
 * predicate-indexed trigger table, the ring-buffer TaggedQueue,
 * the fabric's idle-PE sleep/wake machinery and run()'s solo-PE loop.
 * Every optimization must be invisible to the architecture — identical
 * schedule outcomes, identical queue semantics, bit-identical cycle
 * counts, counters and hang reports with sleep on and off, and with
 * run() against stepping every cycle.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <random>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "sim/fault.hh"
#include "sim/queue.hh"
#include "sim/scheduler.hh"
#include "step_oracle.hh"
#include "uarch/cycle_fabric.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace tia {
namespace {

/** Run options with an explicit cycle budget and quiescence window. */
FabricRunOptions
runBudget(Cycle maxCycles, Cycle quiescenceWindow)
{
    FabricRunOptions options;
    options.maxCycles = maxCycles;
    options.quiescenceWindow = quiescenceWindow;
    return options;
}

// ---------------------------------------------------------------------
// Trigger table vs reference, over random instructions & status.
// ---------------------------------------------------------------------

constexpr unsigned kQueues = 4;

/** Fixed queue status backing both the view and the packed words. */
struct SyntheticStatus
{
    std::array<unsigned, kQueues> occupancy{};
    std::array<Tag, kQueues> headTag{};
    std::array<bool, kQueues> outputSpace{};
};

class SyntheticView : public QueueStatusView
{
  public:
    explicit SyntheticView(const SyntheticStatus &s) : s_(s) {}

    unsigned
    inputOccupancy(unsigned q) const override
    {
        return s_.occupancy[q];
    }

    std::optional<Tag>
    inputHeadTag(unsigned q) const override
    {
        if (s_.occupancy[q] == 0)
            return std::nullopt;
        return s_.headTag[q];
    }

    bool
    outputHasSpace(unsigned q) const override
    {
        return s_.outputSpace[q];
    }

  private:
    const SyntheticStatus &s_;
};

QueueStatusWords
packStatus(const SyntheticStatus &s)
{
    QueueStatusWords words;
    for (unsigned q = 0; q < kQueues; ++q) {
        if (s.occupancy[q] > 0) {
            words.inputReady |= std::uint32_t{1} << q;
            words.headTag[q] = s.headTag[q];
        }
        if (s.outputSpace[q])
            words.outputSpace |= std::uint32_t{1} << q;
    }
    return words;
}

/**
 * A random instruction over @p numPreds predicates. Its trigger cares
 * about up to four predicates, the first of them in predicate byte
 * @p byte, so a program of a few instructions spreads its trigger bits
 * over every byte of a wide predicate file.
 */
Instruction
randomInstruction(std::mt19937 &rng, unsigned numPreds, unsigned byte)
{
    auto pick = [&](unsigned bound) {
        return std::uniform_int_distribution<unsigned>(0, bound - 1)(rng);
    };

    Instruction inst;
    inst.trigger.valid = pick(10) != 0;
    const unsigned byte_begin = 8 * byte;
    const unsigned byte_size = std::min(8u, numPreds - byte_begin);
    const unsigned cared = 1 + pick(4);
    for (unsigned c = 0; c < cared; ++c) {
        const unsigned p = c == 0 ? byte_begin + pick(byte_size)
                                  : pick(numPreds);
        const std::uint64_t bit = std::uint64_t{1} << p;
        if (((inst.trigger.predOn | inst.trigger.predOff) & bit) != 0)
            continue;
        if (pick(2) != 0)
            inst.trigger.predOn |= bit;
        else
            inst.trigger.predOff |= bit;
    }
    // Up to MaxCheck (2) distinct checked queues.
    const unsigned checks = pick(3);
    std::array<unsigned, kQueues> order = {0, 1, 2, 3};
    std::shuffle(order.begin(), order.end(), rng);
    for (unsigned c = 0; c < checks; ++c) {
        QueueCheck check;
        check.queue = static_cast<std::uint8_t>(order[c]);
        check.tag = static_cast<Tag>(pick(4));
        check.negate = pick(2) != 0;
        inst.trigger.queueChecks.push_back(check);
    }
    for (auto &src : inst.srcs) {
        switch (pick(4)) {
          case 0:
            src = {SrcType::InputQueue, static_cast<std::uint8_t>(pick(kQueues))};
            break;
          case 1:
            src = {SrcType::Reg, static_cast<std::uint8_t>(pick(4))};
            break;
          case 2:
            src = {SrcType::Immediate, 0};
            break;
          default:
            src = {SrcType::None, 0};
            break;
        }
    }
    switch (pick(4)) {
      case 0:
        inst.dst = {DstType::OutputQueue, static_cast<std::uint8_t>(pick(kQueues))};
        break;
      case 1:
        inst.dst = {DstType::Reg, 0};
        break;
      default:
        inst.dst = {DstType::None, 0};
        break;
    }
    std::shuffle(order.begin(), order.end(), rng);
    const unsigned deqs = pick(3);
    for (unsigned d = 0; d < deqs; ++d)
        inst.dequeues.push_back(static_cast<std::uint8_t>(order[d]));
    return inst;
}

/** Up to @p count distinct bits drawn from @p pool (all if fewer). */
std::uint64_t
pickBits(std::mt19937 &rng, std::uint64_t pool, unsigned count)
{
    std::uint64_t bits = 0;
    for (unsigned n = 0; n < count && pool != 0; ++n) {
        unsigned skip = std::uniform_int_distribution<unsigned>(
            0, static_cast<unsigned>(std::popcount(pool)) - 1)(rng);
        std::uint64_t rest = pool;
        while (skip-- > 0)
            rest &= rest - 1;
        const std::uint64_t bit = std::uint64_t{1}
                                  << std::countr_zero(rest);
        bits |= bit;
        pool &= ~bit;
    }
    return bits;
}

TEST(SchedulerFastPath, MatchesReferenceOnRandomPrograms)
{
    std::mt19937 rng(0xC0FFEE);
    auto pick = [&](unsigned bound) {
        return std::uniform_int_distribution<unsigned>(0, bound - 1)(rng);
    };

    for (const unsigned num_preds : {8u, 13u, 64u}) {
        const std::uint64_t pred_mask =
            num_preds >= 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << num_preds) - 1;
        const unsigned num_bytes = (num_preds + 7) / 8;
        std::array<unsigned, 3> outcomes{};

        for (unsigned trial = 0; trial < 600; ++trial) {
            std::vector<Instruction> program;
            const unsigned size = 1 + pick(TriggerTable::kMaxInstructions);
            std::uint64_t cared = 0;
            for (unsigned i = 0; i < size; ++i) {
                program.push_back(
                    randomInstruction(rng, num_preds, i % num_bytes));
                // The datapath fields are random and unchecked; the
                // trigger obeys what Instruction::validate enforces.
                const TriggerCondition &trigger = program.back().trigger;
                ASSERT_EQ(trigger.predOn & trigger.predOff, 0u);
                ASSERT_EQ((trigger.predOn | trigger.predOff) & ~pred_mask,
                          0u);
                cared |= trigger.predOn | trigger.predOff;
            }
            const TriggerTable table(program);
            ASSERT_EQ(table.descs().size(), size);

            SyntheticStatus status;
            for (unsigned q = 0; q < kQueues; ++q) {
                status.occupancy[q] = pick(4);
                status.headTag[q] = static_cast<Tag>(pick(4));
                status.outputSpace[q] = pick(2) != 0;
            }
            const SyntheticView view(status);
            const QueueStatusWords words = packStatus(status);

            for (unsigned sample = 0; sample < 12; ++sample) {
                // Half the samples satisfy one instruction's predicate
                // condition outright, so Fire and predicate hazards
                // are reached, not just None.
                std::uint64_t preds =
                    (std::uint64_t{rng()} << 32 | rng()) & pred_mask;
                if (sample % 2 == 0) {
                    const TriggerCondition &trigger =
                        program[pick(size)].trigger;
                    preds = (preds | trigger.predOn) & ~trigger.predOff;
                }
                // pendingPreds is nonzero only without prediction;
                // cover one to three cared bits, in one byte or spread
                // over several, and leave it zero otherwise as in
                // real runs.
                const std::uint64_t pending =
                    sample % 3 == 0 ? 0 : pickBits(rng, cared, 1 + pick(3));

                const ScheduleResult ref =
                    schedule(program, preds, pending, view);
                const ScheduleResult fast =
                    table.resolve(preds, pending, words);
                ASSERT_EQ(static_cast<int>(fast.outcome),
                          static_cast<int>(ref.outcome))
                    << num_preds << " preds, trial " << trial;
                ASSERT_EQ(fast.index, ref.index)
                    << num_preds << " preds, trial " << trial;
                ++outcomes[static_cast<unsigned>(ref.outcome)];
            }

            // Condition evaluation agrees instruction by instruction.
            for (unsigned i = 0; i < size; ++i) {
                if (!program[i].trigger.valid)
                    continue;
                ASSERT_EQ(queueConditionsHold(table.descs()[i], words),
                          queueConditionsHold(program[i], view))
                    << "trial " << trial << " inst " << i;
            }
        }
        // Every outcome is exercised at every predicate width.
        for (const unsigned count : outcomes)
            EXPECT_GT(count, 100u) << num_preds << " preds";
    }
}

// ---------------------------------------------------------------------
// Ring-buffer TaggedQueue vs a deque reference model.
// ---------------------------------------------------------------------

/** The pre-ring TaggedQueue semantics, kept as an executable spec. */
struct DequeModel
{
    explicit DequeModel(unsigned capacity) : capacity(capacity) {}

    unsigned capacity;
    std::deque<Token> entries;
    std::deque<Token> pending;
    unsigned snapshot = 0;
    unsigned pops = 0;
    std::uint64_t totalPushes = 0;
    std::uint64_t totalPops = 0;

    bool canPush() const { return entries.size() + pending.size() < capacity; }

    void
    push(const Token &t)
    {
        pending.push_back(t);
        ++totalPushes;
    }

    Token
    pop()
    {
        Token t = entries.front();
        entries.pop_front();
        ++totalPops;
        ++pops;
        return t;
    }

    void
    beginCycle()
    {
        snapshot = static_cast<unsigned>(entries.size());
        pops = 0;
    }

    void
    commit()
    {
        for (const auto &t : pending)
            entries.push_back(t);
        pending.clear();
    }

    void
    pushImmediate(const Token &t)
    {
        entries.push_back(t);
        ++totalPushes;
    }
};

TEST(RingBufferQueue, MatchesDequeModelUnderRandomOps)
{
    std::mt19937 rng(0xDECADE);
    auto pick = [&](unsigned bound) {
        return std::uniform_int_distribution<unsigned>(0, bound - 1)(rng);
    };

    for (unsigned trial = 0; trial < 200; ++trial) {
        const unsigned capacity = 1 + pick(7); // covers non-powers of 2
        TaggedQueue queue(capacity);
        DequeModel model(capacity);
        QueueEventLog log(8);
        queue.setEventLog(&log, 7);

        for (unsigned op = 0; op < 400; ++op) {
            switch (pick(6)) {
              case 0: // deferred push
                if (model.canPush()) {
                    const Token t{static_cast<Word>(rng()),
                                  static_cast<Tag>(pick(4))};
                    queue.push(t);
                    model.push(t);
                }
                break;
              case 1: // pop
                if (!model.entries.empty()) {
                    const Token expect = model.pop();
                    ASSERT_EQ(queue.pop(), expect);
                }
                break;
              case 2:
                queue.beginCycle();
                model.beginCycle();
                break;
              case 3:
                queue.commit();
                model.commit();
                break;
              case 4: // immediate push (functional mode: no pending)
                if (model.pending.empty() &&
                    model.entries.size() < capacity) {
                    const Token t{static_cast<Word>(rng()),
                                  static_cast<Tag>(pick(4))};
                    queue.pushImmediate(t);
                    model.pushImmediate(t);
                }
                break;
              default: { // deep peek
                const unsigned depth = pick(capacity + 1);
                const auto got = queue.peek(depth);
                if (depth < model.entries.size()) {
                    ASSERT_TRUE(got.has_value());
                    ASSERT_EQ(*got, model.entries[depth]);
                } else {
                    ASSERT_FALSE(got.has_value());
                }
                break;
              }
            }
            ASSERT_EQ(queue.size(), model.entries.size());
            ASSERT_EQ(queue.empty(), model.entries.empty());
            ASSERT_EQ(queue.snapshotSize(), model.snapshot);
            ASSERT_EQ(queue.popsThisCycle(), model.pops);
            ASSERT_EQ(queue.pendingPushes(), model.pending.size());
            ASSERT_EQ(queue.hasPendingPush(), !model.pending.empty());
            ASSERT_EQ(queue.totalPushes(), model.totalPushes);
            ASSERT_EQ(queue.totalPops(), model.totalPops);
        }
        EXPECT_EQ(log.progressEvents(), model.totalPushes + model.totalPops);
        if (model.totalPushes > 0) {
            ASSERT_EQ(log.pushedChannels().size(), 1u);
            EXPECT_EQ(log.pushedChannels().front(), 7u);
        }
        if (model.totalPushes + model.totalPops > 0) {
            ASSERT_EQ(log.dirtyChannels().size(), 1u);
            EXPECT_EQ(log.dirtyChannels().front(), 7u);
            EXPECT_TRUE(log.dirty(7));
        }
    }
}

TEST(RingBufferQueue, OverflowStillPanics)
{
    TaggedQueue queue(2);
    queue.push({1, 0});
    queue.push({2, 0});
    EXPECT_ANY_THROW(queue.push({3, 0}));
}

// ---------------------------------------------------------------------
// Idle-PE sleep/wake: bit-identical runs with the optimization off.
// ---------------------------------------------------------------------

RunObservation
observeRun(const Workload &workload, const PeConfig &uarch, bool sleep,
           FaultInjector *injector = nullptr)
{
    CycleFabric fabric(workload.config, workload.program, uarch, injector);
    fabric.setIdleSleepEnabled(sleep);
    workload.preload(fabric.memory());
    fabric.run();
    const RunObservation obs = observe(fabric, fabric.hangReport());

    // Host-side accounting must balance: every architectural PE cycle
    // was either executed or skipped-and-accounted.
    const FabricStepStats steps = fabric.stepStats();
    std::uint64_t pe_cycles = 0;
    for (const auto &c : obs.counters)
        pe_cycles += c.cycles;
    EXPECT_EQ(steps.peStepsExecuted + steps.peStepsSkipped, pe_cycles);
    if (!sleep || injector != nullptr) {
        EXPECT_EQ(steps.peStepsSkipped, 0u);
    }
    return obs;
}

TEST(IdlePeSleep, WorkloadSuiteBitIdentical)
{
    const std::vector<Workload> workloads =
        allWorkloads(WorkloadSizes::small());
    const std::vector<PeConfig> uarchs = {
        {allShapes()[0], false, false, false}, // TDX
        {allShapes()[0], false, true, false},  // TDX +Q
        {allShapes()[7], true, true, false},   // T|D|X1|X2 +P+Q
        {allShapes()[7], true, true, true},    // T|D|X1|X2 +P+N+Q
    };
    for (const Workload &workload : workloads) {
        for (const PeConfig &uarch : uarchs) {
            const RunObservation with = observeRun(workload, uarch, true);
            const RunObservation without =
                observeRun(workload, uarch, false);
            ASSERT_EQ(with, without)
                << workload.name << " / " << uarch.name();
            ASSERT_EQ(with.status, RunStatus::Halted) << workload.name;
        }
    }
}

TEST(IdlePeSleep, SkipsStepsOnSparseFabrics)
{
    // One worker plus many programless PEs: the sleep list should
    // elide nearly all of the idle PEs' steps while leaving the
    // worker's results untouched.
    const Workload workload = makeGcd(WorkloadSizes::small());
    FabricConfig config = workload.config;
    const unsigned total_pes = config.numPes + 15;
    config.inputChannel.resize(
        total_pes,
        std::vector<int>(config.params.numInputQueues, kUnbound));
    config.outputChannel.resize(
        total_pes,
        std::vector<int>(config.params.numOutputQueues, kUnbound));
    config.initialRegs.resize(total_pes);
    config.initialPreds.resize(total_pes, 0);
    config.numPes = total_pes;

    const PeConfig uarch{allShapes()[0], false, false, false};
    CycleFabric fabric(config, workload.program, uarch);
    workload.preload(fabric.memory());
    // Idle PEs never halt, so the run ends by quiescence after the
    // worker is done.
    ASSERT_EQ(fabric.run(), RunStatus::Quiescent);
    EXPECT_TRUE(fabric.pe(workload.workerPe).halted());

    const FabricStepStats steps = fabric.stepStats();
    EXPECT_GT(steps.peStepsSkipped, steps.peStepsExecuted);
    // Idle PEs still account one no-trigger cycle per fabric cycle.
    for (unsigned pe = config.numPes - 15; pe < total_pes; ++pe) {
        EXPECT_EQ(fabric.pe(pe).counters().cycles,
                  fabric.pe(pe).counters().noTrigger);
    }
}

TEST(IdlePeSleep, QuiescentStarvationIdentical)
{
    // A PE waiting forever on a never-fed input: with sleep it parks
    // immediately, yet quiescence timing, diagnosis and counters must
    // not move.
    ArchParams params;
    const Program program = assemble(
        "when %p == XXXXXXX0 with %i0.1: add %r0, %r0, %i0; deq %i0;\n",
        params);
    FabricBuilder builder(params, 2);
    builder.connect(1, 0, 0, 0); // feed PE0 from PE1, which never fires
    const FabricConfig config = builder.build();

    auto observed = [&](bool sleep) {
        CycleFabric fabric(config, program, {allShapes()[0], false, false,
                                             false});
        fabric.setIdleSleepEnabled(sleep);
        fabric.run();
        return observe(fabric, fabric.hangReport());
    };
    const RunObservation with = observed(true);
    const RunObservation without = observed(false);
    ASSERT_EQ(with, without);
    EXPECT_EQ(with.status, RunStatus::Quiescent);
}

TEST(IdlePeSleep, FaultInjectionDisablesSleepAndStaysIdentical)
{
    // Stuck-status windows open and close without queue events, so a
    // fabric with an injector must not park PEs — and two runs of the
    // same plan stay deterministic regardless of the sleep knob.
    const Workload workload = makeGcd(WorkloadSizes::small());
    const PeConfig uarch{allShapes()[7], true, false, true};
    const FaultPlan plan =
        FaultPlan::parse("seed=42;mispredict:pe0@p0.05");

    FaultInjector a(plan);
    FaultInjector b(plan);
    const RunObservation with = observeRun(workload, uarch, true, &a);
    const RunObservation without = observeRun(workload, uarch, false, &b);
    ASSERT_EQ(with, without);
    EXPECT_GT(with.counters.at(workload.workerPe).faultsInjected, 0u);
}

/**
 * The counter-integrity contract (uarch/counters.hh): every PE cycle
 * lands in exactly one attribution bucket, except the cycles claimed
 * by instructions still in flight. Must hold on EVERY exit path —
 * including budget and quiescence exits where parked PEs have
 * unsettled sleep debt at the moment the run stops.
 */
void
expectBucketIntegrity(CycleFabric &fabric, const char *where)
{
    for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
        const PerfCounters &c = fabric.pe(pe).counters();
        const std::uint64_t buckets = c.retired + c.quashed +
                                      c.predicateHazard + c.dataHazard +
                                      c.forbidden + c.noTrigger;
        EXPECT_EQ(buckets + fabric.pe(pe).inFlight(), c.cycles)
            << where << " PE " << pe;
        // An unhalted PE's clock runs to the end of the fabric's.
        if (!fabric.pe(pe).halted()) {
            EXPECT_EQ(c.cycles, fabric.now()) << where << " PE " << pe;
        }
    }
}

TEST(IdlePeSleep, CountersSettleOnEveryExitPath)
{
    // A sparse fabric — one gcd worker plus 15 programless PEs that
    // park immediately — driven to each of the run() exit reasons.
    const Workload workload = makeGcd(WorkloadSizes::small());
    FabricConfig config = workload.config;
    const unsigned total_pes = config.numPes + 15;
    config.inputChannel.resize(
        total_pes,
        std::vector<int>(config.params.numInputQueues, kUnbound));
    config.outputChannel.resize(
        total_pes,
        std::vector<int>(config.params.numOutputQueues, kUnbound));
    config.initialRegs.resize(total_pes);
    config.initialPreds.resize(total_pes, 0);
    config.numPes = total_pes;
    const PeConfig uarch{allShapes()[7], true, true, true};

    {
        // Cycle-budget exit: the watchdog window never elapses, so the
        // run stops mid-flight with every idle PE still parked.
        CycleFabric fabric(config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run(runBudget(50, 10'000)), RunStatus::StepLimit);
        expectBucketIntegrity(fabric, "step-limit");
    }
    {
        // Larger budget, same exit, after the worker made progress.
        CycleFabric fabric(config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run(runBudget(200, 10'000)), RunStatus::StepLimit);
        expectBucketIntegrity(fabric, "step-limit-200");
    }
    {
        // Quiescence/watchdog exit: the worker halts, the idle PEs
        // starve, and the quiescence window trips.
        CycleFabric fabric(config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run(runBudget(kDefaultMaxCycles, 100)),
                  RunStatus::Quiescent);
        EXPECT_TRUE(fabric.pe(workload.workerPe).halted());
        expectBucketIntegrity(fabric, "quiescent");
    }
    {
        // Halted exit on the unpadded fabric.
        CycleFabric fabric(workload.config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run(), RunStatus::Halted);
        expectBucketIntegrity(fabric, "halted");
    }
}

// ---------------------------------------------------------------------
// The trigger table must be invisible next to the QueueStatusView
// reference scheduler.
// ---------------------------------------------------------------------

/** One run with the scheduler flavour pinned. */
RunObservation
observeScheduler(const Workload &workload, const PeConfig &uarch,
                 bool reference)
{
    CycleFabric fabric(workload.config, workload.program, uarch);
    fabric.setUseReferenceScheduler(reference);
    workload.preload(fabric.memory());
    fabric.run();
    return observe(fabric, fabric.hangReport());
}

TEST(TriggerTable, WorkloadSuiteBitIdenticalToReferenceScheduler)
{
    const std::vector<Workload> workloads =
        allWorkloads(WorkloadSizes::small());
    std::vector<PeConfig> uarchs = allConfigs();
    uarchs.push_back({allShapes()[7], true, true, true}); // T|D|X1|X2 +P+N+Q
    for (const Workload &workload : workloads) {
        for (const PeConfig &uarch : uarchs) {
            ASSERT_EQ(observeScheduler(workload, uarch, false),
                      observeScheduler(workload, uarch, true))
                << workload.name << " / " << uarch.name();
        }
    }
}

TEST(IdlePeSleep, MutatingAccessorWakesParkedPe)
{
    // A parked PE whose predicates are changed externally must be
    // reconsidered; pe() wakes it so the next cycle re-schedules.
    ArchParams params;
    const Program program =
        assemble("when %p == XXXXXXX1: halt;\n", params);
    FabricBuilder builder(params, 1);
    const FabricConfig config = builder.build();

    CycleFabric fabric(config, program, {allShapes()[0], false, false,
                                         false});
    for (unsigned i = 0; i < 10; ++i)
        fabric.step(); // p0 clear: no trigger; the PE parks
    EXPECT_GT(fabric.stepStats().peStepsSkipped, 0u);
    EXPECT_EQ(fabric.pe(0).counters().cycles, 10u);

    fabric.pe(0).setPreds(1); // wakes the PE as a side effect
    fabric.step();
    EXPECT_TRUE(fabric.pe(0).halted());
    EXPECT_EQ(fabric.pe(0).counters().cycles, 11u);
    EXPECT_EQ(fabric.pe(0).counters().retired, 1u);
}

// ---------------------------------------------------------------------
// The solo-PE loop in run() must be invisible next to stepping every
// cycle with step() (tests/step_oracle.hh).
// ---------------------------------------------------------------------

/** Records every trace event in arrival order. */
struct RecordingSink : TraceSink
{
    std::vector<TraceEvent> events;

    void
    record(const TraceEvent &event) override
    {
        events.push_back(event);
    }
};

/** One run of @p workload through run() or the stepping oracle. */
DrivenRun
driveWorkload(const Workload &workload, const PeConfig &uarch,
              bool stepping, const FabricRunOptions &options = {})
{
    CycleFabric fabric(workload.config, workload.program, uarch);
    workload.preload(fabric.memory());
    return drive(fabric, stepping, options);
}

TEST(SoloPeLoop, WorkloadSuiteMatchesStepping)
{
    const std::vector<Workload> workloads =
        allWorkloads(WorkloadSizes::small());
    std::vector<PeConfig> uarchs = allConfigs();
    uarchs.push_back({allShapes()[7], true, true, true}); // T|D|X1|X2 +P+N+Q
    for (const Workload &workload : workloads) {
        for (const PeConfig &uarch : uarchs) {
            const DrivenRun run = driveWorkload(workload, uarch, false);
            ASSERT_EQ(run, driveWorkload(workload, uarch, true))
                << workload.name << " / " << uarch.name();
            ASSERT_EQ(run.obs.status, RunStatus::Halted)
                << workload.name << " / " << uarch.name();
        }
    }
}

TEST(SoloPeLoop, TracedRunMatchesStepping)
{
    // A trace sink keeps run() off the solo loop; the event stream,
    // park/wake instants and queue depths included, must still be
    // exactly the stepping oracle's.
    const PeConfig uarch{allShapes()[7], true, true, false};
    for (const Workload &workload : {makeGcd(WorkloadSizes::small()),
                                     makeBst(WorkloadSizes::small())}) {
        auto traced = [&](bool stepping) {
            CycleFabric fabric(workload.config, workload.program, uarch);
            workload.preload(fabric.memory());
            RecordingSink sink;
            fabric.setTraceSink(&sink, TraceLevel::Cycles);
            const DrivenRun run = drive(fabric, stepping);
            return std::pair{run, sink.events};
        };
        const auto [run, events] = traced(false);
        const auto [oracle, oracle_events] = traced(true);
        ASSERT_EQ(run, oracle) << workload.name;
        ASSERT_EQ(events, oracle_events) << workload.name;
        EXPECT_FALSE(events.empty()) << workload.name;
    }
}

TEST(SoloPeLoop, FaultInjectedRunMatchesStepping)
{
    // A fault injector keeps run() off the solo loop: it rolls the
    // stuck-status verdicts (here of the result channel to the write
    // port) every cycle, so the mispredictions and the final store
    // must land on the same cycles as when stepping, untraced and
    // traced.
    const Workload workload = makeGcd(WorkloadSizes::small());
    const PeConfig uarch{allShapes()[7], true, false, true};
    const FaultPlan plan = FaultPlan::parse(
        "seed=42;mispredict:pe0@p0.05;stuckempty:ch3@p0.5");
    for (const bool traced : {false, true}) {
        auto injected = [&](bool stepping) {
            FaultInjector injector(plan);
            CycleFabric fabric(workload.config, workload.program, uarch,
                               &injector);
            workload.preload(fabric.memory());
            RecordingSink sink;
            if (traced)
                fabric.setTraceSink(&sink, TraceLevel::Events);
            const DrivenRun run = drive(fabric, stepping);
            return std::tuple{run, sink.events,
                              injector.stats().totalFired()};
        };
        const auto [run, events, fired] = injected(false);
        const auto [oracle, oracle_events, oracle_fired] = injected(true);
        ASSERT_EQ(run, oracle) << "traced " << traced;
        ASSERT_EQ(events, oracle_events) << "traced " << traced;
        EXPECT_EQ(fired, oracle_fired);
        EXPECT_GT(run.obs.counters.at(workload.workerPe).faultsInjected,
                  0u);
        EXPECT_EQ(events.empty(), !traced);
    }
}

TEST(SoloPeLoop, HangsClassifiedAsByStepping)
{
    ArchParams params;
    // PE 0 counts to 200 on its own, then waits for a token PE 1 never
    // sends: the solo loop runs the count, quiescence ends the run.
    // The last step into the wait is a plain mov, so on deep pipes the
    // cycle it retires is the PE's first idle one (a park candidate).
    const std::string counter =
        "when %p == XXXXXX00: add %r0, %r0, #1; set %p = ZZZZZZ01;\n"
        "when %p == XXXXXX01: uge %p2, %r0, #200; set %p = ZZZZZZ10;\n"
        "when %p == XXXXX010: nop; set %p = ZZZZZZ00;\n"
        "when %p == XXXXX110: mov %r2, %r0; set %p = ZZZZZZ11;\n"
        "when %p == XXXXX111 with %i0.0: halt;\n";
    const Program starved = assemble(
        ".pe 0\n" + counter + ".pe 1\nwhen %p == XXXXXXX1: mov %o0.0, #1;\n",
        params);
    FabricBuilder builder(params, 2);
    builder.connect(1, 0, 0, 0);
    const FabricConfig two_pes = builder.build();
    // The same PE alone, its input unbound: without sleep it stays
    // awake and leaves the solo loop on its first cycle without
    // activity instead.
    const Program alone = assemble(counter, params);
    const FabricConfig one_pe = FabricBuilder(params, 1).build();
    // Spins forever without a queue event: a livelock at the limit.
    const Program spinner = assemble(
        "when %p == XXXXXXX0: add %r0, %r0, #1; set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: add %r0, %r0, #1; set %p = ZZZZZZZ0;\n",
        params);

    for (const PeConfig &uarch : allConfigs()) {
        // Windows down to 0 pin the watchdog's exact boundary cycle.
        for (const Cycle window : {Cycle{0}, Cycle{1}, Cycle{7}, Cycle{500}}) {
            for (const bool sleep : {true, false}) {
                for (const auto &[config, program] :
                     {std::pair{&two_pes, &starved},
                      std::pair{&one_pe, &alone}}) {
                    CycleFabric fast(*config, *program, uarch);
                    CycleFabric slow(*config, *program, uarch);
                    fast.setIdleSleepEnabled(sleep);
                    slow.setIdleSleepEnabled(sleep);
                    const FabricRunOptions options =
                        runBudget(100'000, window);
                    const DrivenRun run = drive(fast, false, options);
                    ASSERT_EQ(run, drive(slow, true, options))
                        << uarch.name() << " window " << window
                        << " sleep " << sleep << " PEs "
                        << config->numPes;
                    EXPECT_NE(run.obs.status, RunStatus::Halted)
                        << uarch.name() << " window " << window;
                }
            }
        }
        for (const Cycle limit : {Cycle{100}, Cycle{4099}}) {
            CycleFabric fast(one_pe, spinner, uarch);
            CycleFabric slow(one_pe, spinner, uarch);
            const FabricRunOptions options = runBudget(limit, 50);
            const DrivenRun run = drive(fast, false, options);
            ASSERT_EQ(run, drive(slow, true, options)) << uarch.name();
            EXPECT_EQ(run.obs.status, RunStatus::Livelock) << uarch.name();
            EXPECT_EQ(run.obs.cycles, limit) << uarch.name();
        }
    }
}

TEST(SoloPeLoop, CycleLimitMidLoopMatchesStepping)
{
    // Budgets that land inside gcd's solo stretch and inside bst's
    // memory round trips (bst leaves the loop on every request) must
    // end at exactly maxCycles, classified as by stepping — also with
    // an unfired stop token cutting the loop at every poll.
    WorkloadSizes sizes = WorkloadSizes::small();
    sizes.gcdA = 100'000;
    const std::vector<PeConfig> uarchs = {
        {allShapes()[7], false, false, false}, // T|D|X1|X2
        {allShapes()[0], false, true, false},  // TDX +Q
    };
    StopSource never;
    for (const Workload &workload : {makeGcd(sizes), makeBst(sizes)}) {
        for (const PeConfig &uarch : uarchs) {
            for (const Cycle limit : {Cycle{1}, Cycle{2}, Cycle{63},
                                      Cycle{500}, Cycle{4097},
                                      Cycle{10'007}}) {
                for (const Cycle window : {Cycle{50}, Cycle{100'000}}) {
                    FabricRunOptions options = runBudget(limit, window);
                    const DrivenRun oracle =
                        driveWorkload(workload, uarch, true, options);
                    ASSERT_EQ(driveWorkload(workload, uarch, false, options),
                              oracle)
                        << workload.name << " / " << uarch.name()
                        << " limit " << limit << " window " << window;
                    options.stop = never.token();
                    options.stopCheckInterval = 100;
                    ASSERT_EQ(driveWorkload(workload, uarch, false, options),
                              oracle)
                        << workload.name << " / " << uarch.name()
                        << " limit " << limit << " polled";
                    if (oracle.obs.status != RunStatus::Halted) {
                        EXPECT_EQ(oracle.obs.cycles, limit);
                    }
                }
            }
        }
    }
}

TEST(SoloPeLoop, CancelledGcdStopsAtAPoll)
{
    // An endless gcd (b = 1 takes a steps) on the deepest pipeline: a
    // wall-clock deadline fires mid-run, and run() must return at the
    // first poll at or after it — a multiple of stopCheckInterval from
    // the start — in the state stepping reaches in as many cycles.
    WorkloadSizes sizes = WorkloadSizes::small();
    sizes.gcdA = 0xffffffffu;
    sizes.gcdB = 1;
    const Workload workload = makeGcd(sizes);
    const PeConfig uarch{allShapes()[7], false, false, false};

    CycleFabric fabric(workload.config, workload.program, uarch);
    workload.preload(fabric.memory());
    StopSource source;
    source.setDeadline(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(20));
    FabricRunOptions options;
    options.stop = source.token();
    options.stopCheckInterval = 1000;
    ASSERT_EQ(fabric.run(options), RunStatus::Cancelled);
    const Cycle stopped = fabric.now();
    EXPECT_GT(stopped, 0u);
    EXPECT_EQ(stopped % options.stopCheckInterval, 0u);

    CycleFabric stepped(workload.config, workload.program, uarch);
    workload.preload(stepped.memory());
    runByStepping(stepped, stopped);
    EXPECT_EQ(observe(fabric, fabric.hangReport()),
              observe(stepped, fabric.hangReport()));
    EXPECT_EQ(fabric.stepStats(), stepped.stepStats());
}

TEST(SoloPeLoop, CancelledAndResumedRunMatchesStepping)
{
    // Stop at a budget mid-run, cancel there with a fired token (the
    // first poll is immediate, so no cycle runs), then resume to the
    // end: the result is the uninterrupted stepping run's.
    const PeConfig uarch{allShapes()[7], true, true, false};
    for (const Workload &workload : {makeGcd(WorkloadSizes::small()),
                                     makeBst(WorkloadSizes::small())}) {
        CycleFabric fabric(workload.config, workload.program, uarch);
        workload.preload(fabric.memory());
        ASSERT_EQ(fabric.run(runBudget(777, 100'000)), RunStatus::StepLimit)
            << workload.name;
        EXPECT_EQ(fabric.now(), 777u);
        StopSource source;
        source.requestStop();
        FabricRunOptions cancel;
        cancel.stop = source.token();
        ASSERT_EQ(fabric.run(cancel), RunStatus::Cancelled) << workload.name;
        EXPECT_EQ(fabric.now(), 777u);
        ASSERT_EQ(fabric.run(), RunStatus::Halted) << workload.name;

        const DrivenRun oracle = driveWorkload(workload, uarch, true);
        EXPECT_EQ(observe(fabric, fabric.hangReport()), oracle.obs)
            << workload.name;
        EXPECT_EQ(fabric.stepStats(), oracle.steps) << workload.name;
    }
}

} // namespace
} // namespace tia
