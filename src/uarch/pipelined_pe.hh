/**
 * @file
 * Cycle-accurate pipelined triggered PE (paper Sections 4 and 5).
 *
 * One class models all eight stage partitions (TDX ... T|D|X1|X2) with
 * the two hazard mitigations independently togglable:
 *
 *  - Without +P, an in-flight datapath predicate write makes dependent
 *    triggers unresolvable; the front end stalls (predicate hazard)
 *    whenever the highest-priority possibly-eligible trigger depends on
 *    a pending predicate bit.
 *  - With +P, a two-bit-counter prediction resolves the bit at issue;
 *    nested speculation is not supported, and instructions with
 *    pre-retirement side effects (dequeues, scratchpad stores, halt)
 *    are forbidden while speculation is unconfirmed. Misprediction
 *    flushes the younger in-flight instructions and restores the saved
 *    predicate state.
 *  - Without +Q, queues with in-flight dequeues are conservatively
 *    treated as empty and queues with in-flight enqueues as full (the
 *    RAW-style discipline cited in Section 5.3). With +Q, the scheduler
 *    subtracts in-flight dequeues from input occupancy (peeking at the
 *    "head and neck" for tags) and adds in-flight enqueues to output
 *    occupancy.
 *
 * Phase timing: trigger work (scheduling, trigger-time predicate
 * update, prediction) happens in the segment containing T; operand
 * capture with full forwarding plus dequeues happen in the segment
 * containing D (dequeues were "moved to decode" per Section 5.4);
 * results, enqueues and datapath predicate writes commit at the end of
 * the segment containing X (or X2). Back-to-back register dependences
 * therefore cost one bubble exactly in the split-ALU (X1|X2) shapes.
 *
 * Shape dispatch: step() is compiled once per pipeline shape. The
 * kernel is a template over the PipelineShape, so the decode and
 * writeback segments, the register-hazard window and the fused-stage
 * branches of issue are compile-time constants, and the hot helpers
 * (status words, operand reads, decode, writeback, hazard check) are
 * forced inline into each kernel. The constructor picks one of the
 * eight instantiations and step() calls through that member-function
 * pointer, so the shape costs one indirect call per cycle instead of
 * a branch at every segment test.
 */

#ifndef TIA_UARCH_PIPELINED_PE_HH
#define TIA_UARCH_PIPELINED_PE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/program.hh"
#include "obs/trace.hh"
#include "sim/queue.hh"
#include "sim/scheduler.hh"
#include "uarch/config.hh"
#include "uarch/counters.hh"
#include "uarch/predictor.hh"

namespace tia {

class FaultInjector;

/**
 * Why a PE cannot fire this cycle, from the scheduler's own queue
 * view: the input/output ports its predicate-eligible instructions
 * are blocked on. Feeds the wait-for graph of sim/hang_diagnosis.hh.
 */
struct PeWaitInfo
{
    /** Some instruction's predicate condition matches current state. */
    bool predicateEligible = false;
    /** Some instruction could fire right now (not actually blocked). */
    bool canFire = false;
    /** Input ports whose queues are empty or hold the wrong tag. */
    std::vector<unsigned> waitInputs;
    /** Output ports whose queues have no space. */
    std::vector<unsigned> waitOutputs;

    bool blocked() const
    {
        return predicateEligible && !canFire &&
               (!waitInputs.empty() || !waitOutputs.empty());
    }
};

/** A cycle-accurate triggered PE with a configurable pipeline. */
class PipelinedPe
{
  public:
    PipelinedPe(const ArchParams &params, const PeConfig &config,
                std::vector<Instruction> program);

    void bindInput(unsigned port, TaggedQueue *queue);
    void bindOutput(unsigned port, TaggedQueue *queue);
    void setRegs(const std::vector<Word> &values);

    void setPreds(std::uint64_t preds) { preds_ = preds; }

    /** Install a fault injector; @p id names this PE in the plan. */
    void
    setFaultInjector(FaultInjector *injector, unsigned id)
    {
        faultInjector_ = injector;
        peId_ = id;
    }

    /**
     * Install (or clear, with nullptr) a trace sink; @p id names this
     * PE in the event stream. Every counter increment then emits one
     * event at the incrementing statement (see obs/trace.hh); with no
     * sink the emission sites cost one null test each.
     */
    void
    setTraceSink(TraceSink *sink, TraceLevel level, unsigned id)
    {
        trace_ = sink;
        traceLevel_ = level;
        traceId_ = id;
    }

    /**
     * Route trigger resolution through the virtual QueueStatusView
     * reference scheduler instead of the trigger table. The
     * two are bit-identical (tests/test_hot_path.cc); the runtime
     * switch lets the observability tests cross-check trace-derived
     * counters against both implementations end to end.
     */
    void
    setUseReferenceScheduler(bool enabled)
    {
        referenceScheduler_ = enabled;
    }

    /** Diagnose what (if anything) this PE is blocked on. */
    PeWaitInfo queueWaits() const;

    /** Advance one clock cycle. No-op once halted. */
    void step() { (this->*step_)(); }

    /**
     * True when stepping this PE again with unchanged queue status
     * would provably repeat a do-nothing cycle: nothing in flight, no
     * unresolved speculation or pending predicate write, and the last
     * step's trigger resolution came up empty. The owning fabric may
     * then park the PE and re-step it only after a watched channel
     * reports activity (see uarch/cycle_fabric.hh).
     */
    bool
    canSleep() const
    {
        return !halted_ && idleCycle_ && !busy() && !specActive() &&
               pendingPredMask_ == 0 && !pendingPredCommit_.has_value();
    }

    /**
     * Account @p n skipped cycles at once. Each skipped cycle is
     * exactly what step() would have done while asleep: one cycle
     * counted, attributed to "no trigger eligible".
     */
    void
    skipIdleCycles(std::uint64_t n)
    {
        if (trace_) [[unlikely]]
            traceSkippedCycles(n);
        counters_.cycles += n;
        counters_.noTrigger += n;
    }

    /** Input queues referenced by any trigger (bit per port). */
    std::uint32_t watchedInputs() const { return usedInputs_; }

    /** Output queues referenced by any trigger (bit per port). */
    std::uint32_t watchedOutputs() const { return usedOutputs_; }

    /** True once a halt instruction has retired. */
    bool halted() const { return halted_; }

    /** True if any instruction is in flight (for quiescence checks). */
    bool busy() const { return occupied_ != 0; }

    /** Number of issued-but-unretired instructions in the pipeline. */
    unsigned inFlight() const;

    const PerfCounters &counters() const { return counters_; }
    const PeConfig &config() const { return config_; }

    std::uint64_t preds() const { return preds_; }
    const std::vector<Word> &regs() const { return regs_; }
    const std::vector<Word> &scratchpad() const { return scratchpad_; }

  private:
    friend class CycleQueueView;

    /** One instruction in flight. */
    struct InFlight
    {
        const Instruction *inst = nullptr;
        unsigned index = 0;       ///< Instruction-store index.
        std::uint64_t id = 0;     ///< Issue order id.
        /**
         * Number of unconfirmed speculation contexts this instruction
         * was issued under (0 = non-speculative). With nested
         * speculation off this is at most 1.
         */
        unsigned specLevel = 0;
        bool isPredictor = false; ///< Carries one of the predictions.
        bool predictedValue = false;
        bool faultFlipped = false; ///< Prediction inverted by injection.
        bool didD = false;        ///< Operand capture / dequeue done.
        std::array<Word, 2> operands = {0, 0};

        bool speculative() const { return specLevel > 0; }
    };

    /** One cycle of a PE with pipeline shape @p Shape (see step()). */
    template <PipelineShape Shape> void stepShape();

    using StepKernel = void (PipelinedPe::*)();

    /** The stepShape instantiation for @p shape. */
    static StepKernel stepKernelFor(const PipelineShape &shape);

    /** Register-dependence stall check for an instruction entering D. */
    template <PipelineShape Shape>
    [[gnu::always_inline]] inline bool
    dataHazardFor(const Instruction &inst, std::uint64_t id) const;

    /**
     * Queue status as the scheduler sees it (Section 5.3): live input
     * occupancy net of in-flight dequeues, cycle-start output occupancy
     * gross of in-flight and just-performed enqueues. Without +Q the
     * view degrades to the conservative full/empty discipline. These
     * are the single source of truth for both the per-cycle status
     * words and the diagnostic QueueStatusView. Defined inline below
     * the class — computeStatusWords runs them once per watched queue
     * per cycle.
     */
    unsigned schedInputOccupancy(unsigned q) const;
    std::optional<Tag> schedInputHeadTag(unsigned q) const;
    bool schedOutputHasSpace(unsigned q) const;

    /** Pack this cycle's queue status for the trigger table. */
    [[gnu::always_inline]] inline QueueStatusWords
    computeStatusWords() const;

    /**
     * This cycle's trigger resolution: the trigger table, or the
     * reference scheduler when setUseReferenceScheduler() is on.
     */
    ScheduleResult resolveTriggers();

    /** Perform operand capture and dequeues (D-phase work). */
    [[gnu::always_inline]] inline void doDecode(InFlight &entry);

    /** Compute, commit and resolve speculation (X/writeback work). */
    [[gnu::always_inline]] inline void doWriteback(InFlight &entry);

    /** Issue logic for this cycle (T-phase work + attribution). */
    template <PipelineShape Shape> void issue();

    /** Flush all speculative in-flight instructions. */
    void flushSpeculative();

    [[gnu::always_inline]] inline Word readSource(const Source &src,
                                                  Word imm) const;

    /**
     * Emit one trace event stamped with the cycle step() is executing
     * (counters_.cycles was already incremented at step entry). Callers
     * guard with `if (trace_)` so the disabled path stays one test;
     * the body lives out of line in a cold section so the dozen-plus
     * emission sites do not bloat the hot step loop's code footprint.
     */
    [[gnu::cold, gnu::noinline]] void
    trace(TraceEventKind kind, std::uint8_t arg = 0,
          std::uint16_t index = 0, std::uint64_t value = 0) const;

    [[gnu::cold, gnu::noinline]] void traceBucket(TraceBucket bucket) const;

    /** Retroactive no-trigger settlement for @p n skipped cycles. */
    [[gnu::cold, gnu::noinline]] void
    traceSkippedCycles(std::uint64_t n) const;

    /**
     * Trigger resolution through the virtual QueueStatusView reference
     * scheduler (setUseReferenceScheduler). Out of line and cold so
     * the view construction and virtual scheduler stay off issue()'s
     * fast path and out of its inlining budget.
     */
    [[gnu::cold, gnu::noinline]] ScheduleResult scheduleReference() const;

    /** This PE's shape kernel (stepKernelFor(config_.shape)). */
    const StepKernel step_;

    const ArchParams params_;
    const PeConfig config_;
    std::vector<Instruction> program_;

    /** Triggers compiled to the predicate-indexed candidate table. */
    TriggerTable triggerTable_;
    /** Union of all descriptors' input requirements (wake set). */
    std::uint32_t usedInputs_ = 0;
    /** Union of all descriptors' output requirements (wake set). */
    std::uint32_t usedOutputs_ = 0;

    // Architectural state.
    std::vector<Word> regs_;
    std::vector<Word> scratchpad_;
    std::uint64_t preds_ = 0;
    bool halted_ = false;

    // Pipeline state.
    std::array<std::optional<InFlight>, 4> slots_;
    /**
     * Bit s set iff slots_[s] holds an instruction — kept in lockstep
     * with every emplace/reset so busy()/canSleep()/inFlight() are a
     * single compare instead of a four-optional scan (those run per PE
     * per cycle in the fabric loop), and the step phases visit only
     * occupied segments.
     */
    std::uint8_t occupied_ = 0;
    std::uint64_t nextId_ = 1;
    bool haltIssued_ = false;

    // Hazard accounting.
    std::vector<unsigned> pendingDeq_; ///< Per input queue.
    std::vector<unsigned> pendingEnq_; ///< Per output queue.
    std::vector<unsigned> pendingPredWrites_; ///< Per predicate (no +P).
    /** Bit p set iff pendingPredWrites_[p] > 0 (kept incrementally). */
    std::uint64_t pendingPredMask_ = 0;

    /** Last step's trigger resolution found nothing eligible. */
    bool idleCycle_ = false;

    // Speculation state (+P / +N). Contexts are ordered oldest first;
    // in-order execution guarantees they resolve front to back.
    struct SpecContext
    {
        std::uint64_t id;            ///< Predicting instruction.
        std::uint64_t fallbackPreds; ///< State to restore on mispredict.
    };
    PredicatePredictor predictor_;
    std::vector<SpecContext> specContexts_;

    /** Maximum simultaneous predictions with nested speculation. */
    static constexpr unsigned kMaxNestedSpeculation = 3;

    bool specActive() const { return !specContexts_.empty(); }

    /**
     * A datapath predicate write lands at the end of its writeback
     * cycle, so it must stay invisible to this cycle's trigger
     * resolution; it is buffered here and committed at end of step().
     */
    struct PredCommit
    {
        unsigned index;
        bool value;
    };
    std::optional<PredCommit> pendingPredCommit_;

    /** Misprediction squashes this cycle's issue slot as well. */
    bool squashIssueThisCycle_ = false;

    // Channel bindings.
    std::vector<TaggedQueue *> inputs_;
    std::vector<TaggedQueue *> outputs_;

    // Fault injection (optional, non-owning).
    FaultInjector *faultInjector_ = nullptr;
    unsigned peId_ = 0;

    PerfCounters counters_;

    // Observability (optional, non-owning). Last on purpose: keeps
    // the per-cycle members above — counters_ especially — at their
    // established offsets.
    TraceSink *trace_ = nullptr;
    TraceLevel traceLevel_ = TraceLevel::Events;
    std::uint32_t traceId_ = 0;
    /** Use the virtual reference scheduler instead of the table. */
    bool referenceScheduler_ = false;
};

inline unsigned
PipelinedPe::schedInputOccupancy(unsigned q) const
{
    const TaggedQueue *queue = inputs_[q];
    if (!queue)
        return 0;
    if (queue->faultStuckEmpty())
        return 0;
    const unsigned pending = pendingDeq_[q];
    if (!config_.effectiveQueueStatus) {
        // Conservative (RAW-style): a dequeue that was in flight at
        // the start of this cycle — including one that landed in
        // decode this very cycle — makes the queue look empty.
        const unsigned pending_at_start = pending + queue->popsThisCycle();
        return pending_at_start > 0 ? 0 : queue->size();
    }
    // Effective status: live occupancy net of in-flight dequeues
    // (algebraically identical to cycle-start occupancy minus
    // cycle-start in-flight dequeues).
    const unsigned live = queue->size();
    return live > pending ? live - pending : 0;
}

inline std::optional<Tag>
PipelinedPe::schedInputHeadTag(unsigned q) const
{
    const TaggedQueue *queue = inputs_[q];
    if (!queue)
        return std::nullopt;
    if (queue->faultStuckEmpty())
        return std::nullopt;
    const unsigned depth = config_.effectiveQueueStatus ? pendingDeq_[q] : 0;
    const Token *token = queue->peekPtr(depth);
    if (token == nullptr)
        return std::nullopt;
    return token->tag;
}

inline bool
PipelinedPe::schedOutputHasSpace(unsigned q) const
{
    const TaggedQueue *queue = outputs_[q];
    if (!queue)
        return false;
    if (queue->faultStuckFull())
        return false;
    const unsigned pending = pendingEnq_[q];
    // Occupancy the consumer cannot have drained yet this cycle:
    // cycle-start contents plus pushes performed this cycle.
    const unsigned used = queue->snapshotSize() + queue->pendingPushes();
    if (!config_.effectiveQueueStatus) {
        // Conservative: any enqueue in flight at cycle start —
        // including one that landed this cycle — makes the queue
        // look full.
        const unsigned pending_at_start = pending + queue->pendingPushes();
        return pending_at_start == 0 && used < queue->capacity();
    }
    return used + pending < queue->capacity();
}

} // namespace tia

#endif // TIA_UARCH_PIPELINED_PE_HH
