#include "uarch/pipelined_pe.hh"

#include <bit>

#include "core/logging.hh"
#include "core/opcode.hh"
#include "sim/fault.hh"

namespace tia {

inline QueueStatusWords
PipelinedPe::computeStatusWords() const
{
    // Each queue any trigger cares about is inspected exactly once per
    // cycle; the trigger table then needs only mask compares per
    // candidate instruction.
    QueueStatusWords status;
    for (std::uint32_t rest = usedInputs_; rest != 0; rest &= rest - 1) {
        const unsigned q = static_cast<unsigned>(std::countr_zero(rest));
        if (schedInputOccupancy(q) == 0)
            continue;
        const auto tag = schedInputHeadTag(q);
        panicIf(!tag.has_value(),
                "effectively non-empty queue without a peekable head");
        status.inputReady |= std::uint32_t{1} << q;
        status.headTag[q] = *tag;
    }
    for (std::uint32_t rest = usedOutputs_; rest != 0; rest &= rest - 1) {
        const unsigned q = static_cast<unsigned>(std::countr_zero(rest));
        if (schedOutputHasSpace(q))
            status.outputSpace |= std::uint32_t{1} << q;
    }
    return status;
}

/**
 * Diagnostic adapter exposing the PE's scheduler queue status through
 * the abstract QueueStatusView interface (used by queueWaits and the
 * scheduler-equivalence tests; the issue path uses computeStatusWords).
 */
class CycleQueueView : public QueueStatusView
{
  public:
    explicit CycleQueueView(const PipelinedPe &pe) : pe_(pe) {}

    unsigned
    inputOccupancy(unsigned q) const override
    {
        return pe_.schedInputOccupancy(q);
    }

    std::optional<Tag>
    inputHeadTag(unsigned q) const override
    {
        return pe_.schedInputHeadTag(q);
    }

    bool
    outputHasSpace(unsigned q) const override
    {
        return pe_.schedOutputHasSpace(q);
    }

  private:
    const PipelinedPe &pe_;
};

PipelinedPe::PipelinedPe(const ArchParams &params, const PeConfig &config,
                         std::vector<Instruction> program)
    : step_(stepKernelFor(config.shape)), params_(params), config_(config),
      program_(std::move(program)),
      regs_(params.numRegs, 0), scratchpad_(params.scratchpadWords, 0),
      pendingDeq_(params.numInputQueues, 0),
      pendingEnq_(params.numOutputQueues, 0),
      pendingPredWrites_(params.numPreds, 0), predictor_(params.numPreds),
      inputs_(params.numInputQueues, nullptr),
      outputs_(params.numOutputQueues, nullptr)
{
    fatalIf(program_.size() > params_.numInstructions,
            "program exceeds the PE instruction store");
    fatalIf(config_.nestedSpeculation && !config_.predictPredicates,
            "nested speculation (+N) requires predicate prediction (+P)");
    // validate() bounds every register, queue and predicate index an
    // instruction can name, so the per-cycle paths below index the
    // per-PE arrays without range checks.
    for (const auto &inst : program_)
        inst.validate(params_);
    triggerTable_ = TriggerTable(program_);
    for (const auto &desc : triggerTable_.descs()) {
        usedInputs_ |= desc.inputNeed;
        usedOutputs_ |= desc.outputNeed;
    }
}

void
PipelinedPe::bindInput(unsigned port, TaggedQueue *queue)
{
    inputs_.at(port) = queue;
}

void
PipelinedPe::bindOutput(unsigned port, TaggedQueue *queue)
{
    outputs_.at(port) = queue;
}

void
PipelinedPe::trace(TraceEventKind kind, std::uint8_t arg,
                   std::uint16_t index, std::uint64_t value) const
{
    trace_->record(
        {counters_.cycles - 1, traceId_, kind, arg, index, value});
}

void
PipelinedPe::traceBucket(TraceBucket bucket) const
{
    trace(TraceEventKind::Attribution, static_cast<std::uint8_t>(bucket));
}

ScheduleResult
PipelinedPe::scheduleReference() const
{
    // Equivalence-pinned slow path (see setUseReferenceScheduler).
    return schedule(program_, preds_, pendingPredMask_,
                    CycleQueueView(*this));
}

void
PipelinedPe::traceSkippedCycles(std::uint64_t n) const
{
    // Retroactive settlement: the first skipped cycle is the one after
    // the last counted cycle. Still in per-PE cycle order (see the
    // ordering note in obs/trace.hh).
    for (std::uint64_t i = 0; i < n; ++i) {
        trace_->record({counters_.cycles + i, traceId_,
                        TraceEventKind::Attribution,
                        static_cast<std::uint8_t>(TraceBucket::NoTrigger),
                        0, 0});
    }
}

void
PipelinedPe::setRegs(const std::vector<Word> &values)
{
    fatalIf(values.size() > regs_.size(),
            "initial register set larger than the register file");
    for (std::size_t i = 0; i < values.size(); ++i)
        regs_[i] = values[i];
}

unsigned
PipelinedPe::inFlight() const
{
    return static_cast<unsigned>(std::popcount(occupied_));
}

PeWaitInfo
PipelinedPe::queueWaits() const
{
    PeWaitInfo info;
    if (halted_)
        return info;

    CycleQueueView view(*this);
    // Dedup with seen-bitmasks (queue indices are below 32 by
    // construction) but append in first-encounter order so the report
    // — and the wait-for graph built from it — is stable.
    std::uint32_t seen_inputs = 0;
    std::uint32_t seen_outputs = 0;
    auto note_input = [&](unsigned q) {
        const std::uint32_t bit = std::uint32_t{1} << q;
        if ((seen_inputs & bit) == 0) {
            seen_inputs |= bit;
            info.waitInputs.push_back(q);
        }
    };

    for (const auto &inst : program_) {
        if (!inst.trigger.valid)
            continue;
        // Only instructions whose predicate condition currently holds
        // can be *waiting* on queues; the rest are simply not eligible.
        if ((inst.trigger.predOn & ~preds_) != 0 ||
            (inst.trigger.predOff & preds_) != 0) {
            continue;
        }
        info.predicateEligible = true;
        if (queueConditionsHold(inst, view)) {
            info.canFire = true;
            continue;
        }
        // Collect every failing queue condition: empty (or wrong-tag)
        // inputs and full outputs.
        for (const auto &check : inst.trigger.queueChecks) {
            const auto tag = view.inputHeadTag(check.queue);
            if (view.inputOccupancy(check.queue) == 0 || !tag ||
                (*tag == check.tag) == check.negate) {
                note_input(check.queue);
            }
        }
        for (const auto &src : inst.srcs) {
            if (src.type == SrcType::InputQueue &&
                view.inputOccupancy(src.index) == 0) {
                note_input(src.index);
            }
        }
        for (auto q : inst.dequeues) {
            if (view.inputOccupancy(q) == 0)
                note_input(q);
        }
        if (inst.dst.type == DstType::OutputQueue &&
            !view.outputHasSpace(inst.dst.index)) {
            const std::uint32_t bit = std::uint32_t{1} << inst.dst.index;
            if ((seen_outputs & bit) == 0) {
                seen_outputs |= bit;
                info.waitOutputs.push_back(inst.dst.index);
            }
        }
    }
    return info;
}

template <PipelineShape Shape>
inline bool
PipelinedPe::dataHazardFor(const Instruction &inst, std::uint64_t id) const
{
    // An older producer at segment s_p writes back at now + (last -
    // s_p); the consumer's first execute phase runs at now + (segX1 -
    // segD). The operand must be registered strictly before that
    // cycle, so a hazard exists iff s_p <= last - (segX1 - segD).
    // With a unified X this threshold excludes every older in-flight
    // position, making split-ALU shapes the only ones with register
    // hazards (one bubble each).
    constexpr unsigned threshold =
        Shape.segX2() - (Shape.segX1() - Shape.segD());
    for (unsigned s = 0; s <= threshold; ++s) {
        const auto &slot = slots_[s];
        if (!slot.has_value() || slot->id >= id)
            continue;
        const Instruction &producer = *slot->inst;
        if (producer.dst.type != DstType::Reg)
            continue;
        for (const auto &src : inst.srcs) {
            if (src.type == SrcType::Reg &&
                src.index == producer.dst.index) {
                return true;
            }
        }
    }
    return false;
}

inline Word
PipelinedPe::readSource(const Source &src, Word imm) const
{
    switch (src.type) {
      case SrcType::None:
        return 0;
      case SrcType::Reg:
        return regs_[src.index];
      case SrcType::InputQueue: {
        const TaggedQueue *queue = inputs_[src.index];
        panicIf(queue == nullptr, "read of unbound input queue");
        const Token *token = queue->peekPtr(0);
        panicIf(token == nullptr,
                "read of empty input queue — a hazard check failed");
        return token->data;
      }
      case SrcType::Immediate:
        return imm;
    }
    panic("readSource: bad source type");
}

inline void
PipelinedPe::doDecode(InFlight &entry)
{
    const Instruction &inst = *entry.inst;
    entry.operands[0] = readSource(inst.srcs[0], inst.imm);
    entry.operands[1] = readSource(inst.srcs[1], inst.imm);
    for (auto q : inst.dequeues) {
        TaggedQueue *queue = inputs_[q];
        panicIf(queue == nullptr, "dequeue of unbound input queue");
        queue->pop();
        panicIf(pendingDeq_[q] == 0, "dequeue accounting underflow");
        --pendingDeq_[q];
        ++counters_.dequeues;
    }
    entry.didD = true;
}

void
PipelinedPe::flushSpeculative()
{
    for (unsigned s = 0; s < slots_.size(); ++s) {
        auto &slot = slots_[s];
        if (!slot.has_value() || !slot->speculative())
            continue;
        const Instruction &inst = *slot->inst;
        panicIf(inst.hasPreRetirementSideEffect(),
                "a side-effecting instruction was issued speculatively");
        if (inst.enqueues()) {
            panicIf(pendingEnq_[inst.dst.index] == 0,
                    "enqueue accounting underflow on flush");
            --pendingEnq_[inst.dst.index];
        }
        ++counters_.quashed;
        if (trace_) [[unlikely]]
            trace(TraceEventKind::Quash, 0,
                  static_cast<std::uint16_t>(slot->index), slot->id);
        slot.reset();
        occupied_ &= static_cast<std::uint8_t>(~(1u << s));
    }
}

inline void
PipelinedPe::doWriteback(InFlight &entry)
{
    const Instruction &inst = *entry.inst;
    panicIf(!entry.didD, "writeback before decode");
    panicIf(entry.speculative(),
            "a speculative instruction reached writeback unresolved");

    const Word a = entry.operands[0];
    const Word b = entry.operands[1];
    const OpInfo &info = opInfo(inst.op);

    Word result = 0;
    if (info.isHalt) {
        halted_ = true;
        if (trace_) [[unlikely]]
            trace(TraceEventKind::Halt);
    } else if (info.readsScratchpad) {
        const Word address = a + b;
        fatalIf(address >= scratchpad_.size(), "scratchpad load at ",
                address, " out of bounds");
        result = scratchpad_[address];
    } else if (info.writesScratchpad) {
        fatalIf(a >= scratchpad_.size(), "scratchpad store at ", a,
                " out of bounds");
        scratchpad_[a] = b;
    } else {
        result = evalAlu(inst.op, a, b);
    }

    switch (inst.dst.type) {
      case DstType::None:
        break;
      case DstType::Reg:
        regs_[inst.dst.index] = result;
        break;
      case DstType::OutputQueue: {
        TaggedQueue *queue = outputs_[inst.dst.index];
        panicIf(queue == nullptr, "enqueue to unbound output queue");
        queue->push({result, inst.outTag});
        panicIf(pendingEnq_[inst.dst.index] == 0,
                "enqueue accounting underflow");
        --pendingEnq_[inst.dst.index];
        ++counters_.enqueues;
        break;
      }
      case DstType::Predicate: {
        const bool actual = (result & 1u) != 0;
        const std::uint64_t bit = std::uint64_t{1} << inst.dst.index;
        ++counters_.predicateWrites;
        if (entry.isPredictor) {
            panicIf(specContexts_.empty() ||
                        specContexts_.front().id != entry.id,
                    "predictor retired outside its speculation window");
            predictor_.train(inst.dst.index, actual);
            if (trace_) [[unlikely]] {
                const bool mispredicted = actual != entry.predictedValue;
                trace(TraceEventKind::Resolve,
                      static_cast<std::uint8_t>(inst.dst.index), 0,
                      (actual ? 1u : 0u) | (mispredicted ? 2u : 0u) |
                          (mispredicted && entry.faultFlipped ? 4u : 0u));
            }
            if (actual == entry.predictedValue) {
                // Confirmed: this (oldest) context retires; everything
                // issued under it sheds one speculation level.
                specContexts_.erase(specContexts_.begin());
                for (auto &slot : slots_) {
                    if (slot.has_value() && slot->specLevel > 0)
                        --slot->specLevel;
                }
            } else {
                ++counters_.mispredictions;
                if (entry.faultFlipped)
                    ++counters_.faultRecoveries;
                // Everything younger — including any nested
                // predictions and their contexts — is wrong-path.
                preds_ = specContexts_.front().fallbackPreds;
                preds_ = (preds_ & ~bit) | (actual ? bit : 0);
                flushSpeculative();
                specContexts_.clear();
                // The squash also claims this cycle's issue slot: the
                // restored predicate state only steers the front end
                // from the next cycle on.
                squashIssueThisCycle_ = true;
            }
        } else {
            panicIf(config_.predictPredicates &&
                        config_.shape.depth() > 1,
                    "unpredicted predicate write under +P");
            // Commits at the end of this cycle; the scheduler keeps
            // seeing the bit as pending until then.
            panicIf(pendingPredCommit_.has_value(),
                    "two predicate writebacks in one cycle");
            pendingPredCommit_ = PredCommit{inst.dst.index, actual};
        }
        break;
      }
    }
    ++counters_.retired;
    if (trace_) [[unlikely]] {
        const std::uint8_t flags = inst.dst.type == DstType::Predicate
                                       ? kRetireWrotePredicate
                                       : 0;
        trace(TraceEventKind::Retire, flags,
              static_cast<std::uint16_t>(entry.index), entry.id);
    }
}

[[gnu::always_inline]] inline ScheduleResult
PipelinedPe::resolveTriggers()
{
    if (referenceScheduler_) [[unlikely]]
        return scheduleReference();
    // Status words are recomputed on the stack every cycle: for the
    // handful of queues a PE watches, that beats maintaining a
    // per-queue memo.
    return triggerTable_.resolve(preds_, pendingPredMask_,
                                 computeStatusWords());
}

template <PipelineShape Shape>
[[gnu::always_inline]] inline void
PipelinedPe::issue()
{
    if (squashIssueThisCycle_) {
        ++counters_.quashed;
        if (trace_) [[unlikely]]
            trace(TraceEventKind::Quash, kQuashIssueSlot);
        return;
    }
    if (haltIssued_) {
        // Scheduler is off while the halt drains.
        ++counters_.noTrigger;
        if (trace_) [[unlikely]]
            traceBucket(TraceBucket::NoTrigger);
        return;
    }
    if ((occupied_ & 1u) != 0) {
        // The only stall source in these pipelines is a register
        // dependence holding an instruction in its decode segment.
        ++counters_.dataHazard;
        if (trace_) [[unlikely]]
            traceBucket(TraceBucket::DataHazard);
        return;
    }

    const ScheduleResult result = resolveTriggers();
    if (result.outcome == ScheduleOutcome::BlockedOnPredicate) {
        ++counters_.predicateHazard;
        if (trace_) [[unlikely]]
            traceBucket(TraceBucket::PredicateHazard);
        return;
    }
    if (result.outcome == ScheduleOutcome::None) {
        ++counters_.noTrigger;
        idleCycle_ = true;
        if (trace_) [[unlikely]]
            traceBucket(TraceBucket::NoTrigger);
        return;
    }

    const Instruction &inst = program_[result.index];
    if (specActive()) {
        // During unconfirmed speculation, pre-retirement side effects
        // are always barred; a further prediction is barred unless
        // nested speculation (+N) is on and a context slot remains.
        const bool nested_ok =
            config_.nestedSpeculation &&
            specContexts_.size() < kMaxNestedSpeculation;
        if (inst.hasPreRetirementSideEffect() || opInfo(inst.op).isHalt ||
            (inst.writesPredicate() && !nested_ok)) {
            ++counters_.forbidden;
            if (trace_) [[unlikely]]
                traceBucket(TraceBucket::Forbidden);
            return;
        }
    }

    // Construct in place — slot 0 was checked empty above.
    InFlight &entry = slots_[0].emplace();
    occupied_ |= 1u;
    entry.inst = &inst;
    entry.index = result.index;
    entry.id = nextId_++;
    entry.specLevel = static_cast<unsigned>(specContexts_.size());
    if (trace_) [[unlikely]]
        trace(TraceEventKind::Issue,
              static_cast<std::uint8_t>(entry.specLevel),
              static_cast<std::uint16_t>(entry.index), entry.id);

    // Trigger-time predicate update applies at issue.
    preds_ = (preds_ | inst.predSet) & ~inst.predClear;

    if (inst.writesPredicate()) {
        if (Shape.depth() > 1 && config_.predictPredicates) {
            entry.isPredictor = true;
            bool predicted = predictor_.predict(inst.dst.index);
            if (faultInjector_ && faultInjector_->flipPrediction(peId_)) {
                predicted = !predicted;
                entry.faultFlipped = true;
                ++counters_.faultsInjected;
            }
            entry.predictedValue = predicted;
            specContexts_.push_back({entry.id, preds_});
            const std::uint64_t bit = std::uint64_t{1} << inst.dst.index;
            preds_ = (preds_ & ~bit) | (predicted ? bit : 0);
            ++counters_.predictions;
            if (trace_) [[unlikely]]
                trace(TraceEventKind::Predict,
                      static_cast<std::uint8_t>(inst.dst.index), 0,
                      (predicted ? 1u : 0u) |
                          (entry.faultFlipped ? 2u : 0u));
        } else {
            ++pendingPredWrites_[inst.dst.index];
            pendingPredMask_ |= std::uint64_t{1} << inst.dst.index;
        }
    }

    for (auto q : inst.dequeues)
        ++pendingDeq_[q];
    if (inst.enqueues())
        ++pendingEnq_[inst.dst.index];
    if (opInfo(inst.op).isHalt)
        haltIssued_ = true;

    // Segment-0 work happens in the issue cycle.
    if constexpr (Shape.segD() == 0) {
        if (!dataHazardFor<Shape>(inst, entry.id))
            doDecode(entry);
        // else: stall in slot 0; retried next cycle.
    }
    if constexpr (Shape.segX2() == 0)
        doWriteback(entry);
}

PipelinedPe::StepKernel
PipelinedPe::stepKernelFor(const PipelineShape &shape)
{
    using S = PipelineShape;
    // Indexed by splitTD, splitDX, splitX as a 3-bit number.
    static constexpr StepKernel kKernels[] = {
        &PipelinedPe::stepShape<S{false, false, false}>,
        &PipelinedPe::stepShape<S{false, false, true}>,
        &PipelinedPe::stepShape<S{false, true, false}>,
        &PipelinedPe::stepShape<S{false, true, true}>,
        &PipelinedPe::stepShape<S{true, false, false}>,
        &PipelinedPe::stepShape<S{true, false, true}>,
        &PipelinedPe::stepShape<S{true, true, false}>,
        &PipelinedPe::stepShape<S{true, true, true}>,
    };
    return kKernels[(shape.splitTD ? 4 : 0) + (shape.splitDX ? 2 : 0) +
                    (shape.splitX ? 1 : 0)];
}

template <PipelineShape Shape>
void
PipelinedPe::stepShape()
{
    if (halted_)
        return;
    ++counters_.cycles;
    idleCycle_ = false;

    // (a) Work pass, oldest first so forwarding sees this cycle's
    // writebacks. Only the decode and writeback segments ever have
    // per-cycle work, so visit exactly those two (one, when fused)
    // instead of scanning every slot.
    constexpr unsigned d = Shape.segD();
    constexpr unsigned last = Shape.segX2();
    if ((occupied_ >> last) & 1u) {
        InFlight &slot = *slots_[last];
        if constexpr (last == d) {
            if (!slot.didD && !dataHazardFor<Shape>(*slot.inst, slot.id))
                doDecode(slot);
        }
        if (slot.didD)
            doWriteback(slot);
    }
    if constexpr (d != last) {
        if ((occupied_ >> d) & 1u) {
            InFlight &slot = *slots_[d];
            if (!slot.didD && !dataHazardFor<Shape>(*slot.inst, slot.id))
                doDecode(slot);
        }
    }

    // (b) Trigger phase: issue (or attribute the lost cycle).
    issue<Shape>();

    // Stage occupancy after issue and before advance: what each
    // pipeline segment held while this cycle's work executed.
    if (trace_ && traceLevel_ == TraceLevel::Cycles) [[unlikely]] {
        for (unsigned s = 0; s <= last; ++s) {
            if (slots_[s].has_value())
                trace(TraceEventKind::StageOccupancy,
                      static_cast<std::uint8_t>(s),
                      static_cast<std::uint16_t>(slots_[s]->index),
                      slots_[s]->id);
        }
    }

    // (c) Advance. Retire writeback-complete instructions, then move
    // everything whose segment work is done and whose next slot is
    // free — walking only the occupied slots, oldest first.
    const std::uint8_t last_bit = static_cast<std::uint8_t>(1u << last);
    if ((occupied_ & last_bit) != 0 && slots_[last]->didD) {
        slots_[last].reset();
        occupied_ &= static_cast<std::uint8_t>(~last_bit);
    }
    for (std::uint8_t rest =
             occupied_ & static_cast<std::uint8_t>(last_bit - 1u);
         rest != 0;) {
        const unsigned s = static_cast<unsigned>(std::bit_width(rest)) - 1;
        const std::uint8_t bit = static_cast<std::uint8_t>(1u << s);
        rest &= static_cast<std::uint8_t>(~bit);
        auto &slot = slots_[s];
        const bool work_done = s != d || slot->didD;
        if (work_done && (occupied_ & (bit << 1)) == 0) {
            slots_[s + 1] = *slot;
            slot.reset();
            occupied_ = static_cast<std::uint8_t>(
                (occupied_ | (bit << 1)) & ~bit);
        }
    }

    // (d) Clock edge: commit this cycle's datapath predicate write.
    if (pendingPredCommit_.has_value()) {
        const std::uint64_t bit = std::uint64_t{1}
                                  << pendingPredCommit_->index;
        preds_ = (preds_ & ~bit) | (pendingPredCommit_->value ? bit : 0);
        panicIf(pendingPredWrites_[pendingPredCommit_->index] == 0,
                "predicate-write accounting underflow");
        if (--pendingPredWrites_[pendingPredCommit_->index] == 0)
            pendingPredMask_ &= ~bit;
        pendingPredCommit_.reset();
    }
    squashIssueThisCycle_ = false;
}

} // namespace tia
