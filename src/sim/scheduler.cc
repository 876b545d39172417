#include "sim/scheduler.hh"

#include "core/logging.hh"

namespace tia {

bool
queueConditionsHold(const Instruction &inst, const QueueStatusView &view)
{
    // Explicit tag checks in the trigger.
    for (const auto &check : inst.trigger.queueChecks) {
        if (view.inputOccupancy(check.queue) == 0)
            return false;
        const auto tag = view.inputHeadTag(check.queue);
        if (!tag.has_value())
            return false;
        const bool match = *tag == check.tag;
        if (match == check.negate)
            return false;
    }
    // Implicit operand availability.
    for (const auto &src : inst.srcs) {
        if (src.type == SrcType::InputQueue &&
            view.inputOccupancy(src.index) == 0) {
            return false;
        }
    }
    // Implicit dequeue availability.
    for (auto q : inst.dequeues) {
        if (view.inputOccupancy(q) == 0)
            return false;
    }
    // Destination space.
    if (inst.dst.type == DstType::OutputQueue &&
        !view.outputHasSpace(inst.dst.index)) {
        return false;
    }
    return true;
}

ScheduleResult
schedule(const std::vector<Instruction> &instructions, std::uint64_t preds,
         std::uint64_t pendingPreds, const QueueStatusView &view)
{
    for (unsigned i = 0; i < instructions.size(); ++i) {
        const Instruction &inst = instructions[i];
        if (!inst.trigger.valid)
            continue;

        // A trigger whose queue conditions fail cannot fire this cycle
        // no matter how the predicates resolve; skip it.
        if (!queueConditionsHold(inst, view))
            continue;

        const std::uint64_t cares = inst.trigger.predOn |
                                    inst.trigger.predOff;
        const std::uint64_t resolved = ~pendingPreds;

        // Definitely fails on a *resolved* predicate bit: skip.
        const std::uint64_t on_fail = inst.trigger.predOn & ~preds;
        const std::uint64_t off_fail = inst.trigger.predOff & preds;
        if (((on_fail | off_fail) & resolved) != 0)
            continue;

        // Any remaining required bit that is pending makes the outcome
        // unknown; priority forbids issuing anything lower.
        if ((cares & pendingPreds) != 0)
            return {ScheduleOutcome::BlockedOnPredicate, i};

        return {ScheduleOutcome::Fire, i};
    }
    return {ScheduleOutcome::None, 0};
}

TriggerTable::TriggerTable(const std::vector<Instruction> &program)
    : descs_(compileTriggerDescs(program))
{
    fatalIf(descs_.size() > kMaxInstructions, "instruction store of ",
            descs_.size(), " entries exceeds the trigger table's ",
            kMaxInstructions);
    std::uint64_t cared = 0;
    for (unsigned i = 0; i < descs_.size(); ++i) {
        if (descs_[i].valid) {
            valid_ |= std::uint64_t{1} << i;
            cared |= descs_[i].predOn | descs_[i].predOff;
        }
    }
    for (unsigned shift = 0; shift < 64; shift += 8) {
        if (((cared >> shift) & 0xffu) == 0)
            continue;
        sliceShift_[numSlices_++] = static_cast<std::uint8_t>(shift);
        for (unsigned value = 0; value < kSliceSize; ++value) {
            std::uint64_t match = 0;
            for (unsigned i = 0; i < descs_.size(); ++i) {
                const unsigned on = (descs_[i].predOn >> shift) & 0xffu;
                const unsigned off = (descs_[i].predOff >> shift) & 0xffu;
                if ((on & ~value) == 0 && (off & value) == 0)
                    match |= std::uint64_t{1} << i;
            }
            slices_.push_back(match & valid_);
        }
    }
}

} // namespace tia
