/**
 * @file
 * Trigger resolution: the scheduler / priority-encoder pair at the
 * front end of every triggered PE (paper Figure 2).
 *
 * The scheduler compares each valid instruction's trigger against the
 * predicate state and the queue status, and selects the
 * highest-priority eligible instruction. Two implementations exist:
 *
 *  - schedule() over a QueueStatusView walks the instructions in
 *    priority order through virtual queue-status calls. It is the
 *    functional simulator's scheduler and the test oracle for the
 *    other one.
 *  - TriggerTable is the cycle-accurate PE's issue path. Like the
 *    hardware, it matches every trigger's predicate condition at once:
 *    the predicate state indexes precompiled candidate masks, and only
 *    the surviving candidates are checked, lowest index first, against
 *    packed per-cycle queue-status words (QueueStatusWords).
 *
 * Priority correctness under unresolved predicates: when an in-flight
 * datapath predicate write leaves a trigger's outcome unknown, no
 * lower-priority instruction may issue — the cycle is a predicate
 * hazard (Section 5.1).
 */

#ifndef TIA_SIM_SCHEDULER_HH
#define TIA_SIM_SCHEDULER_HH

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/instruction.hh"
#include "core/types.hh"

namespace tia {

/** Abstract view of queue status as seen by a scheduler. */
class QueueStatusView
{
  public:
    virtual ~QueueStatusView() = default;

    /** Effective occupancy of input queue @p q (0 if conservatively empty). */
    virtual unsigned inputOccupancy(unsigned q) const = 0;

    /** Tag of the effective head of input queue @p q, if available. */
    virtual std::optional<Tag> inputHeadTag(unsigned q) const = 0;

    /** True if output queue @p q can accept one more token. */
    virtual bool outputHasSpace(unsigned q) const = 0;
};

/** Outcome of one trigger-resolution attempt. */
enum class ScheduleOutcome
{
    Fire,               ///< An instruction is eligible; index reported.
    BlockedOnPredicate, ///< Outcome depends on an unresolved predicate.
    None,               ///< Nothing is eligible this cycle.
};

struct ScheduleResult
{
    ScheduleOutcome outcome = ScheduleOutcome::None;
    unsigned index = 0; ///< Selected instruction (valid when Fire).
};

/**
 * Resolve triggers in priority order.
 *
 * @param instructions the PE's instruction store (priority order).
 * @param preds        current (possibly speculative) predicate state.
 * @param pendingPreds bitmask of predicates with in-flight, unresolved
 *                     datapath writes (always 0 with prediction on or
 *                     in the functional simulator).
 * @param view         queue status view.
 */
ScheduleResult schedule(const std::vector<Instruction> &instructions,
                        std::uint64_t preds, std::uint64_t pendingPreds,
                        const QueueStatusView &view);

/**
 * Evaluate all non-predicate trigger conditions (queue occupancy, tag
 * matches, source availability, destination space) for one instruction.
 */
bool queueConditionsHold(const Instruction &inst,
                         const QueueStatusView &view);

/**
 * Per-cycle queue status packed into words for the trigger table. A
 * PE computes this once per cycle (each bound queue inspected once)
 * instead of re-deriving queue status per instruction condition
 * through virtual QueueStatusView calls.
 *
 * headTag[q] is meaningful only where bit q of inputReady is set (an
 * effectively non-empty queue always has a peekable head); consumers
 * must test inputReady first, which the requirement-mask compare does
 * implicitly. For that reason headTag is deliberately left without an
 * initializer: a default-initialized QueueStatusWords (built fresh
 * every cycle) skips zero-filling tags no consumer may read — every
 * compiled tag check adds its queue to the descriptor's inputNeed
 * mask, so an unready queue's tag slot is never inspected.
 */
struct QueueStatusWords
{
    std::uint32_t inputReady = 0;  ///< Bit q: input q effectively non-empty.
    std::uint32_t outputSpace = 0; ///< Bit q: output q has space.
    std::array<Tag, 32> headTag;   ///< Effective head tags (see above).
};

/**
 * Mask-based equivalent of queueConditionsHold for a compiled trigger:
 * two AND/compare operations plus at most MaxCheck tag compares.
 * Exactly equivalent to the reference given consistent status
 * (asserted by tests/test_hot_path.cc). Defined inline — this runs
 * once per predicate-matching candidate per cycle in the issue stage.
 */
inline bool
queueConditionsHold(const TriggerDesc &desc, const QueueStatusWords &status)
{
    // Occupancy, source availability, dequeue availability and
    // destination space collapse to two requirement-mask compares.
    if ((desc.inputNeed & ~status.inputReady) != 0)
        return false;
    if ((desc.outputNeed & ~status.outputSpace) != 0)
        return false;
    // Tag conditions: the queues involved passed the inputReady test
    // above, so their effective head tags are meaningful.
    for (unsigned c = 0; c < desc.numChecks; ++c) {
        const QueueCheck &check = desc.checks[c];
        const bool match = status.headTag[check.queue] == check.tag;
        if (match == check.negate)
            return false;
    }
    return true;
}

/**
 * A PE's triggers compiled to a predicate-indexed candidate table: the
 * fast path used by the cycle-accurate PE's issue stage. Bit-identical
 * to schedule() on the same instructions and a consistent view
 * (asserted by tests/test_hot_path.cc).
 *
 * For every predicate byte j that some valid trigger cares about, the
 * table holds 256 masks: bit i of slice_j[v] is set iff instruction i
 * is valid and its on/off requirements within byte j agree with byte
 * value v. ANDing the slices selected by the predicate state yields
 * every trigger whose predicate condition holds (one 2 KB slice at the
 * default 8 predicates). Instruction indices are mask bits, so the
 * store holds at most kMaxInstructions entries (ArchParams::validate
 * caps NIns to match).
 */
class TriggerTable
{
  public:
    /** Widest instruction store a 64-bit candidate mask covers. */
    static constexpr unsigned kMaxInstructions = 64;

    TriggerTable() = default;

    /**
     * Compile @p program (priority order). The instructions must have
     * passed Instruction::validate, which rules out a trigger requiring
     * a predicate both set and clear — the table relies on it.
     * @throws FatalError if the program exceeds kMaxInstructions or a
     *         trigger does not fit a TriggerDesc.
     */
    explicit TriggerTable(const std::vector<Instruction> &program);

    /**
     * Resolve triggers against predicate state @p preds, the in-flight
     * predicate writes @p pendingPreds and this cycle's queue status.
     */
    ScheduleResult resolve(std::uint64_t preds, std::uint64_t pendingPreds,
                           const QueueStatusWords &status) const;

    /** The compiled per-instruction descriptors (priority order). */
    const std::vector<TriggerDesc> &descs() const { return descs_; }

  private:
    static constexpr unsigned kSliceSize = 256;

    std::vector<TriggerDesc> descs_;
    /** Bit i: instruction i is valid. */
    std::uint64_t valid_ = 0;
    /** Number of predicate bytes with a slice. */
    unsigned numSlices_ = 0;
    /** Bit offset in the predicate word of each slice's byte. */
    std::array<std::uint8_t, 8> sliceShift_{};
    /** numSlices_ consecutive slices of kSliceSize masks each. */
    std::vector<std::uint64_t> slices_;
};

inline ScheduleResult
TriggerTable::resolve(std::uint64_t preds, std::uint64_t pendingPreds,
                      const QueueStatusWords &status) const
{
    std::uint64_t candidates = valid_;
    const std::uint64_t *slice = slices_.data();
    for (unsigned k = 0; k < numSlices_; ++k, slice += kSliceSize) {
        const unsigned shift = sliceShift_[k];
        const unsigned pending =
            static_cast<unsigned>(pendingPreds >> shift) & 0xffu;
        const unsigned resolved =
            static_cast<unsigned>(preds >> shift) & 0xffu & ~pending;
        // A pending bit may resolve either way: a trigger stays a
        // candidate if it fails on no resolved bit, i.e. if it matches
        // some completion of the pending bits.
        std::uint64_t match = slice[resolved];
        for (unsigned s = pending; s != 0; s = (s - 1) & pending)
            match |= slice[resolved | s];
        candidates &= match;
    }
    for (; candidates != 0; candidates &= candidates - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(candidates));
        const TriggerDesc &desc = descs_[i];
        if (!queueConditionsHold(desc, status))
            continue;
        // A required bit still pending makes the outcome unknown;
        // priority forbids issuing anything lower.
        if (((desc.predOn | desc.predOff) & pendingPreds) != 0)
            return {ScheduleOutcome::BlockedOnPredicate, i};
        return {ScheduleOutcome::Fire, i};
    }
    return {ScheduleOutcome::None, 0};
}

} // namespace tia

#endif // TIA_SIM_SCHEDULER_HH
