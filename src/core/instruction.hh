/**
 * @file
 * Decoded triggered-instruction representation.
 *
 * An instruction is a guarded atomic action (Section 2.1): a *trigger*
 * (guard) over predicate state and input-queue tag/occupancy, plus a
 * *datapath* operation with up to two sources, one destination, queue
 * dequeues and a trigger-time predicate update. The binary layout of
 * each field is given in paper Table 2 and implemented in encoding.hh.
 */

#ifndef TIA_CORE_INSTRUCTION_HH
#define TIA_CORE_INSTRUCTION_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/opcode.hh"
#include "core/params.hh"
#include "core/types.hh"

namespace tia {

/** Source operand kinds (SrcTypes encoding, Table 2). */
enum class SrcType : std::uint8_t
{
    None = 0,
    Reg = 1,
    InputQueue = 2,
    Immediate = 3,
};

/** Destination kinds (DstTypes encoding, Table 2). */
enum class DstType : std::uint8_t
{
    None = 0,
    Reg = 1,
    OutputQueue = 2,
    Predicate = 3,
};

/** One input-queue condition within a trigger. */
struct QueueCheck
{
    std::uint8_t queue = 0; ///< Input queue index.
    Tag tag = 0;            ///< Reference tag.
    /**
     * When set, the condition is satisfied by a *non-matching* head tag
     * (the queue must still be non-empty); this is the NotTags bit used
     * for idioms such as "while the head is not the end-of-stream tag".
     */
    bool negate = false;

    bool operator==(const QueueCheck &) const = default;
};

/**
 * The guard of an instruction: required predicate on-set/off-set and
 * up to MaxCheck input-queue tag conditions.
 */
struct TriggerCondition
{
    bool valid = false;          ///< Valid bit; invalid slots never fire.
    std::uint64_t predOn = 0;    ///< Predicates that must be 1.
    std::uint64_t predOff = 0;   ///< Predicates that must be 0.
    std::vector<QueueCheck> queueChecks;

    bool operator==(const TriggerCondition &) const = default;
};

/** One source operand. Immediate sources read Instruction::imm. */
struct Source
{
    SrcType type = SrcType::None;
    std::uint8_t index = 0; ///< Register or input-queue index.

    bool operator==(const Source &) const = default;
};

/** The (single) destination operand. */
struct Destination
{
    DstType type = DstType::None;
    std::uint8_t index = 0; ///< Register, output queue or predicate index.

    bool operator==(const Destination &) const = default;
};

/** A fully decoded triggered instruction. */
struct Instruction
{
    TriggerCondition trigger;

    Op op = Op::Nop;
    std::array<Source, 2> srcs = {};
    Destination dst;
    Tag outTag = 0; ///< Tag attached when dst is an output queue.

    /** Input queues dequeued when the instruction executes (<= MaxDeq). */
    std::vector<std::uint8_t> dequeues;

    /** Trigger-time predicate update: bits forced high. */
    std::uint64_t predSet = 0;
    /** Trigger-time predicate update: bits forced low. */
    std::uint64_t predClear = 0;

    /** Full-word immediate (used by sources of type Immediate). */
    Word imm = 0;

    /** Source line for diagnostics (0 when synthesized in code). */
    unsigned line = 0;

    /** @return true if the datapath writes a predicate (a "branch"). */
    bool writesPredicate() const { return dst.type == DstType::Predicate; }

    /** @return true if the datapath enqueues onto an output queue. */
    bool enqueues() const { return dst.type == DstType::OutputQueue; }

    /** @return true if any input queue is dequeued. */
    bool hasDequeue() const { return !dequeues.empty(); }

    /**
     * @return true if the instruction has side effects that take effect
     * before retirement and therefore cannot issue during unconfirmed
     * speculation (Section 5.2): input dequeues and scratchpad writes.
     */
    bool
    hasPreRetirementSideEffect() const
    {
        return hasDequeue() || opInfo(op).writesScratchpad;
    }

    /** @return true if input queue @p q is read as a source operand. */
    bool
    readsInputQueue(unsigned q) const
    {
        for (const auto &src : srcs)
            if (src.type == SrcType::InputQueue && src.index == q)
                return true;
        return false;
    }

    /** @return true if input queue @p q is dequeued. */
    bool
    dequeuesQueue(unsigned q) const
    {
        for (auto d : dequeues)
            if (d == q)
                return true;
        return false;
    }

    /**
     * Check all architectural constraints against @p params.
     * @throws FatalError with a descriptive message on violation.
     */
    void validate(const ArchParams &params) const;

    /** Disassemble back to the assembly syntax (for tooling/tests). */
    std::string toString(const ArchParams &params) const;

    /** Structural equality; ignores the diagnostic line number. */
    bool operator==(const Instruction &other) const;
};

/** Most tag conditions a compiled TriggerDesc can carry inline. */
constexpr unsigned kTriggerDescMaxChecks = 8;

/**
 * A trigger compiled to flat bitmask form for the trigger table's
 * queue checks (see TriggerTable in sim/scheduler.hh).
 *
 * All of an instruction's non-tag queue conditions — explicit trigger
 * occupancy checks, implicit input-queue source operands, implicit
 * dequeue availability and output-queue destination space — collapse
 * into two requirement masks that are tested with one AND/compare each
 * against per-cycle queue-status words. Only head-tag comparisons
 * remain per-condition, and an instruction has at most MaxCheck (2 at
 * the paper's parameters) of those.
 *
 * A TriggerDesc is immutable once compiled; TriggerTable builds one per
 * instruction-store slot at construction.
 */
struct TriggerDesc
{
    bool valid = false;        ///< Valid bit; invalid slots never fire.
    std::uint64_t predOn = 0;  ///< Predicates that must be 1.
    std::uint64_t predOff = 0; ///< Predicates that must be 0.
    /** Input queues that must be (effectively) non-empty. */
    std::uint32_t inputNeed = 0;
    /** Output queues that must have space for one more token. */
    std::uint32_t outputNeed = 0;
    /** Head-tag conditions (queues here are also set in inputNeed). */
    std::uint8_t numChecks = 0;
    std::array<QueueCheck, kTriggerDescMaxChecks> checks{};
};

/**
 * Compile one instruction's trigger (plus its implicit queue
 * requirements) into mask form.
 * @throws FatalError if a queue index exceeds the 32-bit mask range or
 *         the tag conditions overflow kTriggerDescMaxChecks.
 */
TriggerDesc compileTriggerDesc(const Instruction &inst);

/** Compile a whole instruction store (one desc per slot, same order). */
std::vector<TriggerDesc>
compileTriggerDescs(const std::vector<Instruction> &program);

} // namespace tia

#endif // TIA_CORE_INSTRUCTION_HH
