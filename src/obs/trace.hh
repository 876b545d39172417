/**
 * @file
 * Cycle-accurate trace events: the observability layer's wire format.
 *
 * A TraceSink receives one compact TraceEvent per observable
 * micro-event — issue-slot attribution, issues, retirements, quashes,
 * predictor outcomes, stage occupancy, queue depths and park/wake
 * transitions — emitted by PipelinedPe and CycleFabric when a sink is
 * installed. With no sink installed every emission site is a single
 * predictable null-pointer test, so tracing costs nothing when off
 * (docs/observability.md, "Overhead when disabled").
 *
 * The counter cross-check contract: every event that corresponds to a
 * PerfCounters increment is emitted at exactly the statement that
 * performs the increment, so a CpiReconstructor folding the event
 * stream rebuilds the issue-slot attribution counters bit-identically
 * (asserted by tests/test_observability.cc under both the mask-based
 * scheduler fast path and the virtual QueueStatusView reference path).
 *
 * Timestamps are PE-local cycle numbers. Events from a single PE are
 * monotone except for sleep settlement: a parked PE's skipped cycles
 * are accounted lazily, so their no-trigger attributions appear in the
 * stream when the PE wakes (still in per-PE cycle order). Consumers
 * must not assume global timestamp order across PEs.
 */

#ifndef TIA_OBS_TRACE_HH
#define TIA_OBS_TRACE_HH

#include <cstdint>
#include <vector>

#include "core/types.hh"

namespace tia {

/** How much a sink is asked to observe. */
enum class TraceLevel : std::uint8_t
{
    /** Counter-relevant events only (issues, retires, predictions...). */
    Events,
    /** Events plus per-cycle stage occupancy and queue depths. */
    Cycles,
};

/** Discriminator for TraceEvent. */
enum class TraceEventKind : std::uint8_t
{
    /**
     * One issue-slot cycle lost to the bucket in `arg` (a TraceBucket).
     * Emitted where the corresponding PerfCounters stall bucket
     * increments; also used for the lazily settled no-trigger cycles
     * of a sleeping PE.
     */
    Attribution,
    /** An instruction issued. index = instruction slot, value = id. */
    Issue,
    /** An instruction retired. index = slot, value = id, arg = flags. */
    Retire,
    /**
     * An issued instruction (or the issue slot itself) was quashed on
     * misprediction. arg bit kQuashIssueSlot distinguishes the squashed
     * issue cycle (which also counts one cycle) from a flushed
     * in-flight instruction (whose cycle was counted at issue).
     */
    Quash,
    /**
     * A predicate prediction was made. arg = predicate index, value
     * bit 0 = predicted value, bit 1 = prediction inverted by fault
     * injection.
     */
    Predict,
    /**
     * A prediction resolved at writeback. arg = predicate index, value
     * bit 0 = actual value, bit 1 = mispredict, bit 2 = an injected
     * flip was repaired by the rollback.
     */
    Resolve,
    /**
     * Stage `arg` holds instruction `index` (issue id `value`) this
     * cycle. Cycles level only.
     */
    StageOccupancy,
    /**
     * Channel `index` has committed occupancy `value` at the end of
     * this cycle. Emitted by the fabric for channels active this
     * cycle; pe is kChannelAgent. Cycles level only.
     */
    QueueDepth,
    /** The fabric parked this PE on the idle-sleep list. */
    Park,
    /** The fabric woke this PE (a watched channel reported activity). */
    Wake,
    /** This PE's halt retired. */
    Halt,
};

/** Attribution buckets, mirroring the PerfCounters stall fields. */
enum class TraceBucket : std::uint8_t
{
    PredicateHazard,
    DataHazard,
    Forbidden,
    NoTrigger,
};

/** Quash arg flag: the quash claimed this cycle's issue slot. */
inline constexpr std::uint8_t kQuashIssueSlot = 1;

/** Retire arg flag: the retired instruction wrote a predicate. */
inline constexpr std::uint8_t kRetireWrotePredicate = 1;

/** TraceEvent::pe value for fabric-level (channel) events. */
inline constexpr std::uint32_t kChannelAgent = 0xffffffffu;

/** One observable micro-event (24 bytes). */
struct TraceEvent
{
    Cycle cycle = 0;        ///< PE-local cycle (fabric cycle for channels).
    std::uint32_t pe = 0;   ///< Emitting PE, or kChannelAgent.
    TraceEventKind kind = TraceEventKind::Attribution;
    std::uint8_t arg = 0;   ///< Kind-specific small argument.
    std::uint16_t index = 0; ///< Kind-specific index (slot, channel...).
    std::uint64_t value = 0; ///< Kind-specific payload.

    bool operator==(const TraceEvent &) const = default;
};

/** Receiver of trace events. Implementations must tolerate the
 *  non-global timestamp order described in the file comment. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    virtual void record(const TraceEvent &event) = 0;
};

/** Fans one event stream out to several sinks (e.g. a Chrome exporter
 *  and a CpiReconstructor cross-check in the same run). */
class TeeSink : public TraceSink
{
  public:
    void add(TraceSink *sink) { sinks_.push_back(sink); }

    void
    record(const TraceEvent &event) override
    {
        for (TraceSink *sink : sinks_)
            sink->record(event);
    }

  private:
    std::vector<TraceSink *> sinks_;
};

} // namespace tia

#endif // TIA_OBS_TRACE_HH
