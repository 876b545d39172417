/**
 * @file
 * WorkloadRun-specific cache codec: the key derivation and payload
 * serialization that let runCycle results live in a SimCache.
 *
 * Physically in src/cache/ with the rest of the cache subsystem, but
 * compiled into tia_workloads: it needs Workload and CycleRunOptions,
 * and the generic tia_cache tier must not depend on the workloads
 * library (workloads -> cache is a one-way arrow).
 *
 * The key covers everything a cycle-accurate result is a function of:
 * the program, the fabric wiring, the preloaded memory image, the
 * microarchitecture, the run options and the fault plan (a seeded
 * injection run is a different computation from a clean one). The
 * trace sink is deliberately absent — tracing is a side effect the
 * cache cannot replay, so cached dispatch is bypassed entirely when a
 * sink is installed (see runCycle).
 */

#ifndef TIA_CACHE_RUN_CACHE_HH
#define TIA_CACHE_RUN_CACHE_HH

#include <optional>
#include <string>

#include "cache/digest.hh"
#include "workloads/runner.hh"

namespace tia {

/**
 * The uarch-independent half of a workload's cache key: the digest
 * state after the schema version, domain, name, program, fabric
 * config, worker PE and preloaded memory image. Invokes
 * workload.preload on a scratch Memory to capture the input image; the
 * golden-model check is assumed to be a pure function of the same
 * inputs (all Table 3 workloads satisfy this — their preload and check
 * closures are built deterministically from the same WorkloadSizes).
 * A sweep computes this once per workload and resumes it per cell.
 */
Digest128Builder workloadInputDigest(const Workload &workload);

/**
 * Cache key for runCycle(workload, uarch, options), finished from a
 * copy of @p inputs = workloadInputDigest(workload).
 */
Digest128 workloadRunKey(const Digest128Builder &inputs,
                         const PeConfig &uarch,
                         const CycleRunOptions &options);

/** Cache key for runCycle(workload, uarch, options). */
Digest128 workloadRunKey(const Workload &workload, const PeConfig &uarch,
                         const CycleRunOptions &options);

/** Canonical byte form of a finished run (every WorkloadRun field). */
std::string encodeWorkloadRun(const WorkloadRun &run);

/**
 * Decode a payload produced by encodeWorkloadRun. Returns nullopt on
 * any truncation or framing error — a corrupt persisted entry must
 * degrade to a recompute, never a crash.
 */
std::optional<WorkloadRun> decodeWorkloadRun(const std::string &payload);

} // namespace tia

#endif // TIA_CACHE_RUN_CACHE_HH
