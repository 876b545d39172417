/**
 * @file
 * SweepPipeline: serial generate → parallel simulate → serial in-order
 * sink, after TBB's parallel_pipeline (SNIPPETS.md Snippet 1).
 *
 * SweepEngine::map is a flat job pool with a full-matrix barrier: no
 * consumer sees a result until the last task finishes. The pipeline
 * removes that barrier. The calling thread plays the two serial
 * stages — it submits task indices in order and, between
 * submissions, waits for the *next-in-order* result and hands it to
 * the sink. Aggregation, JSON assembly, Pareto-frontier maintenance
 * and cache-save I/O in the sink therefore overlap simulation instead
 * of trailing it.
 *
 * Run-ahead is bounded (an in-flight window, like TBB's token cap)
 * only when the caller can stop the generator early: then the window
 * caps the work wasted past the stop. Without a generator stop every
 * index is submitted up front. A window would only throttle — one slow
 * task at the head of the in-order sink stalls every worker behind it
 * — and bounds no memory, since the matrix callers keep every result.
 *
 * Guarantees, pinned by tests/test_sweep_pipeline.cc:
 *
 *  - **Order**: sink(i, value) is invoked for i = 0, 1, 2, … with no
 *    gaps and no reordering, regardless of completion order. A full
 *    run therefore aggregates exactly like the flat map() — results
 *    are bit-identical for every jobs count.
 *  - **Serial reference**: jobs == 1 degenerates to the plain loop
 *    `for i: sink(i, fn(i))` on the calling thread.
 *  - **Fail-fast**: tasks get a StopToken from an internal fail-fast
 *    source (same convention as SweepEngine::map — fn may be
 *    fn(i) or fn(i, cancel)). The first exception — from a task or
 *    from the sink — cancels in-flight siblings (and, in a bounded
 *    run, stops generation), drains, and the lowest-index exception
 *    is rethrown: a tokenless task is skipped only when a lower index
 *    has already failed. After a failure no further results are
 *    sunk.
 *  - **Early exit**: a caller-supplied generatorStop token stops the
 *    *generator* stage only. Indices already submitted still simulate
 *    and are sunk in order, so the sink always observes a contiguous
 *    prefix [0, generated). This is how the incremental Pareto
 *    frontier stops a DSE once the frontier has stabilized. Note this
 *    is distinct from a caller's CycleRunOptions::stop deadline token,
 *    which cancels the *tasks themselves*: a deadline-cancelled sweep
 *    still fills every slot (with RunStatus::Cancelled values).
 */

#ifndef TIA_EXEC_PIPELINE_HH
#define TIA_EXEC_PIPELINE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/stop_token.hh"
#include "exec/sweep.hh"
#include "exec/thread_pool.hh"

namespace tia {

/** Outcome of one SweepPipeline::run (no values — the sink saw them). */
struct PipelineResult
{
    unsigned jobs = 1;        ///< Worker threads actually used.
    double wallMs = 0.0;      ///< Wall-clock time of the whole run().
    std::size_t generated = 0; ///< Task indices submitted (prefix size).
    std::size_t sunk = 0;      ///< Results delivered to the sink.
    bool stoppedEarly = false; ///< generatorStop fired before count.
};

class SweepPipeline
{
  public:
    /** @param jobs simulate-stage workers; 0 = defaultConcurrency. */
    explicit SweepPipeline(unsigned jobs = 0)
        : jobs_(jobs == 0 ? ThreadPool::defaultConcurrency() : jobs)
    {
    }

    unsigned jobs() const { return jobs_; }

    /**
     * Run the pipeline over [0, count): evaluate @p fn on the worker
     * pool and deliver each result to @p sink (called as
     * sink(i, T&&)) strictly in index order, overlapped with later
     * tasks. @p fn follows the SweepEngine task conventions (pure
     * function of i, optional StopToken parameter). @p sink runs on
     * the calling thread only.
     *
     * @param generatorStop optional token observed between
     *        submissions: once fired, no further indices are
     *        generated; everything already submitted is still
     *        simulated and sunk in order.
     */
    template <typename Fn, typename Sink>
    PipelineResult
    run(std::size_t count, Fn &&fn, Sink &&sink,
        StopToken generatorStop = {}) const
    {
        using T = detail::SweepTaskResult<Fn>;
        const auto start = std::chrono::steady_clock::now();

        PipelineResult result;
        result.jobs = count < jobs_ ? static_cast<unsigned>(
                                          count == 0 ? 1 : count)
                                    : jobs_;

        if (result.jobs <= 1) {
            // Serial reference: generate, simulate and sink one index
            // at a time; the first exception propagates unwrapped.
            for (std::size_t i = 0; i < count; ++i) {
                if (generatorStop.possible() &&
                    generatorStop.stopRequested()) {
                    result.stoppedEarly = true;
                    break;
                }
                T value = detail::invokeSweepTask(fn, i, StopToken{});
                sink(i, std::move(value));
                ++result.generated;
                ++result.sunk;
            }
            result.wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            return result;
        }

        // In-flight window. With a generator stop: enough tokens to
        // keep every worker busy while the caller sinks, few enough
        // that little work runs past the stop. Without one: no bound.
        const bool bounded = generatorStop.possible();
        const std::size_t window =
            bounded ? std::max<std::size_t>(2 * result.jobs, 4) : count;

        struct Slot
        {
            std::optional<T> value;
            std::exception_ptr error;
            bool done = false;
        };
        std::vector<Slot> slots(window);
        std::mutex mutex;
        std::condition_variable slotDone;
        StopSource failFast;
        const StopToken cancel = failFast.token();
        // Lowest failed index (count = none). A tokenless task is
        // skipped only when an earlier index has failed, so the
        // lowest-index exception is raised whatever order tasks run in.
        std::atomic<std::size_t> firstFailed{count};
        const auto noteFailure = [&](std::size_t i) {
            std::size_t seen = firstFailed.load(std::memory_order_relaxed);
            while (i < seen && !firstFailed.compare_exchange_weak(
                                   seen, i, std::memory_order_relaxed)) {
            }
            failFast.requestStop();
        };
        // (index, error) in discovery order; rethrow the lowest index.
        std::vector<std::pair<std::size_t, std::exception_ptr>> errors;

        {
            ThreadPool pool(result.jobs);
            std::size_t submitted = 0;
            std::size_t next = 0; // next index owed to the sink

            while (next < count) {
                // Serial generator stage: top up the window in order.
                // Only a bounded run stops generating at a failure; an
                // unbounded one submits every index up front, like
                // SweepEngine::map, so every token-aware sibling of a
                // failed task observes the fail-fast token.
                while (submitted < count &&
                       submitted - next < window &&
                       !(bounded &&
                         (firstFailed.load(std::memory_order_relaxed) <
                              count ||
                          generatorStop.stopRequested()))) {
                    const std::size_t i = submitted++;
                    pool.submit([&, i] {
                        Slot &slot = slots[i % window];
                        try {
                            if constexpr (std::is_invocable_v<
                                              Fn &, std::size_t,
                                              StopToken>) {
                                slot.value.emplace(fn(i, cancel));
                            } else if (firstFailed.load(
                                           std::memory_order_relaxed) >
                                       i) {
                                slot.value.emplace(fn(i));
                            }
                        } catch (...) {
                            slot.error = std::current_exception();
                            noteFailure(i);
                        }
                        {
                            std::lock_guard<std::mutex> lock(mutex);
                            slot.done = true;
                        }
                        slotDone.notify_one();
                    });
                }
                if (submitted == next)
                    break; // generator stopped with nothing in flight

                // Serial in-order sink stage: wait for slot `next`.
                Slot &slot = slots[next % window];
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    slotDone.wait(lock, [&] { return slot.done; });
                }
                if (slot.error) {
                    errors.emplace_back(next, slot.error);
                } else if (errors.empty() && slot.value.has_value()) {
                    try {
                        sink(next, std::move(*slot.value));
                        ++result.sunk;
                    } catch (...) {
                        errors.emplace_back(next,
                                            std::current_exception());
                        noteFailure(next);
                    }
                }
                // Safe to reset without the lock: the worker is done
                // with this slot, and its next writer is submitted by
                // this thread (ordering via the pool's queue mutex).
                slot = Slot{};
                ++next;
            }
            result.generated = submitted;
        } // pool drains and joins here

        if (!errors.empty()) {
            std::size_t lowest = 0;
            for (std::size_t e = 1; e < errors.size(); ++e) {
                if (errors[e].first < errors[lowest].first)
                    lowest = e;
            }
            std::rethrow_exception(errors[lowest].second);
        }
        result.stoppedEarly = result.generated < count;
        result.wallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        return result;
    }

  private:
    unsigned jobs_;
};

} // namespace tia

#endif // TIA_EXEC_PIPELINE_HH
