/**
 * @file
 * SweepPipeline: serial generate → parallel simulate → serial in-order
 * sink, after TBB's parallel_pipeline (SNIPPETS.md Snippet 1).
 *
 * A flat job pool with a full-matrix barrier lets no consumer see a
 * result until the last task finishes. The pipeline removes that
 * barrier. The calling thread plays the two serial stages — it
 * submits every task index in order, then waits for each result in
 * index order and hands it to the sink. Aggregation, JSON assembly,
 * Pareto-frontier maintenance and cache-save I/O in the sink therefore
 * overlap simulation instead of trailing it.
 *
 * Run-ahead is not bounded: a window (TBB's token cap) would only
 * throttle — one slow task at the head of the in-order sink stalls
 * every worker behind it — and bounds no memory, since the matrix
 * callers keep every result.
 *
 * Guarantees, pinned by tests/test_sweep_pipeline.cc against the flat
 * barrier oracle in tests/sweep_oracle.hh:
 *
 *  - **Order**: sink(i, value) is invoked for i = 0, 1, 2, … with no
 *    gaps and no reordering, regardless of completion order. Results
 *    are therefore bit-identical for every jobs count.
 *  - **Serial reference**: jobs == 1 degenerates to the plain loop
 *    `for i: sink(i, fn(i))` on the calling thread.
 *  - **Fail-fast**: fn may be fn(i) or fn(i, cancel); tasks that take
 *    the StopToken get one from an internal fail-fast source. The
 *    first exception — from a task or from the sink — cancels
 *    in-flight siblings, drains, and the lowest-index exception is
 *    rethrown: a tokenless task is skipped only when a lower index
 *    has already failed. After a failure no further results are
 *    sunk. A caller's CycleRunOptions::stop deadline token is
 *    different: it cancels the tasks themselves, and a
 *    deadline-cancelled sweep still sinks every index (with
 *    RunStatus::Cancelled values).
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
#include "exec/thread_pool.hh"

namespace tia {

namespace detail {

/** Invoke a sweep task, passing the cancel token when fn accepts it. */
template <typename Fn>
auto
invokeSweepTask(Fn &fn, std::size_t i, const StopToken &cancel)
{
    if constexpr (std::is_invocable_v<Fn &, std::size_t, StopToken>)
        return fn(i, cancel);
    else
        return fn(i);
}

/** Result type of a sweep task (with or without the token parameter). */
template <typename Fn>
using SweepTaskResult =
    decltype(invokeSweepTask(std::declval<Fn &>(), std::size_t{},
                             std::declval<const StopToken &>()));

} // namespace detail

/** Outcome of one SweepPipeline::run (no values — the sink saw them). */
struct PipelineResult
{
    unsigned jobs = 1;    ///< Worker threads actually used.
    double wallMs = 0.0;  ///< Wall-clock time of the whole run().
    std::size_t sunk = 0; ///< Results delivered to the sink.
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
     * tasks. @p fn must be a pure function of i, safe to call
     * concurrently for distinct indices, optionally taking a
     * StopToken second parameter. @p sink runs on the calling thread
     * only.
     */
    template <typename Fn, typename Sink>
    PipelineResult
    run(std::size_t count, Fn &&fn, Sink &&sink) const
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
                T value = detail::invokeSweepTask(fn, i, StopToken{});
                sink(i, std::move(value));
                ++result.sunk;
            }
            result.wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            return result;
        }

        struct Slot
        {
            std::optional<T> value;
            std::exception_ptr error;
            bool done = false;
        };
        std::vector<Slot> slots(count);
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
            // Serial generator stage: submit every index in order.
            for (std::size_t i = 0; i < count; ++i) {
                pool.submit([&, i] {
                    Slot &slot = slots[i];
                    try {
                        if constexpr (std::is_invocable_v<
                                          Fn &, std::size_t, StopToken>) {
                            slot.value.emplace(fn(i, cancel));
                        } else if (firstFailed.load(
                                       std::memory_order_relaxed) > i) {
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

            // Serial in-order sink stage: wait for slot i, then sink it.
            for (std::size_t i = 0; i < count; ++i) {
                Slot &slot = slots[i];
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    slotDone.wait(lock, [&] { return slot.done; });
                }
                if (slot.error) {
                    errors.emplace_back(i, slot.error);
                } else if (errors.empty() && slot.value.has_value()) {
                    try {
                        sink(i, std::move(*slot.value));
                        ++result.sunk;
                    } catch (...) {
                        errors.emplace_back(i, std::current_exception());
                        noteFailure(i);
                    }
                }
            }
        } // pool drains and joins here

        if (!errors.empty()) {
            std::size_t lowest = 0;
            for (std::size_t e = 1; e < errors.size(); ++e) {
                if (errors[e].first < errors[lowest].first)
                    lowest = e;
            }
            std::rethrow_exception(errors[lowest].second);
        }
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
