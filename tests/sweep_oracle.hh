/**
 * @file
 * SweepEngine: the flat-barrier test oracle for SweepPipeline
 * (exec/pipeline.hh).
 *
 * SweepEngine::map(count, fn) evaluates fn(0) .. fn(count - 1) on a
 * thread pool and returns the results in submission order, with no
 * result visible until the last task finishes. It is the simplest
 * parallel form of the serial loop, so the tests compare the
 * pipeline's in-order sink against it across jobs counts. With
 * jobs == 1 it degenerates to the plain serial loop on the calling
 * thread.
 *
 * Tasks follow the pipeline's conventions (detail::invokeSweepTask):
 * fn(i) or fn(i, cancel). The engine fires its internal fail-fast
 * token the moment any task throws; token-aware siblings return
 * RunStatus::Cancelled quickly, tokenless queued siblings are
 * skipped, and map() rethrows the lowest-index exception. (A
 * lower-index task that would eventually have thrown can instead
 * observe the cancel token and return a Cancelled value, in which
 * case the first sibling that did throw is reported.)
 */

#ifndef TIA_TESTS_SWEEP_ORACLE_HH
#define TIA_TESTS_SWEEP_ORACLE_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/pipeline.hh"
#include "exec/stop_token.hh"
#include "exec/thread_pool.hh"

namespace tia {

/** A completed sweep: values in submission order plus run metadata. */
template <typename T>
struct SweepResult
{
    std::vector<T> values;
    unsigned jobs = 1;   ///< Worker threads actually used.
    double wallMs = 0.0; ///< Wall-clock time of the whole map().
};

class SweepEngine
{
  public:
    /** @param jobs worker threads; 0 means ThreadPool::defaultConcurrency. */
    explicit SweepEngine(unsigned jobs = 0)
        : jobs_(jobs == 0 ? ThreadPool::defaultConcurrency() : jobs)
    {
    }

    unsigned jobs() const { return jobs_; }

    /**
     * Evaluate @p fn over [0, count) and return the results in index
     * order. @p fn must be safe to call concurrently from multiple
     * threads for distinct indices; it may optionally accept a second
     * StopToken parameter (see the file comment) for fail-fast
     * cancellation when a sibling task throws.
     */
    template <typename Fn>
    auto
    map(std::size_t count, Fn &&fn) const
        -> SweepResult<detail::SweepTaskResult<Fn>>
    {
        using T = detail::SweepTaskResult<Fn>;
        const auto start = std::chrono::steady_clock::now();

        SweepResult<T> result;
        result.jobs = count < jobs_ ? static_cast<unsigned>(
                                          count == 0 ? 1 : count)
                                    : jobs_;
        std::vector<std::optional<T>> slots(count);

        if (result.jobs <= 1) {
            // Serial reference loop: the first exception propagates
            // immediately, exactly like the loop it replaces.
            for (std::size_t i = 0; i < count; ++i)
                slots[i].emplace(
                    detail::invokeSweepTask(fn, i, StopToken{}));
        } else {
            std::vector<std::exception_ptr> errors(count);
            StopSource failFast;
            const StopToken cancel = failFast.token();
            std::atomic<bool> failed{false};
            {
                ThreadPool pool(result.jobs);
                for (std::size_t i = 0; i < count; ++i) {
                    pool.submit([&, i] {
                        try {
                            if constexpr (std::is_invocable_v<
                                              Fn &, std::size_t,
                                              StopToken>) {
                                // Cancellation-aware task: run it even
                                // after a failure — the fired token
                                // makes it return Cancelled quickly.
                                slots[i].emplace(fn(i, cancel));
                            } else if (!failed.load(
                                           std::memory_order_relaxed)) {
                                slots[i].emplace(fn(i));
                            }
                            // else: queued sibling of a failed task —
                            // skip; map() rethrows before slots are read.
                        } catch (...) {
                            errors[i] = std::current_exception();
                            failed.store(true,
                                         std::memory_order_relaxed);
                            failFast.requestStop();
                        }
                    });
                }
                pool.wait();
            }
            for (std::size_t i = 0; i < count; ++i) {
                if (errors[i])
                    std::rethrow_exception(errors[i]);
            }
        }

        result.values.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            result.values.push_back(std::move(*slots[i]));
        result.wallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        return result;
    }

  private:
    unsigned jobs_;
};

} // namespace tia

#endif // TIA_TESTS_SWEEP_ORACLE_HH
