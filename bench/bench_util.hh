/**
 * @file
 * Shared helpers for the table/figure regeneration binaries.
 *
 * Each bench prints the rows/series of one paper table or figure.
 * Absolute values come from our simulator + analytical VLSI model; the
 * point of comparison with the paper is the *shape* (who wins, by what
 * factor, where crossovers fall) — see EXPERIMENTS.md.
 */

#ifndef TIA_BENCH_BENCH_UTIL_HH
#define TIA_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "cache/simcache.hh"
#include "core/logging.hh"
#include "exec/thread_pool.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace tia::bench {

/**
 * Workload sizes for bench runs: paper-scale by default; set
 * TIA_BENCH_SMALL=1 for a quick smoke pass.
 */
inline WorkloadSizes
benchSizes()
{
    const char *small = std::getenv("TIA_BENCH_SMALL");
    if (small != nullptr && std::string(small) == "1")
        return WorkloadSizes::small();
    return WorkloadSizes::full();
}

/**
 * Sweep worker threads for bench runs: hardware concurrency by
 * default; set TIA_BENCH_JOBS=N to pin (N=1 forces the serial
 * reference loop). Results are identical either way. The value is
 * parsed like tia-sweep --jobs: junk exits with a diagnostic and
 * absurd values are clamped with a warning.
 */
inline unsigned
benchJobs()
{
    const char *jobs = std::getenv("TIA_BENCH_JOBS");
    if (jobs == nullptr)
        return 0; // SweepPipeline: hardware concurrency
    try {
        return ThreadPool::parseJobs(jobs, "TIA_BENCH_JOBS");
    } catch (const FatalError &error) {
        std::fprintf(stderr, "bench: %s\n", error.what());
        std::exit(2);
    }
}

/**
 * Optional result cache for bench runs: set TIA_BENCH_CACHE=PATH to
 * load a persistent warm tier from PATH, memoize every cycle run, and
 * save back on destruction (docs/simcache.md). Unset (the default)
 * disables caching entirely. Lets the fig5/fig6/fig8 drivers — which
 * all sweep the same uarch x workload product — share one warm tier
 * instead of each re-simulating it.
 */
class BenchCache
{
  public:
    BenchCache()
    {
        const char *path = std::getenv("TIA_BENCH_CACHE");
        if (path == nullptr || *path == '\0')
            return;
        path_ = path;
        cache_.emplace();
        std::string error;
        if (!cache_->load(path_, &error) || !error.empty())
            std::fprintf(stderr, "bench cache: %s\n", error.c_str());
    }

    ~BenchCache()
    {
        if (!cache_)
            return;
        std::string error;
        if (!cache_->save(path_, &error))
            std::fprintf(stderr, "bench cache: cannot save: %s\n",
                         error.c_str());
        std::fprintf(stderr, "bench %s\n",
                     cache_->statsSummary().c_str());
    }

    BenchCache(const BenchCache &) = delete;
    BenchCache &operator=(const BenchCache &) = delete;

    /** Run options with the cache (if any) installed. */
    CycleRunOptions
    options()
    {
        CycleRunOptions run_options;
        run_options.cache = cache_ ? &*cache_ : nullptr;
        return run_options;
    }

  private:
    std::string path_;
    std::optional<SimCache> cache_;
};

/** Print a banner naming the reproduced table/figure. */
inline void
banner(const char *what, const char *paper_summary)
{
    std::printf("==============================================================================\n");
    std::printf("%s\n", what);
    std::printf("Paper reference: %s\n", paper_summary);
    std::printf("==============================================================================\n");
}

} // namespace tia::bench

#endif // TIA_BENCH_BENCH_UTIL_HH
