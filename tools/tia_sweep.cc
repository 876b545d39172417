/**
 * @file
 * tia-sweep: batch sweep driver emitting machine-readable JSON.
 *
 * Runs the full uarch x workload CPI matrix (the Figure 5 product)
 * and the VLSI design-space exploration (Figures 6-8) on the streaming
 * sweep pipeline (exec/pipeline.hh): metrics entries are built in the
 * pipeline's in-order sink while later cells are still simulating,
 * and the cache save overlaps the DSE phase. Emits one JSON document
 * (a JsonValue, obs/json.hh) with the matrix, the attempted/evaluated
 * design-point counts and the energy-delay Pareto frontier. Results
 * are bit-identical for any --jobs value (asserted by the ctest
 * fixtures); the wall_ms fields are the measured sweep times.
 *
 *   tia-sweep [options]
 *
 * Options:
 *   --jobs N     worker threads (default: hardware concurrency;
 *                absurd values are clamped with a warning)
 *   --small      reduced workload sizes (fast smoke pass)
 *   --configs X  "all" (default), "fig5", or a comma-separated list
 *                of microarchitecture names
 *   --suite-cpi  drive the DSE with suite-average CPI instead of the
 *                paper's bst-only methodology
 *   --no-dse     emit only the CPI matrix
 *   --out FILE   write the JSON to FILE instead of stdout
 *   --metrics FILE  also write a tia-metrics/v1 document with one run
 *                entry per matrix cell (validate with
 *                tia-metrics-check; see docs/observability.md)
 *   --cache FILE    content-addressed result cache (docs/simcache.md):
 *                load the warm tier from FILE if present, memoize
 *                every matrix cell, save back atomically. Hit/miss/
 *                coalesced stats go to stderr and the --metrics
 *                document, never the --out JSON, so warm and cold
 *                runs emit identical documents (modulo wall_ms).
 *   --cache-verify  with --cache: re-simulate every hit and fail
 *                unless the cached result is bit-identical
 *
 * The JSON schema is documented in docs/sweep_engine.md
 * ("tia-sweep/v1").
 */

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/simcache.hh"
#include "core/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "sim/functional.hh"
#include "vlsi/dse.hh"
#include "workloads/cpi.hh"
#include "workloads/runner.hh"

namespace {

using namespace tia;

struct Options
{
    unsigned jobs = 0; ///< 0 = hardware concurrency.
    bool small = false;
    bool suiteCpi = false;
    bool dse = true;
    std::string configs = "all";
    std::string outPath;
    std::string metricsPath;
    std::string cachePath;
    bool cacheVerify = false;
};

std::vector<PeConfig>
parseConfigList(const std::string &text)
{
    if (text == "all")
        return allConfigs();
    if (text == "fig5")
        return figure5Configs();
    std::vector<PeConfig> configs;
    std::string current;
    auto flush = [&] {
        const auto uarch = parseConfigName(current);
        fatalIf(!uarch.has_value(), "unknown microarchitecture \"",
                current, "\" in --configs");
        configs.push_back(*uarch);
        current.clear();
    };
    for (char c : text) {
        if (c == ',') {
            flush();
        } else {
            current += c;
        }
    }
    flush();
    return configs;
}

int
run(const Options &opt)
{
    const WorkloadSizes sizes =
        opt.small ? WorkloadSizes::small() : WorkloadSizes::full();
    const std::vector<PeConfig> configs = parseConfigList(opt.configs);
    const std::vector<Workload> suite = allWorkloads(sizes);
    const unsigned jobs =
        opt.jobs == 0 ? ThreadPool::defaultConcurrency() : opt.jobs;

    fatalIf(opt.cacheVerify && opt.cachePath.empty(),
            "--cache-verify needs --cache (there is nothing to verify "
            "without a warm tier)");
    std::optional<SimCache> cache;
    CycleRunOptions run_options;
    if (!opt.cachePath.empty()) {
        cache.emplace();
        cache->setVerifyHits(opt.cacheVerify);
        std::string load_error;
        if (!cache->load(opt.cachePath, &load_error) ||
            !load_error.empty()) {
            // Degraded warm tier (corrupt / version-mismatched file):
            // report it and proceed cache-cold.
            std::fprintf(stderr, "tia-sweep: %s\n", load_error.c_str());
        }
        run_options.cache = &*cache;
    }

    // Metrics entries, built cell-by-cell in the pipeline's in-order
    // sink while later cells simulate.
    MetricsRegistry registry("tia-sweep");
    bool all_ok = true;

    const auto addCell = [&](std::size_t c, std::size_t w,
                             const WorkloadRun &cell) {
        all_ok = all_ok && cell.ok();
        if (!opt.metricsPath.empty()) {
            registry.addRun(workloadRunMetrics(cell, configs[c],
                                               suite[w].name));
        }
    };

    const CycleMatrix matrix = runCycleMatrixStreamed(
        suite, configs, run_options, jobs, addCell);

    // Kick the cache save off in the background so its serialization
    // and fsync I/O overlap the DSE phase (a fully warm cache skips
    // the save entirely — see SimCache::save). Joined before exit.
    const bool dsePhase = opt.dse && all_ok;
    bool save_ok = true;
    std::string save_error;
    std::thread cacheSaver;
    // Joins the saver even if something below throws (a joinable
    // std::thread destructor would terminate the process).
    struct Joiner
    {
        std::thread &t;
        ~Joiner()
        {
            if (t.joinable())
                t.join();
        }
    } joiner{cacheSaver};
    if (cache) {
        const auto saveCache = [&] {
            save_ok = cache->save(opt.cachePath, &save_error);
        };
        if (dsePhase) {
            cacheSaver = std::thread(saveCache);
        } else {
            saveCache();
        }
    }

    JsonValue doc = JsonValue::object();
    doc["schema"] = "tia-sweep/v1";
    doc["jobs"] = matrix.jobs;
    doc["sizes"] = opt.small ? "small" : "full";

    // "cpi_matrix" precedes "dse" in the document but is filled in
    // after the DSE, once the design points are freed.
    doc["cpi_matrix"] = JsonValue::object();

    if (dsePhase) {
        CpiTable table;
        if (opt.suiteCpi) {
            for (std::size_t c = 0; c < configs.size(); ++c) {
                double sum = 0.0;
                for (std::size_t w = 0; w < suite.size(); ++w)
                    sum += matrix.run(c, w).worker.cpi();
                table[configs[c].name()] =
                    sum / static_cast<double>(suite.size());
            }
        } else {
            // The paper's methodology: bst alone drives the DSE.
            std::size_t bst = suite.size();
            for (std::size_t w = 0; w < suite.size(); ++w) {
                if (suite[w].name == "bst")
                    bst = w;
            }
            fatalIf(bst == suite.size(), "suite has no bst workload");
            for (std::size_t c = 0; c < configs.size(); ++c)
                table[configs[c].name()] = matrix.run(c, bst).worker.cpi();
        }

        const DesignSpace dse(std::move(table));
        const DseStreamResult stream =
            dse.enumerateStreamed(jobs, configs, {});

        JsonValue dseDoc = JsonValue::object();
        dseDoc["cpi_source"] = opt.suiteCpi ? "suite-average" : "bst";
        dseDoc["wall_ms"] = stream.wallMs;
        dseDoc["grid_points"] = dse.gridSize(configs);
        dseDoc["evaluated"] = stream.points.size();
        JsonValue pareto = JsonValue::array();
        for (const DesignPoint &p : stream.frontier) {
            JsonValue point = JsonValue::object();
            point["config"] = p.config.name();
            point["vt"] = vtName(p.vt);
            point["vdd"] = p.vdd;
            point["freq_mhz"] = p.freqMhz;
            point["max_freq_mhz"] = p.maxFreqMhz;
            point["cpi"] = p.cpi;
            point["ns_per_ins"] = p.nsPerInstruction;
            point["pj_per_ins"] = p.pjPerInstruction;
            point["area_um2"] = p.areaUm2;
            point["power_mw"] = p.powerMw;
            point["power_density_mw_mm2"] = p.powerDensity();
            point["edp"] = p.edp();
            pareto.push(std::move(point));
        }
        dseDoc["pareto"] = std::move(pareto);
        doc["dse"] = std::move(dseDoc);
    }

    JsonValue &cpiMatrix = doc["cpi_matrix"];
    cpiMatrix["wall_ms"] = matrix.wallMs;
    JsonValue workloadNames = JsonValue::array();
    for (const Workload &workload : suite)
        workloadNames.push(workload.name);
    cpiMatrix["workloads"] = std::move(workloadNames);
    JsonValue configNames = JsonValue::array();
    for (const PeConfig &config : configs)
        configNames.push(config.name());
    cpiMatrix["configs"] = std::move(configNames);
    // Row-major [config][workload] arrays, rows parallel to "configs".
    JsonValue cpi = JsonValue::array();
    JsonValue cycles = JsonValue::array();
    JsonValue status = JsonValue::array();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        JsonValue cpiRow = JsonValue::array();
        JsonValue cycleRow = JsonValue::array();
        JsonValue statusRow = JsonValue::array();
        for (std::size_t w = 0; w < suite.size(); ++w) {
            const WorkloadRun &cell = matrix.run(c, w);
            cpiRow.push(cell.worker.cpi());
            cycleRow.push(cell.totalCycles);
            statusRow.push(cell.ok() ? "ok" : runStatusName(cell.status));
        }
        cpi.push(std::move(cpiRow));
        cycles.push(std::move(cycleRow));
        status.push(std::move(statusRow));
    }
    cpiMatrix["cpi"] = std::move(cpi);
    cpiMatrix["cycles"] = std::move(cycles);
    cpiMatrix["status"] = std::move(status);

    const std::string json = doc.dump();

    if (cacheSaver.joinable())
        cacheSaver.join();
    fatalIf(!save_ok, "cannot save cache: ", save_error);

    if (!opt.metricsPath.empty()) {
        registry.root()["sizes"] = opt.small ? "small" : "full";
        if (cache)
            registry.root()["cache"] = cache->statsJson();
        fatalIf(!registry.writeTo(opt.metricsPath), "cannot write ",
                opt.metricsPath);
    }

    if (opt.outPath.empty()) {
        std::fputs(json.c_str(), stdout);
    } else {
        fatalIf(!writeTextFile(opt.outPath, json), "cannot write ",
                opt.outPath);
    }
    std::fprintf(stderr,
                 "tia-sweep: %zu configs x %zu workloads on %u worker "
                 "thread(s), CPI matrix %.1f ms\n",
                 configs.size(), suite.size(), matrix.jobs,
                 matrix.wallMs);
    if (cache)
        std::fprintf(stderr, "tia-sweep: %s\n",
                     cache->statsSummary().c_str());
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                fatalIf(i + 1 >= argc, arg, " needs an argument");
                return argv[++i];
            };
            if (arg == "--jobs") {
                opt.jobs = ThreadPool::parseJobs(next());
            } else if (arg == "--small") {
                opt.small = true;
            } else if (arg == "--suite-cpi") {
                opt.suiteCpi = true;
            } else if (arg == "--no-dse") {
                opt.dse = false;
            } else if (arg == "--configs") {
                opt.configs = next();
            } else if (arg == "--out") {
                opt.outPath = next();
            } else if (arg == "--metrics") {
                opt.metricsPath = next();
            } else if (arg == "--cache") {
                opt.cachePath = next();
            } else if (arg == "--cache-verify") {
                opt.cacheVerify = true;
            } else {
                std::fprintf(stderr, "unknown option %s\n", arg.c_str());
                return 2;
            }
        }
        return run(opt);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tia-sweep: %s\n", error.what());
        return 1;
    }
}
