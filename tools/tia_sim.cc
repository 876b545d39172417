/**
 * @file
 * tia-sim: command-line simulator, the C++ counterpart of the paper
 * toolchain's functional ISA simulator plus the cycle-accurate
 * microarchitecture models.
 *
 *   tia-sim prog.s [options]
 *
 * Options:
 *   -p FILE            parameter file (Table 1 keys)
 *   -u NAMES           microarchitecture ("functional" by default;
 *                      e.g. "TDX", "T|DX +P+Q", "T|D|X1|X2 +P+N+Q").
 *                      A comma-separated list (or "all" for all 32
 *                      configurations) sweeps the program over every
 *                      named microarchitecture.
 *   --jobs N           worker threads for multi-uarch sweeps
 *                      (default: hardware concurrency). Results are
 *                      printed in list order and are bit-identical to
 *                      a serial sweep.
 *   --pes N            fabric size (default: as many PEs as the
 *                      program targets)
 *   --connect A.O:B.I  wire PE A output O to PE B input I (repeat)
 *   --read-port P.A.D  memory read port on PE P (addr out A, data in D)
 *   --write-port P.A.D memory write port on PE P (addr out A, data out D)
 *   --reg P.R=V        preload register R of PE P with V
 *   --mem A=V          preload memory word A with V (repeat)
 *   --dump A[:N]       print N (default 1) memory words from A after
 *                      the run (repeat)
 *   --max-cycles N     simulation budget (default 100,000,000 — the
 *                      shared kDefaultMaxCycles)
 *   --quiescence N     quiescence/watchdog window in cycles
 *                      (default 10,000)
 *   --inject PLAN      fault-injection plan (see sim/fault.hh), e.g.
 *                      "seed=7;drop:ch0@p0.01;mispredict:pe0@p0.1"
 *   --watchdog         print the full hang diagnosis (wait-for chain,
 *                      blocked agents) when a run does not halt
 *   --trace FILE       write a Chrome trace_event JSON trace (load in
 *                      chrome://tracing or Perfetto); single cycle-
 *                      accurate -u only
 *   --trace-level L    trace granularity: "events" (default; issue,
 *                      retire, quash, predictor, park/wake) or
 *                      "cycles" (adds per-stage occupancy tracks and
 *                      per-cycle channel depths)
 *   --metrics FILE     write a tia-metrics/v1 JSON document with one
 *                      run entry per swept microarchitecture
 *                      (validate with tia-metrics-check)
 *   --stats            print host-side simulation statistics: wall
 *                      time, simulated cycles per host second, and how
 *                      many PE steps the idle-sleep optimization
 *                      skipped (cycle-accurate runs only)
 *   --cache FILE       content-addressed result cache (see
 *                      docs/simcache.md): memoize each swept run's
 *                      report under a digest of every input and
 *                      persist it to FILE. Cycle-accurate -u only;
 *                      incompatible with --trace (tracing is a side
 *                      effect a cached result cannot replay). With
 *                      --stats, the per-run wall line is replaced by
 *                      a deterministic "sim stats:" header so cached
 *                      and fresh runs print identical reports; cache
 *                      hit/miss counts go to stderr.
 *   --cache-verify     with --cache: re-simulate every hit and fail
 *                      unless the cached report is bit-identical
 *
 * Numeric arguments are decimal or 0x-prefixed hex and are range
 * checked: --reg against the fabric's PEs and registers, --pes up to
 * 4096, addresses and values to 32 bits.
 *
 * Single-PE programs with no wiring options get the conventional port
 * map automatically: read port on %o0/%i0, write port on %o1/%o2.
 *
 * Exit codes: 0 halted, 1 error, 2 usage, 3 quiescent (starved),
 * 4 deadlock, 5 livelock, 6 step limit — so scripts can distinguish
 * the failure classes. A multi-uarch sweep exits with the worst
 * (highest) per-run code.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/digest.hh"
#include "cache/serialize.hh"
#include "cache/simcache.hh"
#include "core/assembler.hh"
#include "core/logging.hh"
#include "exec/pipeline.hh"
#include "exec/thread_pool.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "sim/fault.hh"
#include "sim/functional.hh"
#include "uarch/cycle_fabric.hh"
#include "uarch/fabric_metrics.hh"

namespace {

using namespace tia;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open ", path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** printf into a growing string (per-run output is buffered so a
 *  parallel sweep prints deterministically in list order). */
void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    out += buf;
}

/** Largest --pes value: far beyond any fabric the paper models, small
 *  enough that a typo cannot exhaust memory. */
constexpr std::uint64_t kMaxPes = 4096;
constexpr std::uint64_t kMaxWord = 0xffffffffu;

/**
 * Parse one numeric argument of option @p what: decimal digits, or
 * 0x-prefixed hex digits, at most @p max. Anything else (a sign,
 * blanks, trailing text, overflow) exits with a diagnostic naming the
 * option.
 */
std::uint64_t
parseNumber(const std::string &text, const std::string &what,
            std::uint64_t max)
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const char *first = text.data() + (hex ? 2 : 0);
    const char *last = text.data() + text.size();
    std::uint64_t value = 0;
    const auto [end, error] =
        std::from_chars(first, last, value, hex ? 16 : 10);
    fatalIf(first == last || end != last ||
                error == std::errc::invalid_argument,
            what, " wants a non-negative integer, got \"", text, "\"");
    fatalIf(error == std::errc::result_out_of_range || value > max, what,
            " value ", text, " is out of range (at most ", max, ")");
    return value;
}

/** Split "12.3:4.5"-style arguments of option @p what on the given
 *  separators; every field is a 32-bit value. */
std::vector<unsigned long>
numbers(const std::string &text, const std::string &separators,
        const std::string &what)
{
    std::vector<unsigned long> values;
    std::string current;
    auto flush = [&] {
        values.push_back(static_cast<unsigned long>(
            parseNumber(current, what, kMaxWord)));
        current.clear();
    };
    for (char c : text) {
        if (separators.find(c) != std::string::npos) {
            flush();
        } else {
            current += c;
        }
    }
    flush();
    return values;
}

/** Split a comma-separated -u list, trimming surrounding blanks. */
std::vector<std::string>
splitUarchList(const std::string &text)
{
    std::vector<std::string> names;
    std::string current;
    auto flush = [&] {
        const auto begin = current.find_first_not_of(' ');
        const auto end = current.find_last_not_of(' ');
        fatalIf(begin == std::string::npos, "empty -u list entry in \"",
                text, "\"");
        names.push_back(current.substr(begin, end - begin + 1));
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
    return names;
}

struct Options
{
    std::string program;
    std::string paramsPath;
    std::string uarch = "functional";
    unsigned pes = 0;
    unsigned jobs = 0; ///< Sweep workers; 0 = hardware concurrency.
    std::vector<std::array<unsigned long, 4>> connects;
    std::vector<std::array<unsigned long, 3>> readPorts;
    std::vector<std::array<unsigned long, 3>> writePorts;
    std::vector<std::array<unsigned long, 3>> regs;
    std::vector<std::array<unsigned long, 2>> mems;
    std::vector<std::array<unsigned long, 2>> dumps;
    std::uint64_t maxCycles = kDefaultMaxCycles;
    std::uint64_t quiescenceWindow = kDefaultQuiescenceWindow;
    std::string injectPlan;
    bool watchdog = false;
    bool stats = false;
    std::string tracePath;       ///< Chrome trace_event JSON output.
    TraceLevel traceLevel = TraceLevel::Events;
    std::string metricsPath;     ///< tia-metrics/v1 JSON output.
    std::string cachePath;       ///< Persistent result cache file.
    bool cacheVerify = false;    ///< Re-simulate and compare on hits.
};

/**
 * One swept run's complete deterministic output: the exit code, the
 * rendered report text and the tia-metrics run entry (as a JSON
 * string; empty when --metrics is off). This is the unit the result
 * cache stores — everything host-time-dependent is kept out of it.
 */
struct RunReport
{
    int code = 1;
    std::string text;
    std::string metricsJson;
};

std::string
encodeRunReport(const RunReport &report)
{
    ByteWriter out;
    out.u32(static_cast<std::uint32_t>(report.code));
    out.str(report.text);
    out.str(report.metricsJson);
    return out.take();
}

std::optional<RunReport>
decodeRunReport(const std::string &payload)
{
    ByteReader in(payload);
    RunReport report;
    report.code = static_cast<int>(in.u32());
    report.text = in.str();
    report.metricsJson = in.str();
    if (!in.done())
        return std::nullopt;
    return report;
}

/** Map a run status to the tool's documented exit code. */
int
exitCode(RunStatus status)
{
    switch (status) {
      case RunStatus::Halted:
        return 0;
      case RunStatus::Quiescent:
        return 3;
      case RunStatus::Deadlock:
        return 4;
      case RunStatus::Livelock:
        return 5;
      case RunStatus::StepLimit:
        return 6;
      case RunStatus::Cancelled:
        return 7;
    }
    return 1;
}

void
printCounters(std::string &out, const char *label, const PerfCounters &c)
{
    appendf(out, "%s: cycles %llu, retired %llu, CPI %s\n", label,
            static_cast<unsigned long long>(c.cycles),
            static_cast<unsigned long long>(c.retired),
            formatCpi(c.cpi()).c_str());
    appendf(out,
            "  quashed %llu, predicate-hazard %llu, data-hazard "
            "%llu, forbidden %llu, no-trigger %llu\n",
            static_cast<unsigned long long>(c.quashed),
            static_cast<unsigned long long>(c.predicateHazard),
            static_cast<unsigned long long>(c.dataHazard),
            static_cast<unsigned long long>(c.forbidden),
            static_cast<unsigned long long>(c.noTrigger));
    if (c.predictions > 0) {
        appendf(out, "  predictions %llu (%.1f%% accurate)\n",
                static_cast<unsigned long long>(c.predictions),
                c.predictionAccuracy() * 100.0);
    }
    if (c.faultsInjected > 0) {
        appendf(out, "  faults injected %llu, recovered %llu\n",
                static_cast<unsigned long long>(c.faultsInjected),
                static_cast<unsigned long long>(c.faultRecoveries));
    }
}

int
run(const Options &opt)
{
    ArchParams params;
    if (!opt.paramsPath.empty())
        params = parseParams(readFile(opt.paramsPath));
    const Program program = assemble(readFile(opt.program), params);

    const unsigned pes = opt.pes ? opt.pes : program.numPes();
    FabricBuilder builder(params, pes);
    const bool default_ports = opt.connects.empty() &&
                               opt.readPorts.empty() &&
                               opt.writePorts.empty();
    if (default_ports && pes == 1) {
        builder.addReadPort(0, 0, 0);
        builder.addWritePort(0, 1, 2);
    }
    for (const auto &c : opt.connects) {
        builder.connect(static_cast<unsigned>(c[0]),
                        static_cast<unsigned>(c[1]),
                        static_cast<unsigned>(c[2]),
                        static_cast<unsigned>(c[3]));
    }
    for (const auto &r : opt.readPorts) {
        builder.addReadPort(static_cast<unsigned>(r[0]),
                            static_cast<unsigned>(r[1]),
                            static_cast<unsigned>(r[2]));
    }
    for (const auto &w : opt.writePorts) {
        builder.addWritePort(static_cast<unsigned>(w[0]),
                             static_cast<unsigned>(w[1]),
                             static_cast<unsigned>(w[2]));
    }
    for (const auto &r : opt.regs) {
        fatalIf(r[0] >= pes, "--reg PE ", r[0],
                " out of range: the fabric has ", pes, " PE(s)");
        fatalIf(r[1] >= params.numRegs, "--reg register ", r[1],
                " out of range: a PE has ", params.numRegs, " register(s)");
    }
    std::vector<std::vector<Word>> reg_files(pes);
    for (const auto &r : opt.regs) {
        auto &file = reg_files[r[0]];
        if (file.size() <= r[1])
            file.resize(r[1] + 1, 0);
        file[r[1]] = static_cast<Word>(r[2]);
    }
    for (unsigned pe = 0; pe < pes; ++pe) {
        if (!reg_files[pe].empty())
            builder.setInitialRegs(pe, reg_files[pe]);
    }
    const FabricConfig config = builder.build();

    auto preload = [&](Memory &memory) {
        for (const auto &m : opt.mems)
            memory.write(static_cast<Word>(m[0]),
                         static_cast<Word>(m[1]));
    };
    auto dump = [&](std::string &out, const Memory &memory) {
        for (const auto &d : opt.dumps) {
            const unsigned long count = d[1] ? d[1] : 1;
            for (unsigned long i = 0; i < count; ++i) {
                const Word addr = static_cast<Word>(d[0] + i);
                appendf(out, "mem[%u] = %u (0x%08x)\n", addr,
                        memory.read(addr), memory.read(addr));
            }
        }
    };
    const bool tracing = !opt.tracePath.empty();
    if (opt.uarch == "functional") {
        fatalIf(!opt.injectPlan.empty(),
                "--inject requires a cycle-accurate -u microarchitecture");
        fatalIf(opt.stats,
                "--stats requires a cycle-accurate -u microarchitecture");
        fatalIf(tracing, "--trace requires a cycle-accurate -u "
                         "microarchitecture");
        fatalIf(!opt.metricsPath.empty(),
                "--metrics requires a cycle-accurate -u "
                "microarchitecture");
        fatalIf(!opt.cachePath.empty(),
                "--cache requires a cycle-accurate -u microarchitecture");
        FunctionalFabric fabric(config, program);
        preload(fabric.memory());
        const RunStatus status = fabric.run(opt.maxCycles);
        std::printf("functional simulation: %s\n", runStatusName(status));
        for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
            std::printf("PE %u: %llu instructions%s\n", pe,
                        static_cast<unsigned long long>(
                            fabric.pe(pe).dynamicInstructions()),
                        fabric.pe(pe).halted() ? " (halted)" : "");
        }
        std::string text;
        dump(text, fabric.memory());
        std::fputs(text.c_str(), stdout);
        return exitCode(status);
    }

    // Resolve the microarchitecture sweep list up front so a typo
    // fails before any simulation starts.
    std::vector<PeConfig> uarchs;
    for (const std::string &name : splitUarchList(opt.uarch)) {
        if (name == "all") {
            const auto all = allConfigs();
            uarchs.insert(uarchs.end(), all.begin(), all.end());
            continue;
        }
        fatalIf(name == "functional",
                "\"functional\" cannot appear in a multi-uarch sweep");
        const auto uarch = parseConfigName(name);
        fatalIf(!uarch.has_value(), "unknown microarchitecture \"", name,
                "\" (try e.g. \"TDX\", \"T|DX +P+Q\", or \"all\")");
        uarchs.push_back(*uarch);
    }

    fatalIf(tracing && uarchs.size() > 1,
            "--trace wants a single -u microarchitecture (traces from a "
            "sweep would interleave)");
    fatalIf(tracing && !opt.cachePath.empty(),
            "--cache cannot replay traces; drop --trace or the cache");
    fatalIf(opt.cacheVerify && opt.cachePath.empty(),
            "--cache-verify needs --cache (there is nothing to verify "
            "without a warm tier)");

    std::optional<FaultPlan> plan;
    if (!opt.injectPlan.empty())
        plan.emplace(FaultPlan::parse(opt.injectPlan));

    std::optional<SimCache> cache;
    if (!opt.cachePath.empty()) {
        cache.emplace();
        cache->setVerifyHits(opt.cacheVerify);
        std::string load_error;
        if (!cache->load(opt.cachePath, &load_error) ||
            !load_error.empty()) {
            std::fprintf(stderr, "tia-sim: %s\n", load_error.c_str());
        }
    }

    // Cache key for one swept microarchitecture: everything the report
    // text and metrics entry are a function of. Only the uarch varies
    // across the sweep, so it goes last and the rest is digested once.
    const Digest128Builder reportInputs = [&] {
        ByteWriter key;
        key.u32(kCacheSchemaVersion);
        key.str("tia.sim-report");
        serializeProgram(key, program);
        serializeFabricConfig(key, config);
        key.u64(opt.mems.size());
        for (const auto &m : opt.mems) {
            key.u64(m[0]);
            key.u64(m[1]);
        }
        key.u64(opt.dumps.size());
        for (const auto &d : opt.dumps) {
            key.u64(d[0]);
            key.u64(d[1]);
        }
        key.u64(opt.maxCycles);
        key.u64(opt.quiescenceWindow);
        key.u8(opt.watchdog ? 1 : 0);
        key.u8(opt.stats ? 1 : 0);
        key.u8(opt.metricsPath.empty() ? 0 : 1);
        serializeFaultPlan(key, plan ? &*plan : nullptr);
        return Digest128Builder().update(key.data());
    }();
    auto reportKey = [&](const PeConfig &uarch) {
        ByteWriter key;
        serializePeConfig(key, uarch);
        return Digest128Builder(reportInputs).update(key.data()).finish();
    };

    // Per-run metrics entries, written by index — safe under a
    // parallel sweep, assembled in list order afterwards.
    std::vector<JsonValue> metricsRuns(uarchs.size());

    // Everything printed for one finished run. @p chrome is the run's
    // trace sink (nullptr when tracing is off).
    auto renderReport = [&](CycleFabric &fabric, const PeConfig &uarch,
                            RunStatus status, FaultInjector *injector,
                            double host_seconds,
                            ChromeTraceSink *chrome) -> RunReport {
        std::string text;
        appendf(text, "%s simulation: %s after %llu cycles\n",
                uarch.name().c_str(), runStatusName(status),
                static_cast<unsigned long long>(fabric.now()));
        const HangReport &report = fabric.hangReport();
        if (!report.summary.empty())
            appendf(text, "  %s\n", report.summary.c_str());
        if (opt.watchdog) {
            for (const auto &line : report.waitChain)
                appendf(text, "  %s\n", line.c_str());
            for (const auto &agent : report.blockedAgents)
                appendf(text, "  blocked: %s\n", agent.c_str());
        }
        for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
            std::string label = "PE " + std::to_string(pe);
            printCounters(text, label.c_str(), fabric.pe(pe).counters());
        }
        if (injector != nullptr) {
            appendf(text, "fault injection (%s):\n%s",
                    injector->plan().toString().c_str(),
                    injector->stats().summary().c_str());
        }
        if (opt.stats) {
            const FabricStepStats steps = fabric.stepStats();
            const std::uint64_t total =
                steps.peStepsExecuted + steps.peStepsSkipped;
            if (cache) {
                // Host wall time is not a function of the inputs; a
                // cached report must render identically to a fresh
                // one, so the header degrades to a deterministic line.
                appendf(text, "sim stats:\n");
            } else {
                appendf(text,
                        "host stats: %.3f ms wall, %.0f simulated "
                        "cycles/s\n",
                        host_seconds * 1e3,
                        host_seconds > 0.0
                            ? static_cast<double>(fabric.now()) /
                                  host_seconds
                            : 0.0);
            }
            appendf(text,
                    "  PE steps: %llu executed, %llu skipped while "
                    "asleep (%.1f%%)\n",
                    static_cast<unsigned long long>(steps.peStepsExecuted),
                    static_cast<unsigned long long>(steps.peStepsSkipped),
                    total > 0
                        ? 100.0 * static_cast<double>(steps.peStepsSkipped) /
                              static_cast<double>(total)
                        : 0.0);
        }
        if (chrome != nullptr) {
            fatalIf(!chrome->writeTo(opt.tracePath), "cannot write ",
                    opt.tracePath);
            appendf(text, "trace: %s\n", opt.tracePath.c_str());
        }
        RunReport result;
        if (!opt.metricsPath.empty()) {
            JsonValue entry = fabricRunMetrics(fabric, uarch, status);
            if (injector != nullptr) {
                JsonValue faults = JsonValue::object();
                faults["plan"] = injector->plan().toString();
                faults["total_fired"] = injector->stats().totalFired();
                JsonValue lines = JsonValue::array();
                for (const auto &line : injector->stats().lines) {
                    JsonValue item = JsonValue::object();
                    item["name"] = line.name;
                    item["fired"] = line.fired;
                    item["declined"] = line.declined;
                    lines.push(std::move(item));
                }
                faults["lines"] = std::move(lines);
                entry["faults"] = std::move(faults);
            }
            result.metricsJson = entry.dump();
        }
        dump(text, fabric.memory());
        result.code = exitCode(status);
        result.text = std::move(text);
        return result;
    };

    // One task per microarchitecture; each owns its fabric and
    // injector, so the sweep result does not depend on --jobs.
    auto simulateFresh = [&](std::size_t index) -> RunReport {
        const PeConfig &uarch = uarchs[index];
        std::optional<FaultInjector> injector;
        if (plan)
            injector.emplace(*plan);

        CycleFabric fabric(config, program, uarch,
                           injector ? &*injector : nullptr);
        preload(fabric.memory());

        // The trace sink lives on this task's stack — --trace is
        // rejected for multi-uarch sweeps, so at most one task builds it.
        std::optional<ChromeTraceSink> chrome;
        if (!opt.tracePath.empty()) {
            chrome.emplace();
            for (unsigned pe = 0; pe < fabric.numPes(); ++pe) {
                chrome->setPeMetadata(pe, "PE " + std::to_string(pe),
                                      uarch.shape.segmentNames());
            }
            fabric.setTraceSink(&*chrome, opt.traceLevel);
        }

        const auto host_start = std::chrono::steady_clock::now();
        FabricRunOptions runOptions;
        runOptions.maxCycles = opt.maxCycles;
        runOptions.quiescenceWindow = opt.quiescenceWindow;
        const RunStatus status = fabric.run(runOptions);
        const double host_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - host_start)
                .count();
        return renderReport(fabric, uarch, status,
                            injector ? &*injector : nullptr,
                            host_seconds, chrome ? &*chrome : nullptr);
    };

    // Cached dispatch around the fresh simulation; the metrics entry
    // rides inside the cached payload and is re-parsed here so a hit
    // fills metricsRuns exactly like a fresh run.
    auto simulate = [&](std::size_t index) {
        RunReport report;
        if (cache) {
            const Digest128 key = reportKey(uarchs[index]);
            const std::string payload = cache->getOrCompute(
                key, [&, index] { return encodeRunReport(
                                      simulateFresh(index)); });
            if (auto decoded = decodeRunReport(payload)) {
                report = std::move(*decoded);
            } else {
                // Undecodable persisted payload: degrade to a miss.
                cache->erase(key);
                report = simulateFresh(index);
                cache->put(key, encodeRunReport(report));
            }
        } else {
            report = simulateFresh(index);
        }
        if (!opt.metricsPath.empty() && !report.metricsJson.empty()) {
            std::string parse_error;
            auto entry = JsonValue::parse(report.metricsJson,
                                          &parse_error);
            fatalIf(!entry.has_value(), "corrupt cached metrics entry: ",
                    parse_error);
            metricsRuns[index] = std::move(*entry);
        }
        return std::make_pair(report.code, std::move(report.text));
    };

    std::vector<std::pair<int, std::string>> results;
    results.reserve(uarchs.size());
    const SweepPipeline pipeline(uarchs.size() == 1 ? 1 : opt.jobs);
    const PipelineResult sweep = pipeline.run(
        uarchs.size(), simulate,
        [&](std::size_t, std::pair<int, std::string> &&result) {
            results.push_back(std::move(result));
        });

    if (cache) {
        std::string save_error;
        fatalIf(!cache->save(opt.cachePath, &save_error),
                "cannot save cache: ", save_error);
        std::fprintf(stderr, "tia-sim: %s\n",
                     cache->statsSummary().c_str());
    }

    int worst = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0)
            std::printf("\n");
        std::fputs(results[i].second.c_str(), stdout);
        worst = std::max(worst, results[i].first);
    }
    if (uarchs.size() > 1) {
        std::printf("\nswept %zu microarchitectures on %u worker "
                    "thread(s) in %.1f ms\n",
                    uarchs.size(), sweep.jobs, sweep.wallMs);
    }
    if (!opt.metricsPath.empty()) {
        MetricsRegistry registry("tia-sim");
        registry.root()["program"] = opt.program;
        for (auto &entry : metricsRuns)
            registry.addRun(std::move(entry));
        fatalIf(!registry.writeTo(opt.metricsPath), "cannot write ",
                opt.metricsPath);
        std::printf("metrics: %s\n", opt.metricsPath.c_str());
    }
    return worst;
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
            if (arg == "-p") {
                opt.paramsPath = next();
            } else if (arg == "-u") {
                opt.uarch = next();
            } else if (arg == "--pes") {
                opt.pes = static_cast<unsigned>(
                    parseNumber(next(), arg, kMaxPes));
            } else if (arg == "--jobs") {
                opt.jobs = ThreadPool::parseJobs(next());
            } else if (arg == "--connect") {
                const auto v = numbers(next(), ".:", arg);
                fatalIf(v.size() != 4, "--connect wants A.O:B.I");
                opt.connects.push_back({v[0], v[1], v[2], v[3]});
            } else if (arg == "--read-port") {
                const auto v = numbers(next(), ".", arg);
                fatalIf(v.size() != 3, "--read-port wants P.A.D");
                opt.readPorts.push_back({v[0], v[1], v[2]});
            } else if (arg == "--write-port") {
                const auto v = numbers(next(), ".", arg);
                fatalIf(v.size() != 3, "--write-port wants P.A.D");
                opt.writePorts.push_back({v[0], v[1], v[2]});
            } else if (arg == "--reg") {
                const auto v = numbers(next(), ".=", arg);
                fatalIf(v.size() != 3, "--reg wants P.R=V");
                opt.regs.push_back({v[0], v[1], v[2]});
            } else if (arg == "--mem") {
                const auto v = numbers(next(), "=", arg);
                fatalIf(v.size() != 2, "--mem wants A=V");
                opt.mems.push_back({v[0], v[1]});
            } else if (arg == "--dump") {
                const auto v = numbers(next(), ":", arg);
                fatalIf(v.empty() || v.size() > 2, "--dump wants A[:N]");
                opt.dumps.push_back({v[0], v.size() > 1 ? v[1] : 1});
            } else if (arg == "--max-cycles") {
                opt.maxCycles = parseNumber(next(), arg, UINT64_MAX);
            } else if (arg == "--quiescence") {
                opt.quiescenceWindow =
                    parseNumber(next(), arg, UINT64_MAX);
            } else if (arg == "--inject") {
                opt.injectPlan = next();
            } else if (arg == "--watchdog") {
                opt.watchdog = true;
            } else if (arg == "--stats") {
                opt.stats = true;
            } else if (arg == "--trace") {
                opt.tracePath = next();
            } else if (arg == "--trace-level") {
                const std::string level = next();
                if (level == "events") {
                    opt.traceLevel = TraceLevel::Events;
                } else if (level == "cycles") {
                    opt.traceLevel = TraceLevel::Cycles;
                } else {
                    tia::fatalIf(true, "--trace-level wants \"events\" "
                                       "or \"cycles\", got \"",
                                 level, "\"");
                }
            } else if (arg == "--metrics") {
                opt.metricsPath = next();
            } else if (arg == "--cache") {
                opt.cachePath = next();
            } else if (arg == "--cache-verify") {
                opt.cacheVerify = true;
            } else if (!arg.empty() && arg[0] != '-' &&
                       opt.program.empty()) {
                opt.program = arg;
            } else {
                std::fprintf(stderr, "unknown option %s\n", arg.c_str());
                return 2;
            }
        }
        tia::fatalIf(opt.program.empty(), "no program given");
        return run(opt);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tia-sim: %s\n", error.what());
        return 1;
    }
}
