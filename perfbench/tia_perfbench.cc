/**
 * @file
 * tia-perfbench: the in-process half of the repository benchmark.
 *
 * perfbench/run.py drives the shipped tia-sweep and tia-serve binaries
 * for the end-to-end numbers and calls this helper for the parts that
 * need the libraries themselves:
 *
 *   tia-perfbench setup [--tier FILE] --reps N
 *       Time the sweep set-up (allWorkloads + SimCache::load) N times.
 *
 *   tia-perfbench loadgen --socket PATH --seed S --conns K
 *                 --phase LABEL:RATE:SECONDS ... [options]
 *       Open-loop Poisson load against a running tia-serve daemon.
 *
 *   tia-perfbench spawn -- COMMAND ARGS...
 *       Run COMMAND and report its exit code, wall time and peak RSS.
 *       A child's peak RSS includes the memory of the process it was
 *       forked from, so it is read through this small launcher rather
 *       than from run.py.
 *
 *   tia-perfbench trace --seed S --jobs N --dir DIR --socket PATH ...
 *       The outside-in traced walk: call each module's public entry
 *       points, wrap every call in a span, and write the spans plus
 *       exact counts to DIR/trace.json for run.py to analyse.
 *
 * Every subcommand prints one JSON document on stdout. Spans stay in
 * memory until the walk ends; nothing is written while timing.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cache/run_cache.hh"
#include "cache/simcache.hh"
#include "exec/pipeline.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/registry.hh"
#include "vlsi/dse.hh"
#include "workloads/runner.hh"

namespace {

using namespace tia;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
        .count();
}

[[noreturn]] void
die(const std::string &why)
{
    std::fprintf(stderr, "tia-perfbench: %s\n", why.c_str());
    std::exit(1);
}

// ---------------------------------------------------------------------
// Spans: name, tag, start, end, parent and thread, kept in memory.

struct Span
{
    std::string name;
    std::string tag;
    double startUs = 0.0;
    double endUs = 0.0;
    long parent = -1;
    unsigned thread = 0;
};

class Tracer
{
  public:
    bool enabled = false;

    long
    begin(std::string name, std::string tag, long parent)
    {
        const double start = nowUs();
        std::lock_guard lock(mu_);
        spans_.push_back({std::move(name), std::move(tag), start, start,
                          parent, threadIndexLocked()});
        return static_cast<long>(spans_.size() - 1);
    }

    void
    end(long id)
    {
        const double end = nowUs();
        std::lock_guard lock(mu_);
        spans_[static_cast<std::size_t>(id)].endUs = end;
    }

    JsonValue
    json() const
    {
        std::lock_guard lock(mu_);
        JsonValue out = JsonValue::array();
        for (const Span &s : spans_) {
            JsonValue row = JsonValue::array();
            row.push(s.name);
            row.push(s.tag);
            row.push(s.startUs);
            row.push(s.endUs);
            row.push(static_cast<std::int64_t>(s.parent));
            row.push(s.thread);
            out.push(std::move(row));
        }
        return out;
    }

  private:
    unsigned
    threadIndexLocked()
    {
        const auto id = std::this_thread::get_id();
        const auto it = threads_.find(id);
        if (it != threads_.end())
            return it->second;
        const unsigned index = static_cast<unsigned>(threads_.size());
        threads_.emplace(id, index);
        return index;
    }

    mutable std::mutex mu_;
    std::deque<Span> spans_;
    std::map<std::thread::id, unsigned> threads_;
};

Tracer g_tracer;
thread_local std::vector<long> t_stack;

/** RAII span; parent is the innermost open span on this thread unless
 *  given explicitly (pool tasks name the span that submitted them). */
class Scoped
{
  public:
    explicit Scoped(const char *name, std::string tag = {},
                    long parent = -2)
    {
        if (!g_tracer.enabled)
            return;
        if (parent == -2)
            parent = t_stack.empty() ? -1 : t_stack.back();
        id_ = g_tracer.begin(name, std::move(tag), parent);
        t_stack.push_back(id_);
    }
    ~Scoped()
    {
        if (id_ < 0)
            return;
        t_stack.pop_back();
        g_tracer.end(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    long id() const { return id_; }

  private:
    long id_ = -1;
};

// ---------------------------------------------------------------------
// Small helpers.

std::string
argValue(int &i, int argc, char **argv)
{
    if (i + 1 >= argc)
        die(std::string(argv[i]) + " needs an argument");
    return argv[++i];
}

JsonValue
numbers(const std::vector<double> &values)
{
    JsonValue out = JsonValue::array();
    for (double v : values)
        out.push(v);
    return out;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The seeded order in which a run visits the 32 configs. */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::mt19937_64 rng(seed ^ 0x5eed0f7a11ull);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

// ---------------------------------------------------------------------
// setup: the sweep's set-up, as tia-sweep does it before simulating.

int
cmdSetup(int argc, char **argv)
{
    std::string tier;
    unsigned reps = 5;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tier")
            tier = argValue(i, argc, argv);
        else if (arg == "--reps")
            reps = static_cast<unsigned>(std::stoul(argValue(i, argc, argv)));
        else
            die("setup: unknown option " + arg);
    }
    std::vector<double> seconds;
    for (unsigned r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        const std::vector<Workload> suite =
            allWorkloads(WorkloadSizes::full());
        SimCache cache;
        std::string error;
        if (!tier.empty() && (!cache.load(tier, &error) || !error.empty()))
            die("setup: cannot load tier: " + error);
        seconds.push_back(secondsSince(start));
        if (suite.size() != 10 || cache.size() != (tier.empty() ? 0 : 320))
            die("setup: expected 10 workloads and a 320-cell tier");
    }
    JsonValue out = JsonValue::object();
    out["setup_s"] = numbers(seconds);
    std::puts(out.dump().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// spawn: fork, exec, wait4.

int
cmdSpawn(int argc, char **argv)
{
    if (argc < 4 || std::string(argv[2]) != "--")
        die("usage: tia-perfbench spawn -- COMMAND ARGS...");
    const auto start = Clock::now();
    const pid_t pid = ::fork();
    if (pid < 0)
        die("fork failed");
    if (pid == 0) {
        const int null = ::open("/dev/null", O_WRONLY);
        if (null >= 0)
            ::dup2(null, STDOUT_FILENO);
        ::execvp(argv[3], argv + 3);
        ::_exit(127);
    }
    int status = 0;
    struct rusage usage = {};
    if (::wait4(pid, &status, 0, &usage) != pid)
        die("wait4 failed");
    JsonValue out = JsonValue::object();
    out["exit"] = WIFEXITED(status) ? WEXITSTATUS(status)
                                    : 128 + WTERMSIG(status);
    out["wall_s"] = secondsSince(start);
    out["maxrss_kb"] = static_cast<std::int64_t>(usage.ru_maxrss);
    std::puts(out.dump().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// Serve traffic: seeded Zipf-like draws over the 320 (workload, uarch)
// keys, a seeded share sent with "cache": false, Poisson arrivals.

struct Key
{
    std::string workload;
    std::string uarch;
};

std::vector<Key>
allKeys()
{
    std::vector<Key> keys;
    for (const Workload &w : allWorkloads(WorkloadSizes::small())) {
        for (const PeConfig &c : allConfigs())
            keys.push_back({w.name, c.name()});
    }
    return keys;
}

struct Request
{
    double dueUs = 0.0; ///< Offset from the phase start.
    std::size_t key = 0;
    bool nocache = false;
};

struct Outcome
{
    double latencyMs = -1.0; ///< From due time; < 0 = failed.
    double lateMs = 0.0;     ///< Send time minus due time.
    double oversleepMs = 0.0; ///< Lateness while a sender was free.
    std::string error;       ///< Typed error code, "" when ok.
    Clock::time_point done;  ///< When the reply (or failure) arrived.
};

class Traffic
{
  public:
    Traffic(std::size_t keys, std::uint64_t seed, double zipf,
            double nocacheShare)
        : rng_(seed), nocacheShare_(nocacheShare)
    {
        // Popularity rank of each key is a seeded permutation.
        rank_ = permutation(keys, seed);
        double sum = 0.0;
        for (std::size_t r = 0; r < keys; ++r) {
            sum += 1.0 / std::pow(static_cast<double>(r + 1), zipf);
            cdf_.push_back(sum);
        }
        for (double &c : cdf_)
            c /= sum;
    }

    std::vector<Request>
    schedule(double rate, double seconds)
    {
        std::exponential_distribution<double> gap(rate / 1e6);
        std::uniform_real_distribution<double> u(0.0, 1.0);
        std::vector<Request> out;
        for (double t = gap(rng_); t < seconds * 1e6; t += gap(rng_)) {
            const std::size_t r = static_cast<std::size_t>(
                std::lower_bound(cdf_.begin(), cdf_.end(), u(rng_)) -
                cdf_.begin());
            out.push_back({t, rank_[std::min(r, rank_.size() - 1)],
                           u(rng_) < nocacheShare_});
        }
        return out;
    }

  private:
    std::mt19937_64 rng_;
    double nocacheShare_;
    std::vector<std::size_t> rank_;
    std::vector<double> cdf_;
};

JsonValue
simulateParams(const Key &key, bool nocache)
{
    JsonValue params = JsonValue::object();
    params["workload"] = key.workload;
    params["uarch"] = key.uarch;
    params["sizes"] = "small";
    if (nocache)
        params["cache"] = false;
    return params;
}

/** Cycles each key answered with; a key seen with two values fails. */
struct CycleLedger
{
    std::mutex mu;
    std::map<std::size_t, std::uint64_t> cycles;
    std::size_t conflicts = 0;
    std::size_t badChecks = 0;

    void
    note(std::size_t key, const ServeResponse &r)
    {
        const JsonValue *c = r.result.find("cycles");
        const JsonValue *check = r.result.find("check");
        std::lock_guard lock(mu);
        if (c == nullptr || check == nullptr || !check->isString() ||
            check->str() != "ok") {
            ++badChecks;
            return;
        }
        const auto v = static_cast<std::uint64_t>(c->number());
        const auto [it, fresh] = cycles.emplace(key, v);
        if (!fresh && it->second != v)
            ++conflicts;
    }
};

ServeClient
connectOrDie(const std::string &socket)
{
    std::string error;
    auto client = ServeClient::connectUnix(socket, &error);
    if (!client)
        die("cannot connect to " + socket + ": " + error);
    client->setResponseTimeoutMs(30'000);
    return std::move(*client);
}

/**
 * One call, classified; the serve.call span and Outcome::done cover the
 * round trip only. When tracing, the parse of the result's bytes (obs
 * layer) is timed after it, outside the latency samples.
 */
Outcome
sendRequest(ServeClient &client, const std::vector<Key> &keys,
            const Request &req, CycleLedger &ledger, const char *tag)
{
    Outcome out;
    std::optional<ServeResponse> response;
    {
        Scoped span("serve.call", tag);
        std::string error;
        response = client.call(
            "simulate", simulateParams(keys[req.key], req.nocache), &error);
    }
    out.done = Clock::now();
    if (!response) {
        out.error = "transport";
        return out;
    }
    if (!response->ok) {
        out.error = serveErrorCode(response->error);
        return out;
    }
    ledger.note(req.key, *response);
    if (g_tracer.enabled) {
        const std::string bytes = response->result.dump();
        Scoped parse("obs.json_parse");
        JsonValue::parse(bytes);
    }
    return out;
}

/**
 * Run one open-loop phase on @p clients (one sender thread each). A
 * sender takes the next request, sleeps until it is due, sends it and
 * waits for the reply, so a request can be late only because every
 * sender was busy (queueing, counted in its latency) or because the
 * sender woke late (the generator's own lag, reported separately).
 */
std::vector<Outcome>
runPhase(std::vector<ServeClient> &clients, const std::vector<Key> &keys,
         const std::vector<Request> &reqs, CycleLedger &ledger)
{
    std::vector<Outcome> outcomes(reqs.size());
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    const long parent = t_stack.empty() ? -1 : t_stack.back();
    auto sender = [&](ServeClient &client) {
        Scoped lane("serve.sender", {}, parent);
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= reqs.size())
                return;
            const auto freeAt = Clock::now();
            const auto due =
                start + std::chrono::nanoseconds(
                            static_cast<long>(reqs[i].dueUs * 1e3));
            // Sleep to just before the due time, then spin: sleeping
            // alone wakes up to ~100 us late on a loaded host.
            if (due - Clock::now() > std::chrono::microseconds(200))
                std::this_thread::sleep_until(
                    due - std::chrono::microseconds(150));
            while (Clock::now() < due) {
            }
            const auto sent = Clock::now();
            Outcome out = sendRequest(client, keys, reqs[i], ledger,
                                      reqs[i].nocache ? "nocache" : "cache");
            const auto ms = [](auto d) {
                return std::chrono::duration<double, std::milli>(d).count();
            };
            out.lateMs = ms(sent - due);
            out.oversleepMs = ms(sent - std::max(due, freeAt));
            if (out.error.empty())
                out.latencyMs = ms(out.done - due);
            outcomes[i] = std::move(out);
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < clients.size(); ++c)
        threads.emplace_back(sender, std::ref(clients[c]));
    sender(clients[0]);
    for (std::thread &t : threads)
        t.join();
    return outcomes;
}

JsonValue
phaseJson(const std::string &label, double rate,
          const std::vector<Outcome> &outcomes)
{
    JsonValue lat = JsonValue::array(), late = JsonValue::array(),
              over = JsonValue::array();
    JsonValue errors = JsonValue::object();
    std::map<std::string, std::uint64_t> byCode;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        lat.push(outcomes[i].latencyMs);
        late.push(outcomes[i].lateMs);
        over.push(outcomes[i].oversleepMs);
        if (!outcomes[i].error.empty())
            ++byCode[outcomes[i].error];
    }
    for (const auto &[code, n] : byCode)
        errors[code] = n;
    JsonValue out = JsonValue::object();
    out["label"] = label;
    out["rate"] = rate;
    out["latency_ms"] = std::move(lat);
    out["late_ms"] = std::move(late);
    out["oversleep_ms"] = std::move(over);
    out["errors"] = std::move(errors);
    return out;
}

struct LoadOptions
{
    std::string socket;
    std::uint64_t seed = 1;
    unsigned conns = 1;
    double zipf = 1.0;
    double nocacheShare = 0.1;
    struct Phase
    {
        std::string label;
        double rate = 0.0;
        double seconds = 0.0;
    };
    std::vector<Phase> phases;
};

bool
parseLoadOption(LoadOptions &opt, int &i, int argc, char **argv)
{
    const std::string arg = argv[i];
    if (arg == "--socket") {
        opt.socket = argValue(i, argc, argv);
    } else if (arg == "--seed") {
        opt.seed = std::stoull(argValue(i, argc, argv));
    } else if (arg == "--conns") {
        opt.conns = static_cast<unsigned>(std::stoul(argValue(i, argc, argv)));
    } else if (arg == "--zipf") {
        opt.zipf = std::stod(argValue(i, argc, argv));
    } else if (arg == "--nocache-share") {
        opt.nocacheShare = std::stod(argValue(i, argc, argv));
    } else if (arg == "--phase") {
        const std::string spec = argValue(i, argc, argv);
        const auto a = spec.find(':'), b = spec.rfind(':');
        if (a == std::string::npos || a == b)
            die("--phase wants LABEL:RATE:SECONDS, got " + spec);
        opt.phases.push_back({spec.substr(0, a),
                              std::stod(spec.substr(a + 1, b - a - 1)),
                              std::stod(spec.substr(b + 1))});
    } else {
        return false;
    }
    return true;
}

JsonValue
statsOrDie(ServeClient &client)
{
    std::string error;
    Scoped span("serve.stats");
    auto r = client.call("stats", JsonValue::object(), &error);
    if (!r || !r->ok)
        die("stats RPC failed: " + error);
    return r->result;
}

/** Warm-up: every key once, closed loop, so cached draws then hit. */
void
warmUp(ServeClient &client, const std::vector<Key> &keys,
       std::uint64_t seed, CycleLedger &ledger, std::size_t *failed)
{
    Scoped span("serve.warmup");
    for (std::size_t k : permutation(keys.size(), seed + 1)) {
        const Outcome out =
            sendRequest(client, keys, {0.0, k, false}, ledger, "warmup");
        if (!out.error.empty())
            ++*failed;
    }
}

/** Drive the phases; returns the loadgen JSON document. */
JsonValue
driveLoad(const LoadOptions &opt)
{
    const std::vector<Key> keys = allKeys();
    std::vector<ServeClient> clients;
    for (unsigned c = 0; c < std::max(1u, opt.conns); ++c)
        clients.push_back(connectOrDie(opt.socket));
    CycleLedger ledger;
    std::size_t warmFailed = 0;
    warmUp(clients[0], keys, opt.seed, ledger, &warmFailed);

    Traffic traffic(keys.size(), opt.seed, opt.zipf, opt.nocacheShare);
    JsonValue phases = JsonValue::array();
    for (const LoadOptions::Phase &p : opt.phases) {
        Scoped span("serve.phase", p.label);
        const std::vector<Request> reqs = traffic.schedule(p.rate, p.seconds);
        phases.push(phaseJson(p.label, p.rate,
                              runPhase(clients, keys, reqs, ledger)));
    }

    JsonValue out = JsonValue::object();
    out["phases"] = std::move(phases);
    out["warmup_failed"] = warmFailed;
    out["stats"] = statsOrDie(clients[0]);
    JsonValue cycles = JsonValue::object();
    for (const auto &[k, v] : ledger.cycles)
        cycles[keys[k].workload + "/" + keys[k].uarch] = v;
    out["cycles"] = std::move(cycles);
    out["cycle_conflicts"] = ledger.conflicts;
    out["bad_checks"] = ledger.badChecks;
    return out;
}

int
cmdLoadgen(int argc, char **argv)
{
    LoadOptions opt;
    for (int i = 2; i < argc; ++i) {
        if (!parseLoadOption(opt, i, argc, argv))
            die(std::string("loadgen: unknown option ") + argv[i]);
    }
    if (opt.socket.empty() || opt.phases.empty())
        die("loadgen needs --socket and at least one --phase");
    std::puts(driveLoad(opt).dump().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// trace: the outside-in walk over every layer.

/**
 * The matrix as tia-sweep computes it, but with each layer's public
 * entry point called (and spanned) from here: key, lookup, runCycle,
 * encode, put per cell on a SweepPipeline, and the sink building the
 * per-cell metrics entries in order.
 */
std::vector<WorkloadRun>
matrixPass(const char *label, const std::vector<Workload> &suite,
           const std::vector<PeConfig> &configs,
           const std::vector<std::size_t> &order, unsigned jobs,
           SimCache &cache, double *wallS, std::size_t *failed)
{
    Scoped pass("exec.pipeline", label);
    const std::size_t nw = suite.size();
    std::vector<WorkloadRun> cells(configs.size() * nw);
    const CycleRunOptions plain;
    const auto task = [&](std::size_t i) {
        const std::size_t c = order[i / nw], w = i % nw;
        Scoped span("exec.task", suite[w].name, pass.id());
        Digest128 key;
        {
            Scoped s("cache.key", "full");
            key = workloadRunKey(suite[w], configs[c], plain);
        }
        std::optional<std::string> payload;
        {
            Scoped s("cache.lookup");
            payload = cache.lookup(key);
        }
        if (payload) {
            Scoped s("cache.decode");
            std::optional<WorkloadRun> decoded = decodeWorkloadRun(*payload);
            if (!decoded)
                die("undecodable cache payload");
            return std::move(*decoded);
        }
        WorkloadRun run;
        {
            Scoped s("uarch.runCycle", suite[w].name);
            run = runCycle(suite[w], configs[c], plain);
        }
        std::string encoded;
        {
            Scoped s("cache.encode");
            encoded = encodeWorkloadRun(run);
        }
        Scoped s("cache.put");
        cache.put(key, std::move(encoded));
        return run;
    };
    MetricsRegistry registry("tia-perfbench");
    const auto sink = [&](std::size_t i, WorkloadRun run) {
        Scoped span("exec.sink");
        const std::size_t c = order[i / nw], w = i % nw;
        if (!run.ok())
            ++*failed;
        registry.addRun(workloadRunMetrics(run, configs[c], suite[w].name));
        cells[c * nw + w] = std::move(run);
    };
    const PipelineResult r =
        SweepPipeline(jobs).run(configs.size() * nw, task, sink);
    *wallS = r.wallMs / 1e3;
    return cells;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Warm read path: key, lookup, decode for every cell. */
double
warmPass(const std::vector<Workload> &suite,
         const std::vector<PeConfig> &configs, SimCache &cache,
         const std::vector<WorkloadRun> &expect, std::size_t *failed)
{
    Scoped pass("cache.warm_pass");
    const auto start = Clock::now();
    const CycleRunOptions plain;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t w = 0; w < suite.size(); ++w) {
            Digest128 key;
            {
                Scoped s("cache.key", "full");
                key = workloadRunKey(suite[w], configs[c], plain);
            }
            std::optional<std::string> payload;
            {
                Scoped s("cache.lookup");
                payload = cache.lookup(key);
            }
            std::optional<WorkloadRun> run;
            if (payload) {
                Scoped s("cache.decode");
                run = decodeWorkloadRun(*payload);
            }
            if (!run || !(*run == expect[c * suite.size() + w]))
                ++*failed;
        }
    }
    return secondsSince(start);
}

JsonValue
dseJson(const std::vector<DesignPoint> &frontier)
{
    JsonValue out = JsonValue::array();
    for (const DesignPoint &p : frontier) {
        JsonValue row = JsonValue::object();
        row["config"] = p.config.name();
        row["vt"] = vtName(p.vt);
        row["vdd"] = p.vdd;
        row["freq_mhz"] = p.freqMhz;
        row["edp"] = p.edp();
        out.push(std::move(row));
    }
    return out;
}

int
cmdTrace(int argc, char **argv)
{
    unsigned jobs = 1;
    std::string dir = ".";
    LoadOptions load;
    unsigned reps = 7;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs")
            jobs = static_cast<unsigned>(std::stoul(argValue(i, argc, argv)));
        else if (arg == "--dir")
            dir = argValue(i, argc, argv);
        else if (arg == "--reps")
            reps = static_cast<unsigned>(std::stoul(argValue(i, argc, argv)));
        else if (!parseLoadOption(load, i, argc, argv))
            die("trace: unknown option " + arg);
    }
    const std::vector<PeConfig> configs = allConfigs();
    const std::vector<std::size_t> order =
        permutation(configs.size(), load.seed);
    std::size_t failed = 0;
    JsonValue counts = JsonValue::object();
    JsonValue walls = JsonValue::object();

    const std::vector<Workload> suite = allWorkloads(WorkloadSizes::full());
    double wall = 0.0;
    g_tracer.enabled = true;
    std::optional<Scoped> root;
    root.emplace("walk");

    {
        Scoped phase("phase.workloads");
        for (unsigned r = 0; r < reps; ++r) {
            Scoped s("workloads.allWorkloads", "full");
            allWorkloads(WorkloadSizes::full());
        }
        const ServeRegistry registry = ServeRegistry::builtin();
        for (unsigned r = 0; r < reps; ++r) {
            for (const Workload &w : suite) {
                Scoped s("workloads.factory", "small");
                (*registry.workload(w.name))(WorkloadSizes::small());
            }
        }
    }

    // Cold matrix at one worker and at `jobs` workers: per-workload
    // simulator busy time, the executor's utilization and scaling.
    SimCache cache1, cacheN;
    std::vector<WorkloadRun> serial, parallel;
    {
        Scoped phase("phase.cold");
        serial = matrixPass("jobs1", suite, configs, order, 1, cache1,
                            &wall, &failed);
        walls["matrix_jobs1_s"] = wall;
        parallel = matrixPass("jobsN", suite, configs, order, jobs, cacheN,
                              &wall, &failed);
        walls["matrix_jobsN_s"] = wall;
    }
    std::uint64_t cycles = 0, instructions = 0, stepsRun = 0,
                  stepsSkipped = 0, skips = 0, fulls = 0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const WorkloadRun &run = serial[i];
        if (!(run == parallel[i]))
            ++failed;
        cycles += run.totalCycles;
        for (std::uint64_t n : run.dynamicInstructions)
            instructions += n;
        stepsRun += run.peStepsExecuted;
        stepsSkipped += run.peStepsSkipped;
        skips += run.resolutionSkips;
        fulls += run.resolutionFulls;
    }
    counts["sim_cycles"] = cycles;
    counts["instructions"] = instructions;
    counts["pe_steps_executed"] = stepsRun;
    counts["pe_steps_skipped"] = stepsSkipped;
    counts["resolution_skips"] = skips;
    counts["resolution_fulls"] = fulls;
    JsonValue matrixCycles = JsonValue::array();
    for (const WorkloadRun &run : serial)
        matrixCycles.push(run.totalCycles);
    counts["matrix_cycles"] = std::move(matrixCycles);

    // Persistent tier: save, load back, then the warm read path.
    const std::string tierPath = dir + "/walk.tiasimc";
    SimCache warm;
    {
        Scoped phase("phase.tier");
        std::string error;
        {
            Scoped s("cache.save");
            if (!cacheN.save(tierPath, &error))
                die("cannot save tier: " + error);
        }
        counts["tier_bytes"] = static_cast<std::uint64_t>(
            std::filesystem::file_size(tierPath));
        for (unsigned r = 0; r < reps; ++r) {
            SimCache probe;
            Scoped s("cache.load");
            if (!probe.load(tierPath, &error) || !error.empty())
                die("cannot load tier: " + error);
        }
        warm.load(tierPath, &error);
    }
    // The warm read path, untraced and traced in alternation: its calls
    // are short enough for span bookkeeping to show, and alternating
    // keeps drift on the host out of the ratio (the tracing overhead).
    std::vector<double> untraced, traced;
    {
        Scoped phase("phase.warm");
        for (unsigned r = 0; r < reps; ++r) {
            g_tracer.enabled = false;
            untraced.push_back(
                warmPass(suite, configs, warm, serial, &failed));
            g_tracer.enabled = true;
            traced.push_back(warmPass(suite, configs, warm, serial, &failed));
        }
    }
    walls["warm_untraced_s"] = median(untraced);
    walls["warm_traced_s"] = median(traced);
    // Identity per SimCache::stats, over cold (jobsN) and warm caches.
    JsonValue cacheStats = JsonValue::array();
    for (SimCache *c : {&cacheN, &warm}) {
        const SimCache::Stats s = c->stats();
        JsonValue row = JsonValue::object();
        row["lookups"] = s.lookups;
        row["hits"] = s.hits;
        row["misses"] = s.misses;
        row["coalesced"] = s.coalesced;
        cacheStats.push(std::move(row));
    }
    counts["cache"] = std::move(cacheStats);

    {
        // The paper's methodology: bst's CPI drives the DSE.
        Scoped phase("phase.dse");
        std::size_t bst = 0;
        for (std::size_t w = 0; w < suite.size(); ++w) {
            if (suite[w].name == "bst")
                bst = w;
        }
        CpiTable table;
        for (std::size_t c = 0; c < configs.size(); ++c)
            table[configs[c].name()] =
                serial[c * suite.size() + bst].worker.cpi();
        const DesignSpace space(std::move(table));
        DseStreamResult dse;
        {
            Scoped s("vlsi.enumerateStreamed");
            dse = space.enumerateStreamed(jobs, configs, {});
        }
        counts["dse_grid_points"] =
            static_cast<std::uint64_t>(space.gridSize(configs));
        counts["dse_evaluated"] =
            static_cast<std::uint64_t>(dse.points.size());
        counts["frontier_points"] =
            static_cast<std::uint64_t>(dse.frontier.size());
        counts["frontier"] = dseJson(dse.frontier);
    }

    {
        Scoped phase("phase.obs");
        for (unsigned r = 0; r < reps; ++r) {
            Scoped s("obs.json_dump");
            MetricsRegistry registry("tia-perfbench");
            for (std::size_t c = 0; c < configs.size(); ++c) {
                for (std::size_t w = 0; w < suite.size(); ++w)
                    registry.addRun(workloadRunMetrics(
                        serial[c * suite.size() + w], configs[c],
                        suite[w].name));
            }
            const std::string text = registry.dump();
            if (text.size() < 1000)
                ++failed;
        }
    }

    {
        // Small sizes, as the server runs them per request: key
        // derivation and a fresh simulation, where fabric construction
        // dominates.
        Scoped phase("phase.small");
        const std::vector<Workload> small =
            allWorkloads(WorkloadSizes::small());
        const CycleRunOptions plain;
        for (std::size_t k = 0; k < configs.size(); ++k) {
            const PeConfig &config = configs[order[k]];
            for (const Workload &w : small) {
                {
                    Scoped s("cache.key", "small");
                    workloadRunKey(w, config, plain);
                }
                Scoped s("uarch.runCycle.small", w.name);
                if (!runCycle(w, config, plain).ok())
                    ++failed;
            }
        }
    }

    JsonValue serve;
    if (!load.socket.empty()) {
        Scoped phase("phase.serve");
        serve = driveLoad(load);
    }

    root.reset();
    g_tracer.enabled = false;

    JsonValue out = JsonValue::object();
    out["jobs"] = jobs;
    out["failed"] = failed;
    out["counts"] = std::move(counts);
    out["walls"] = std::move(walls);
    out["serve"] = std::move(serve);
    out["spans"] = g_tracer.json();
    std::ofstream(dir + "/trace.json") << out.dump();
    std::puts("{\"trace\": \"trace.json\"}");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A daemon that drops the connection must not kill the generator.
    ::signal(SIGPIPE, SIG_IGN);
    const std::string cmd = argc > 1 ? argv[1] : "";
    try {
        if (cmd == "setup")
            return cmdSetup(argc, argv);
        if (cmd == "spawn")
            return cmdSpawn(argc, argv);
        if (cmd == "loadgen")
            return cmdLoadgen(argc, argv);
        if (cmd == "trace")
            return cmdTrace(argc, argv);
    } catch (const std::exception &error) {
        die(error.what());
    }
    std::fprintf(stderr,
                 "usage: tia-perfbench setup|spawn|loadgen|trace ...\n");
    return 2;
}
