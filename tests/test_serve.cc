/**
 * @file
 * Torture and unit tests for the tia-serve service layer.
 *
 * The failure paths are the product here, so most of these tests
 * exercise the server under abuse: slow-loris clients trickling a
 * frame forever, clients that disconnect mid-request, quota
 * exhaustion, queue-full backpressure, drain under load, and a
 * SIGKILLed cache writer. The invariant every scenario checks is the
 * robustness contract from serve/server.hh: every admitted request
 * produces exactly one response, the counter identities hold in any
 * stats snapshot, and a hostile client never costs more than its own
 * connection.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/simcache.hh"
#include "exec/stop_token.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/token_bucket.hh"
#include "uarch/config.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace tia {
namespace {

using namespace std::chrono_literals;

// Unique short socket paths (sun_path caps out near 107 bytes, so the
// tests bind relative to the build directory cwd).
std::string
socketPath(const std::string &tag)
{
    static std::atomic<unsigned> next{0};
    const std::string path = "ts_" + tag + "_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(next++) + ".sock";
    std::remove(path.c_str());
    return path;
}

ServerOptions
baseOptions(const std::string &socket)
{
    ServerOptions opt;
    opt.unixPath = socket;
    opt.workers = 2;
    return opt;
}

JsonValue
simulateParams(const std::string &workload)
{
    JsonValue params = JsonValue::object();
    params["workload"] = workload;
    params["uarch"] = "TDX";
    params["sizes"] = "small";
    return params;
}

bool
waitFor(const std::function<bool()> &predicate, int budgetMs = 5000)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(budgetMs);
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(5ms);
    }
    return predicate();
}

/**
 * The accounting identities from serve/server.hh, checked against a
 * live counter snapshot. Valid at any moment, not just quiescence.
 */
void
expectCounterIdentities(const Server::Counters &c)
{
    const std::uint64_t shed =
        c.shedQueueFull + c.shedQuota + c.shedDraining;
    const std::uint64_t cancelled =
        c.cancelledDeadline + c.cancelledDisconnect;
    EXPECT_EQ(c.received, c.admitted + shed + c.rejected);
    EXPECT_EQ(c.admitted, c.completed + cancelled + c.failed +
                              c.active + c.queueDepth);
    EXPECT_LE(c.hangs, c.completed);
}

// ---------------------------------------------------------------------
// Frame codec.

struct SocketPair
{
    int fds[2] = {-1, -1};
    SocketPair()
    {
        EXPECT_EQ(
            ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }
    ~SocketPair()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        if (fds[1] >= 0)
            ::close(fds[1]);
    }
};

TEST(Frame, RoundTripsPayloads)
{
    SocketPair pair;
    const std::string payloads[] = {"", "{}", std::string(100'000, 'x')};
    for (const std::string &payload : payloads) {
        ASSERT_TRUE(writeFrame(pair.fds[0], payload));
        const FrameResult got =
            readFrame(pair.fds[1], 1u << 20, 1000, 1000);
        ASSERT_EQ(got.status, FrameStatus::Ok);
        EXPECT_EQ(got.payload, payload);
    }
}

TEST(Frame, RejectsOversizeBeforeAllocating)
{
    SocketPair pair;
    // A 256 MiB length prefix against a 4 KiB limit: must be rejected
    // from the prefix alone, no allocation, no drain attempt.
    const std::uint32_t huge = 256u << 20;
    ASSERT_EQ(::write(pair.fds[0], &huge, 4), 4);
    const FrameResult got = readFrame(pair.fds[1], 4096, 1000, 1000);
    EXPECT_EQ(got.status, FrameStatus::TooLarge);
}

TEST(Frame, DistinguishesIdleTimeoutTruncation)
{
    {
        SocketPair pair;
        // Nothing sent: first-byte budget elapses -> Idle.
        EXPECT_EQ(readFrame(pair.fds[1], 4096, 30, 1000).status,
                  FrameStatus::Idle);
    }
    {
        SocketPair pair;
        // Two bytes of prefix then silence: slow-loris -> Timeout.
        ASSERT_EQ(::write(pair.fds[0], "\x08\x00", 2), 2);
        EXPECT_EQ(readFrame(pair.fds[1], 4096, 1000, 50).status,
                  FrameStatus::Timeout);
    }
    {
        SocketPair pair;
        // Prefix promises 8 bytes, close after 2 -> Truncated.
        const std::uint32_t len = 8;
        ASSERT_EQ(::write(pair.fds[0], &len, 4), 4);
        ASSERT_EQ(::write(pair.fds[0], "ab", 2), 2);
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        EXPECT_EQ(readFrame(pair.fds[1], 4096, 1000, 1000).status,
                  FrameStatus::Truncated);
    }
    {
        SocketPair pair;
        // Clean close at a frame boundary -> Eof.
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        EXPECT_EQ(readFrame(pair.fds[1], 4096, 1000, 1000).status,
                  FrameStatus::Eof);
    }
}

// ---------------------------------------------------------------------
// Protocol envelopes.

TEST(Protocol, RequestRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc["id"] = std::uint64_t{42};
    doc["method"] = "simulate";
    doc["client"] = "alice";
    doc["deadline_ms"] = std::uint64_t{250};
    doc["params"] = simulateParams("gcd");
    std::string error;
    const auto req = parseRequest(doc, &error);
    ASSERT_TRUE(req.has_value()) << error;
    EXPECT_EQ(req->id, 42u);
    EXPECT_EQ(req->method, "simulate");
    EXPECT_EQ(req->client, "alice");
    EXPECT_EQ(req->deadlineMs, 250u);
}

TEST(Protocol, ErrorCodesRoundTrip)
{
    for (ServeError error :
         {ServeError::BadRequest, ServeError::RetryAfter,
          ServeError::Deadline, ServeError::Hang,
          ServeError::ShuttingDown, ServeError::Internal}) {
        EXPECT_EQ(parseServeErrorCode(serveErrorCode(error)), error);
    }
    EXPECT_EQ(parseServeErrorCode("no_such_code"), ServeError::None);
}

TEST(Protocol, ErrorResponseCarriesHintAndDetail)
{
    JsonValue detail = JsonValue::object();
    detail["classification"] = "livelock";
    const JsonValue wire = makeError(7, ServeError::RetryAfter,
                                     "queue full", 12,
                                     std::move(detail));
    std::string error;
    const auto resp = parseResponse(wire, &error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_EQ(resp->id, 7u);
    EXPECT_FALSE(resp->ok);
    EXPECT_EQ(resp->error, ServeError::RetryAfter);
    EXPECT_TRUE(resp->retryable());
    EXPECT_EQ(resp->retryAfterMs, 12u);
    ASSERT_NE(resp->errorDetail.find("classification"), nullptr);
}

// ---------------------------------------------------------------------
// Admission building blocks (time-travel, no sleeping).

TEST(TokenBucketTest, RefillsAtSustainedRate)
{
    const auto t0 = TokenBucket::Clock::now();
    TokenBucket bucket(10.0, 2.0, t0); // 10/s sustained, burst 2
    std::uint64_t hint = 0;
    EXPECT_TRUE(bucket.tryAcquire(t0, &hint));
    EXPECT_TRUE(bucket.tryAcquire(t0, &hint));
    EXPECT_FALSE(bucket.tryAcquire(t0, &hint));
    // Empty bucket at 10/s: next token is ~100ms out, and the hint
    // must cover the full deficit (retrying at the hint succeeds).
    EXPECT_GE(hint, 100u);
    EXPECT_LE(hint, 110u);
    EXPECT_TRUE(bucket.tryAcquire(
        t0 + std::chrono::milliseconds(hint), nullptr));
    // Refill clamps at burst: a long sleep is still only 2 tokens.
    TokenBucket clamped(10.0, 2.0, t0);
    EXPECT_GT(clamped.tokens(t0 + 1h), 1.9);
    EXPECT_LT(clamped.tokens(t0 + 1h), 2.1);
}

TEST(TokenBucketTest, ZeroRateDisablesTheLimiter)
{
    const auto t0 = TokenBucket::Clock::now();
    TokenBucket bucket(0.0, 1.0, t0);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(bucket.tryAcquire(t0, nullptr));
}

TEST(Backoff, JitterStaysInHalfOpenWindow)
{
    const BackoffPolicy policy;
    std::uint64_t rng = 0x1234abcdull;
    for (unsigned attempt = 0; attempt < 10; ++attempt) {
        // Un-jittered delay: base * mult^attempt, floored by the
        // server hint, capped at maxMs.
        double raw = static_cast<double>(policy.baseMs);
        for (unsigned i = 0; i < attempt; ++i)
            raw *= policy.multiplier;
        const std::uint64_t hint = 40;
        const std::uint64_t full = std::min<std::uint64_t>(
            std::max<std::uint64_t>(static_cast<std::uint64_t>(raw),
                                    hint),
            policy.maxMs);
        for (int trial = 0; trial < 32; ++trial) {
            const std::uint64_t delay =
                policy.delayMs(attempt, hint, rng);
            EXPECT_GE(delay, full / 2);
            EXPECT_LE(delay, full);
        }
    }
}

TEST(Backoff, DistinctSeedsDecorrelate)
{
    const BackoffPolicy policy;
    std::uint64_t rngA = 1, rngB = 2;
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (policy.delayMs(3, 0, rngA) == policy.delayMs(3, 0, rngB))
            ++same;
    }
    // Jitter over [d/2, d] on a 200ms window: two fleets colliding on
    // most draws would defeat the thundering-herd spreading.
    EXPECT_LT(same, 16);
}

// ---------------------------------------------------------------------
// Cooperative cancellation units.

TEST(Cancellation, PreFiredTokenReturnsWithoutSimulating)
{
    const Workload workload = makeGcd(WorkloadSizes::small());
    StopSource stop;
    stop.requestStop();
    CycleRunOptions options;
    options.stop = stop.token();
    const auto start = std::chrono::steady_clock::now();
    const WorkloadRun run = runCycle(workload, PeConfig{}, options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(run.status, RunStatus::Cancelled);
    EXPECT_LT(elapsed, 1s); // O(1), not a full simulation budget
}

TEST(Cancellation, UnfiredTokenIsBitIdentical)
{
    const Workload workload = makeGcd(WorkloadSizes::small());
    StopSource stop;
    CycleRunOptions withToken;
    withToken.stop = stop.token();
    const WorkloadRun watched = runCycle(workload, PeConfig{}, withToken);
    const WorkloadRun plain =
        runCycle(workload, PeConfig{}, CycleRunOptions{});
    EXPECT_EQ(watched, plain);
    EXPECT_EQ(watched.status, RunStatus::Halted);
}

TEST(Cancellation, CancelledRunsAreNeverCached)
{
    SimCache cache;
    const Workload workload = makeGcd(WorkloadSizes::small());
    StopSource stop;
    stop.requestStop();
    CycleRunOptions options;
    options.cache = &cache;
    options.stop = stop.token();
    const WorkloadRun run = runCycle(workload, PeConfig{}, options);
    EXPECT_EQ(run.status, RunStatus::Cancelled);
    EXPECT_EQ(cache.size(), 0u);
    // The same request with a live token computes and caches.
    CycleRunOptions clean;
    clean.cache = &cache;
    EXPECT_EQ(runCycle(workload, PeConfig{}, clean).status,
              RunStatus::Halted);
    EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------
// In-process server: happy path, coalescing, metrics.

TEST(Serve, SimulateRoundTrip)
{
    const std::string socket = socketPath("basic");
    Server server(baseOptions(socket));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    auto client = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(client.has_value()) << error;
    client->setClient("t");
    const auto resp =
        client->call("simulate", simulateParams("gcd"), &error);
    ASSERT_TRUE(resp.has_value()) << error;
    ASSERT_TRUE(resp->ok) << resp->errorMessage;
    const JsonValue *status = resp->result.find("status");
    ASSERT_NE(status, nullptr);
    EXPECT_EQ(status->str(), "halted");
    ASSERT_NE(resp->result.find("analyses"), nullptr);

    // Unknown methods are typed bad_request, not dropped connections.
    const auto bad =
        client->call("no_such_method", JsonValue::object(), &error);
    ASSERT_TRUE(bad.has_value()) << error;
    EXPECT_EQ(bad->error, ServeError::BadRequest);
    // ... and the connection is still usable afterwards.
    const auto again =
        client->call("simulate", simulateParams("gcd"), &error);
    ASSERT_TRUE(again.has_value()) << error;
    EXPECT_TRUE(again->ok);

    expectCounterIdentities(server.counters());
    server.hardStop();
}

TEST(Serve, MalformedJsonPoisonsOneFrameOnly)
{
    const std::string socket = socketPath("badjson");
    Server server(baseOptions(socket));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    auto client = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(client.has_value()) << error;
    // Raw garbage frame: framing stays in sync, so the server answers
    // with bad_request and keeps the connection.
    ASSERT_TRUE(writeFrame(client->fd(), "this is not json"));
    const FrameResult raw =
        readFrame(client->fd(), 1u << 20, 5000, 5000);
    ASSERT_EQ(raw.status, FrameStatus::Ok);
    EXPECT_NE(raw.payload.find("bad_request"), std::string::npos);
    // Next request on the same connection is served normally.
    const auto resp =
        client->call("simulate", simulateParams("gcd"), &error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_TRUE(resp->ok);
    server.hardStop();
}

TEST(Serve, IdenticalRequestsCoalesceOntoOneSimulation)
{
    const std::string socket = socketPath("coalesce");
    ServerOptions opt = baseOptions(socket);
    opt.workers = 4;
    Server server(std::move(opt));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    constexpr int kClients = 4;
    std::atomic<int> okCount{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            std::string err;
            auto client = ServeClient::connectUnix(socket, &err);
            if (!client)
                return;
            client->setClient(std::string("c") + std::to_string(i));
            const auto resp =
                client->call("simulate", simulateParams("bst"), &err);
            if (resp && resp->ok)
                ++okCount;
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(okCount.load(), kClients);

    // All four answered, but the cache saw one computation: the rest
    // were warm hits or coalesced onto the in-flight leader.
    const SimCache::Stats stats = server.cache().stats();
    EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits + stats.coalesced + stats.misses,
              stats.lookups);
    expectCounterIdentities(server.counters());
    server.hardStop();
}

TEST(Serve, MetricsDocumentValidates)
{
    const std::string socket = socketPath("metrics");
    Server server(baseOptions(socket));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    auto client = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(client.has_value()) << error;
    client->call("simulate", simulateParams("gcd"), &error);
    client->call("stats", JsonValue::object(), &error);

    const std::vector<std::string> problems =
        validateMetricsDocument(server.metricsDocument());
    EXPECT_TRUE(problems.empty())
        << "first problem: " << (problems.empty() ? "" : problems[0]);
    server.hardStop();
}

// ---------------------------------------------------------------------
// Backpressure and quotas.

TEST(Serve, QuotaExhaustionShedsWithHonestHint)
{
    const std::string socket = socketPath("quota");
    ServerOptions opt = baseOptions(socket);
    opt.quotaRate = 5.0;
    opt.quotaBurst = 2.0;
    Server server(std::move(opt));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    auto client = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(client.has_value()) << error;
    client->setClient("greedy");
    // Burst past the bucket: some requests must come back retry_after
    // with a usable hint.
    int shed = 0;
    for (int i = 0; i < 6; ++i) {
        const auto resp =
            client->call("simulate", simulateParams("gcd"), &error);
        ASSERT_TRUE(resp.has_value()) << error;
        if (!resp->ok) {
            ASSERT_EQ(resp->error, ServeError::RetryAfter);
            EXPECT_GT(resp->retryAfterMs, 0u);
            ++shed;
        }
    }
    EXPECT_GT(shed, 0);
    const Server::Counters c = server.counters();
    EXPECT_EQ(c.shedQuota, static_cast<std::uint64_t>(shed));
    expectCounterIdentities(c);

    // callWithRetry honors the hint and eventually lands.
    unsigned retries = 0;
    const auto resp = client->callWithRetry(
        "simulate", simulateParams("gcd"), BackoffPolicy{}, &error,
        &retries);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_TRUE(resp->ok);
    server.hardStop();
}

TEST(Serve, QueueFullShedsInsteadOfBlocking)
{
    const std::string socket = socketPath("queuefull");
    ServerOptions opt = baseOptions(socket);
    opt.workers = 1;
    opt.queueCapacity = 1;
    Server server(std::move(opt));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Two spin requests: one occupies the only worker, one fills the
    // queue. Launched one at a time — the second must not race the
    // worker's dequeue of the first, or it would be shed instead of
    // queued. Their deadlines guarantee eventual cleanup; the huge
    // cycle budget guarantees the deadline (not the step limit) is
    // what ends them, however slow or fast the host is.
    JsonValue spin = simulateParams("spin");
    spin["cache"] = false;
    spin["max_cycles"] = std::uint64_t{4'000'000'000};
    std::vector<std::thread> pinned;
    auto launchPin = [&](int i) {
        pinned.emplace_back([&, i] {
            std::string err;
            auto client = ServeClient::connectUnix(socket, &err);
            if (!client)
                return;
            client->setClient("pin" + std::to_string(i));
            client->setDeadlineMs(3000);
            client->call("simulate", spin, &err);
        });
    };
    launchPin(0);
    const bool workerBusy =
        waitFor([&] { return server.counters().active == 1; });
    launchPin(1);
    const bool queueFull = waitFor([&] {
        const Server::Counters c = server.counters();
        return c.active == 1 && c.queueDepth == 1;
    });
    if (!workerBusy || !queueFull) {
        // Unwind the pinned threads before failing: hardStop cancels
        // their spins, so the joins cannot hang.
        server.hardStop();
        for (std::thread &t : pinned)
            t.join();
        FAIL() << "worker/queue never pinned (busy=" << workerBusy
               << ", queued=" << queueFull << ")";
    }

    // The third request must be shed promptly — a full queue is a
    // typed rejection, never a blocked connection thread.
    auto client = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(client.has_value()) << error;
    client->setClient("shed-me");
    const auto start = std::chrono::steady_clock::now();
    const auto resp =
        client->call("simulate", simulateParams("gcd"), &error);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_EQ(resp->error, ServeError::RetryAfter);
    EXPECT_LT(elapsed, 1s);
    Server::Counters c = server.counters();
    EXPECT_EQ(c.shedQueueFull, 1u);
    EXPECT_EQ(c.queueHighWater, 1u);
    expectCounterIdentities(c);

    for (std::thread &t : pinned)
        t.join();
    // Both pinned spins resolved via their deadline, cancelled
    // cooperatively inside the simulator. The counter bump can trail
    // the response delivery by a beat, so poll rather than assert.
    EXPECT_TRUE(waitFor(
        [&] { return server.counters().cancelledDeadline == 2; }));
    expectCounterIdentities(server.counters());
    server.hardStop();
}

TEST(Serve, DeadlineCancelsLivelockedSimulation)
{
    const std::string socket = socketPath("deadline");
    Server server(baseOptions(socket));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    auto client = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(client.has_value()) << error;
    client->setClient("t");
    client->setDeadlineMs(200);
    JsonValue spin = simulateParams("spin");
    spin["cache"] = false;
    // Budget far beyond what any host simulates in 200ms: the typed
    // error must come from the deadline, not the step limit.
    spin["max_cycles"] = std::uint64_t{4'000'000'000};
    const auto start = std::chrono::steady_clock::now();
    const auto resp = client->call("simulate", spin, &error);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_EQ(resp->error, ServeError::Deadline);
    // Cooperative cancellation frees the worker within the stop-poll
    // granularity, not after the full simulation budget.
    EXPECT_LT(elapsed, 5s);
    const Server::Counters c = server.counters();
    EXPECT_EQ(c.cancelledDeadline, 1u);
    expectCounterIdentities(c);
    server.hardStop();
}

TEST(Serve, HangIsAServedResultNotAFailure)
{
    const std::string socket = socketPath("hang");
    Server server(baseOptions(socket));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    auto client = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(client.has_value()) << error;
    client->setClient("t");
    JsonValue spin = simulateParams("spin");
    spin["cache"] = false;
    spin["max_cycles"] = std::uint64_t{50'000};
    const auto resp = client->call("simulate", spin, &error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_EQ(resp->error, ServeError::Hang);
    ASSERT_NE(resp->errorDetail.find("classification"), nullptr);
    const Server::Counters c = server.counters();
    // The request completed; the simulation hung. Both are true.
    EXPECT_EQ(c.completed, 1u);
    EXPECT_EQ(c.hangs, 1u);
    EXPECT_EQ(c.failed, 0u);
    expectCounterIdentities(c);
    server.hardStop();
}

// ---------------------------------------------------------------------
// Hostile clients.

TEST(Serve, SlowLorisIsCutOffWhileOthersAreServed)
{
    const std::string socket = socketPath("loris");
    ServerOptions opt = baseOptions(socket);
    opt.frameTimeoutMs = 200;
    Server server(std::move(opt));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // The attacker: starts a frame and stalls forever.
    auto attacker = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(attacker.has_value()) << error;
    ASSERT_EQ(::write(attacker->fd(), "\xff\x00", 2), 2);

    // A well-behaved client is served while the attacker trickles.
    auto victim = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(victim.has_value()) << error;
    victim->setClient("victim");
    const auto resp =
        victim->call("simulate", simulateParams("gcd"), &error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_TRUE(resp->ok);

    // The attacker gets a farewell bad_request frame at the cutoff,
    // then its connection is closed and the timeout is counted.
    const FrameResult farewell =
        readFrame(attacker->fd(), 1u << 20, 5000, 5000);
    ASSERT_EQ(farewell.status, FrameStatus::Ok);
    EXPECT_NE(farewell.payload.find("bad_request"), std::string::npos);
    struct pollfd pfd = {};
    pfd.fd = attacker->fd();
    pfd.events = POLLIN;
    ASSERT_GT(::poll(&pfd, 1, 5000), 0);
    char sink[8];
    EXPECT_EQ(::recv(attacker->fd(), sink, sizeof(sink), 0), 0);
    EXPECT_TRUE(
        waitFor([&] { return server.counters().frameTimeouts >= 1; }));
    expectCounterIdentities(server.counters());
    server.hardStop();
}

TEST(Serve, MidRequestDisconnectCancelsTheJob)
{
    const std::string socket = socketPath("discon");
    ServerOptions opt = baseOptions(socket);
    opt.workers = 1;
    Server server(std::move(opt));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Send a long spin request, then vanish without reading the
    // response. The connection thread must notice and cancel the job
    // long before its 30s deadline so the worker is freed.
    auto ghost = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(ghost.has_value()) << error;
    JsonValue req = JsonValue::object();
    req["id"] = std::uint64_t{1};
    req["method"] = "simulate";
    req["client"] = "ghost";
    req["deadline_ms"] = std::uint64_t{30'000};
    JsonValue spin = simulateParams("spin");
    spin["cache"] = false;
    spin["max_cycles"] = std::uint64_t{4'000'000'000};
    req["params"] = std::move(spin);
    ASSERT_TRUE(writeFrame(ghost->fd(), req.dump()));
    ASSERT_TRUE(
        waitFor([&] { return server.counters().active == 1; }));
    ghost->close();

    EXPECT_TRUE(waitFor(
        [&] { return server.counters().cancelledDisconnect == 1; }));

    // The freed worker serves the next client promptly.
    auto client = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(client.has_value()) << error;
    client->setClient("next");
    const auto resp =
        client->call("simulate", simulateParams("gcd"), &error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_TRUE(resp->ok);
    expectCounterIdentities(server.counters());
    server.hardStop();
}

// ---------------------------------------------------------------------
// Drain.

TEST(Serve, DrainUnderLoadAnswersEverythingAdmitted)
{
    const std::string socket = socketPath("drain");
    ServerOptions opt = baseOptions(socket);
    opt.workers = 2;
    Server server(std::move(opt));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    constexpr int kClients = 4;
    std::atomic<int> responses{0};
    std::atomic<int> shutdownErrors{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            std::string err;
            auto client = ServeClient::connectUnix(socket, &err);
            if (!client)
                return;
            client->setClient(std::string("d") + std::to_string(i));
            for (int r = 0; r < 6; ++r) {
                JsonValue params = simulateParams("gcd");
                params["cache"] = (r % 2) == 0;
                const auto resp =
                    client->call("simulate", params, &err);
                if (!resp)
                    break; // connection closed post-drain: fine
                ++responses;
                if (resp->error == ServeError::ShuttingDown) {
                    ++shutdownErrors;
                    break;
                }
            }
        });
    }
    // Let some requests land, then drain mid-load.
    ASSERT_TRUE(waitFor([&] { return responses.load() >= 2; }));
    server.requestDrain();
    server.waitDrained();
    for (std::thread &t : threads)
        t.join();

    // Quiescent post-drain accounting: every admitted request reached
    // a terminal state and was answered; nothing is active or queued.
    const Server::Counters c = server.counters();
    EXPECT_EQ(c.active, 0u);
    EXPECT_EQ(c.queueDepth, 0u);
    EXPECT_EQ(c.admitted,
              c.completed + c.cancelledDeadline +
                  c.cancelledDisconnect + c.failed);
    expectCounterIdentities(c);
    EXPECT_GT(c.completed, 0u);
}

TEST(Serve, DrainingServerShedsNewRequests)
{
    const std::string socket = socketPath("drained");
    Server server(baseOptions(socket));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    auto client = ServeClient::connectUnix(socket, &error);
    ASSERT_TRUE(client.has_value()) << error;
    client->setClient("late");

    server.requestDrain();
    const auto resp =
        client->call("simulate", simulateParams("gcd"), &error);
    // Either a typed shutting_down response or a closed listener —
    // never a hang, never silence.
    if (resp.has_value()) {
        EXPECT_EQ(resp->error, ServeError::ShuttingDown);
    }
    server.waitDrained();
    expectCounterIdentities(server.counters());
}

// ---------------------------------------------------------------------
// Daemon end-to-end: SIGTERM drain, exit 0, crash-safe cache.

#ifdef TIA_SERVE_BIN
TEST(ServeDaemon, SigtermDrainsFlushesAndExitsZero)
{
    const std::string socket = socketPath("daemon");
    const std::string cachePath =
        "ts_daemon_" + std::to_string(::getpid()) + ".tiasimc";
    std::remove(cachePath.c_str());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const char *argv[] = {TIA_SERVE_BIN,  "--socket",
                              socket.c_str(), "--cache",
                              cachePath.c_str(), nullptr};
        ::execv(TIA_SERVE_BIN, const_cast<char **>(argv));
        _exit(127);
    }

    // Readiness: the socket appears once the daemon is listening.
    std::optional<ServeClient> client;
    ASSERT_TRUE(waitFor([&] {
        std::string err;
        client = ServeClient::connectUnix(socket, &err);
        return client.has_value();
    }, 10'000));
    client->setClient("e2e");
    const auto resp =
        client->call("simulate", simulateParams("gcd"));
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(resp->ok);

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    // The drain flushed a loadable cache holding the completed run.
    SimCache cache;
    std::string error;
    ASSERT_TRUE(cache.load(cachePath, &error)) << error;
    EXPECT_GE(cache.size(), 1u);
    std::remove(cachePath.c_str());
    std::remove((cachePath + ".lock").c_str());
}
#endif // TIA_SERVE_BIN

// ---------------------------------------------------------------------
// Multi-process cache crash-safety: SIGKILL mid-save never corrupts.

TEST(CacheCrash, KilledWriterNeverCorruptsTheFile)
{
    const std::string path =
        "ts_crash_" + std::to_string(::getpid()) + ".tiasimc";
    std::remove(path.c_str());

    // Seed a valid baseline file.
    SimCache seed;
    CycleRunOptions seedOptions;
    seedOptions.cache = &seed;
    runCycle(makeGcd(WorkloadSizes::small()), PeConfig{}, seedOptions);
    std::string error;
    ASSERT_TRUE(seed.save(path, &error)) << error;

    for (int round = 0; round < 5; ++round) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: rewrite the cache as fast as possible until
            // killed. Any save may be interrupted at any point —
            // including between fsync and rename.
            for (;;)
                seed.save(path, nullptr);
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(5 + 7 * round));
        ASSERT_EQ(::kill(pid, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status));

        // The published file must always be a complete, valid cache:
        // saves go to a tmp file and rename in atomically.
        SimCache check;
        ASSERT_TRUE(check.load(path, &error))
            << "round " << round << ": " << error;
        EXPECT_EQ(check.size(), seed.size());
    }
    std::remove(path.c_str());
    // The kill may have left tmp/lock files behind; that is allowed
    // (the next completed save garbage-collects them), but clean up.
    std::remove((path + ".tmp").c_str());
    std::remove((path + ".lock").c_str());
}

TEST(CacheCrash, ConcurrentWritersSerializeViaTheLock)
{
    const std::string path =
        "ts_lock_" + std::to_string(::getpid()) + ".tiasimc";
    std::remove(path.c_str());
    SimCache cache;
    CycleRunOptions options;
    options.cache = &cache;
    runCycle(makeGcd(WorkloadSizes::small()), PeConfig{}, options);

    constexpr int kWriters = 4;
    std::vector<pid_t> pids;
    for (int i = 0; i < kWriters; ++i) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            bool ok = true;
            for (int j = 0; j < 20; ++j)
                ok = cache.save(path, nullptr) && ok;
            _exit(ok ? 0 : 1);
        }
        pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    SimCache check;
    std::string error;
    ASSERT_TRUE(check.load(path, &error)) << error;
    EXPECT_EQ(check.size(), cache.size());
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

} // namespace
} // namespace tia
