/**
 * @file
 * The content-addressed simulation result cache (src/cache/): digest
 * and serialization primitives, the single-flight SimCache, the
 * persistent TIASIMC1 tier (round-trip, truncation, corruption), the
 * WorkloadRun codec, verify-on-hit mode, and the headline contract —
 * cached runCycle results are bit-identical to uncached ones,
 * including under fault injection.
 *
 * GoldenDigest pins the cache keys of canonical (workload, uarch)
 * pairs. A pin changing means every persistent cache silently goes
 * cold: bump kCacheSchemaVersion (cache/serialize.hh) when the key
 * derivation intentionally changes, then re-pin here.
 */

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/digest.hh"
#include "cache/run_cache.hh"
#include "cache/serialize.hh"
#include "cache/simcache.hh"
#include "core/logging.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"
#include "uarch/config.hh"
#include "workloads/runner.hh"
#include "workloads/workload.hh"

namespace {

using namespace tia;

// ---------------------------------------------------------------------
// Digest primitives.

TEST(Digest, HexRoundTripsAndOrders)
{
    const Digest128 d = digest128("hello, cache");
    EXPECT_EQ(d.hex().size(), 32u);
    Digest128 back;
    ASSERT_TRUE(Digest128::fromHex(d.hex(), back));
    EXPECT_EQ(back, d);

    Digest128 scratch;
    EXPECT_FALSE(Digest128::fromHex("", scratch));
    EXPECT_FALSE(Digest128::fromHex("xyz", scratch));
    EXPECT_FALSE(Digest128::fromHex(std::string(31, 'a'), scratch));
    EXPECT_FALSE(Digest128::fromHex(std::string(32, 'g'), scratch));
}

TEST(Digest, DistinguishesNearbyInputs)
{
    // Same length, one bit apart, and prefix/suffix variants must all
    // land on distinct digests (any collision here is a bug, not luck:
    // these are fixed inputs).
    const Digest128 a = digest128("abcdefgh");
    const Digest128 b = digest128("abcdefgi");
    const Digest128 c = digest128("abcdefg");
    const Digest128 d = digest128("abcdefghh");
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    EXPECT_NE(digest128(""), digest128(std::string(1, '\0')));
}

TEST(Digest, StableAcrossCalls)
{
    // Every tail length 0..15 exercises a different switch arm in the
    // MurmurHash3 tail handling.
    const std::string base = "0123456789abcdef";
    for (std::size_t len = 0; len <= base.size(); ++len) {
        const std::string s = base.substr(0, len);
        EXPECT_EQ(digest128(s), digest128(s)) << "len " << len;
    }
}

/** @p size deterministic pseudo-random bytes. */
std::string
randomBytes(std::size_t size)
{
    Xorshift rng(42);
    std::string bytes(size, '\0');
    for (char &c : bytes)
        c = static_cast<char>(rng.next());
    return bytes;
}

TEST(Digest, BuilderMatchesOneShotAtEverySplit)
{
    // Lengths 0..300 reach every tail arm and many whole blocks; every
    // split point puts an update boundary at each offset, including
    // the 15/16/17-byte ones around a block edge.
    const std::string data = randomBytes(300);
    for (std::size_t len = 0; len <= data.size(); ++len) {
        const std::string_view bytes(data.data(), len);
        const Digest128 expected = digest128(bytes);
        for (std::size_t split = 0; split <= len; ++split) {
            Digest128Builder builder;
            builder.update(bytes.substr(0, split))
                .update(bytes.substr(split));
            ASSERT_EQ(builder.finish(), expected)
                << "len " << len << " split " << split;
        }
    }
}

TEST(Digest, BuilderMatchesOneShotOverManyChunks)
{
    const std::string data = randomBytes(300);
    const Digest128 expected = digest128(data);
    for (std::size_t chunk = 1; chunk <= 33; ++chunk) {
        Digest128Builder builder;
        for (std::size_t at = 0; at < data.size(); at += chunk) {
            const std::string_view piece =
                std::string_view(data).substr(at, chunk);
            builder.update(piece);
            // finish() is a read: it must not disturb the stream.
            EXPECT_EQ(builder.finish(),
                      digest128(data.substr(0, at + piece.size())));
        }
        EXPECT_EQ(builder.finish(), expected) << "chunk " << chunk;
    }
}

TEST(Digest, BuilderCopiesResumeIndependently)
{
    // The run-cache pattern: digest a shared prefix once, then finish
    // different suffixes from copies of that state.
    const std::string data = randomBytes(100);
    for (std::size_t cut : {0u, 15u, 16u, 17u, 40u}) {
        const Digest128Builder prefix =
            Digest128Builder().update(data.substr(0, cut));
        for (const std::string &suffix :
             {std::string(), std::string("x"), data.substr(cut)}) {
            EXPECT_EQ(Digest128Builder(prefix).update(suffix).finish(),
                      digest128(data.substr(0, cut) + suffix))
                << "cut " << cut << " suffix " << suffix.size();
        }
    }
}

// ---------------------------------------------------------------------
// ByteWriter / ByteReader.

TEST(ByteCodec, RoundTripsEveryType)
{
    ByteWriter out;
    out.u8(0xab);
    out.u32(0xdeadbeef);
    out.u64(0x0123456789abcdefull);
    out.str("hello");
    out.str("");

    ByteReader in(out.data());
    EXPECT_EQ(in.u8(), 0xab);
    EXPECT_EQ(in.u32(), 0xdeadbeefu);
    EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(in.str(), "hello");
    EXPECT_EQ(in.str(), "");
    EXPECT_TRUE(in.ok());
    EXPECT_TRUE(in.done());
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(ByteCodec, ReaderLatchesOnTruncation)
{
    ByteWriter out;
    out.u32(7);
    ByteReader in(out.data());
    EXPECT_EQ(in.u32(), 7u);
    // Past the end: zero-valued reads, failure latched, never throws.
    EXPECT_EQ(in.u64(), 0u);
    EXPECT_FALSE(in.ok());
    EXPECT_FALSE(in.done());
    EXPECT_EQ(in.str(), "");
    EXPECT_FALSE(in.ok());
}

TEST(ByteCodec, DoneRequiresFullConsumption)
{
    ByteWriter out;
    out.u32(1);
    out.u32(2);
    ByteReader in(out.data());
    EXPECT_EQ(in.u32(), 1u);
    EXPECT_TRUE(in.ok());
    EXPECT_FALSE(in.done()); // trailing bytes unread
}

// ---------------------------------------------------------------------
// Golden cache keys. These pin the full canonical serialization chain
// (Program, FabricConfig, PeConfig, CycleRunOptions, FaultPlan) behind
// workloadRunKey. See the file comment for the re-pin protocol.

TEST(GoldenDigest, CanonicalWorkloadUarchPairs)
{
    const WorkloadSizes sizes = WorkloadSizes::small();
    const CycleRunOptions defaults;

    // Single-cycle TDX, default options.
    EXPECT_EQ(workloadRunKey(makeDotProduct(sizes), PeConfig{},
                             defaults)
                  .hex(),
              "d9de6fac21d886ae182cdf26395ec19a");

    // Deepest pipeline with both optimizations.
    const PeConfig deep{PipelineShape{true, true, true}, true, true};
    EXPECT_EQ(workloadRunKey(makeBst(sizes), deep, defaults).hex(),
              "53a748e8e881ae8ba41f601f4bd53ae2");

    // A seeded fault plan folds into the key.
    const FaultPlan plan = FaultPlan::parse("seed=7;drop:ch0@p0.01");
    CycleRunOptions injected;
    injected.faults = &plan;
    injected.goldenCrossCheck = true;
    EXPECT_EQ(workloadRunKey(makeGcd(sizes), PeConfig{}, injected).hex(),
              "b0ffa7a1aef585d886f91f3c2d840ef3");
}

TEST(GoldenDigest, KeySeparatesEveryInput)
{
    const WorkloadSizes sizes = WorkloadSizes::small();
    const Workload dot = makeDotProduct(sizes);
    const CycleRunOptions defaults;
    const Digest128 base = workloadRunKey(dot, PeConfig{}, defaults);

    // Microarchitecture.
    EXPECT_NE(workloadRunKey(dot, PeConfig{PipelineShape{true}, false,
                                           false},
                             defaults),
              base);
    // Workload (different program + memory preload).
    EXPECT_NE(workloadRunKey(makeMean(sizes), PeConfig{}, defaults),
              base);
    // Workload size (same program, different preload image).
    EXPECT_NE(workloadRunKey(makeDotProduct(WorkloadSizes::full()),
                             PeConfig{}, defaults),
              base);
    // Run options.
    CycleRunOptions budget;
    budget.maxCycles = 12345;
    EXPECT_NE(workloadRunKey(dot, PeConfig{}, budget), base);
    CycleRunOptions reference;
    reference.referenceScheduler = true;
    EXPECT_NE(workloadRunKey(dot, PeConfig{}, reference), base);
    // Fault plan (and its seed).
    const FaultPlan a = FaultPlan::parse("seed=1;drop:ch0@p0.5");
    const FaultPlan b = FaultPlan::parse("seed=2;drop:ch0@p0.5");
    CycleRunOptions fa, fb;
    fa.faults = &a;
    fb.faults = &b;
    EXPECT_NE(workloadRunKey(dot, PeConfig{}, fa), base);
    EXPECT_NE(workloadRunKey(dot, PeConfig{}, fa),
              workloadRunKey(dot, PeConfig{}, fb));
    // An empty plan is the same as no plan (neither injects).
    const FaultPlan none = FaultPlan::parse("seed=1");
    CycleRunOptions fn;
    fn.faults = &none;
    EXPECT_EQ(workloadRunKey(dot, PeConfig{}, fn), base);
}

// ---------------------------------------------------------------------
// SimCache in-memory tier.

TEST(SimCache, MissComputeHit)
{
    SimCache cache;
    const Digest128 key = digest128("key");
    int calls = 0;
    const auto compute = [&calls] {
        ++calls;
        return std::string("payload");
    };
    EXPECT_EQ(cache.getOrCompute(key, compute), "payload");
    EXPECT_EQ(cache.getOrCompute(key, compute), "payload");
    EXPECT_EQ(calls, 1);
    const SimCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.lookups, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SimCache, SingleFlightComputesOnce)
{
    SimCache cache;
    const Digest128 key = digest128("contended");
    constexpr unsigned kThreads = 8;
    std::atomic<int> calls{0};
    std::barrier gate(kThreads);
    std::vector<std::string> results(kThreads);
    {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                gate.arrive_and_wait();
                results[t] = cache.getOrCompute(key, [&] {
                    calls.fetch_add(1);
                    // Hold leadership long enough that the other
                    // threads arrive while the computation is pending.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    return std::string("winner");
                });
            });
        }
    }
    EXPECT_EQ(calls.load(), 1);
    for (const std::string &r : results)
        EXPECT_EQ(r, "winner");
    const SimCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.lookups, kThreads);
    EXPECT_EQ(stats.misses, 1u);
    // However the race resolved, every lookup is exactly one of a
    // hit, a miss, or a coalesced wait.
    EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
              stats.lookups);
}

TEST(SimCache, LeaderExceptionReachesWaitersAndUnblocksRetry)
{
    SimCache cache;
    const Digest128 key = digest128("explodes");
    EXPECT_THROW(cache.getOrCompute(
                     key,
                     []() -> std::string {
                         throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The failed flight is forgotten: a retry computes fresh.
    EXPECT_EQ(cache.getOrCompute(
                  key, [] { return std::string("recovered"); }),
              "recovered");
    const SimCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
              stats.lookups);
}

TEST(SimCache, VerifyModeRecomputesOnHit)
{
    SimCache cache;
    cache.setVerifyHits(true);
    const Digest128 key = digest128("verified");
    const auto compute = [] { return std::string("stable"); };
    EXPECT_EQ(cache.getOrCompute(key, compute), "stable");
    EXPECT_EQ(cache.getOrCompute(key, compute), "stable");
    EXPECT_EQ(cache.stats().verifiedHits, 1u);

    // A cached payload that no longer matches the recomputation is a
    // determinism violation: fatal, not a silent repair.
    SimCache poisoned;
    poisoned.setVerifyHits(true);
    poisoned.put(key, "stale");
    EXPECT_THROW(poisoned.getOrCompute(key, compute), FatalError);
}

// ---------------------------------------------------------------------
// Persistent tier.

class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(SimCachePersist, SaveLoadRoundTrip)
{
    TempFile file("simcache_roundtrip.tiasimc");
    SimCache cache;
    cache.put(digest128("a"), "alpha");
    cache.put(digest128("b"), std::string("\x00\x01\xff", 3));
    std::string error;
    ASSERT_TRUE(cache.save(file.path(), &error)) << error;

    SimCache warm;
    ASSERT_TRUE(warm.load(file.path(), &error)) << error;
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(warm.size(), 2u);
    EXPECT_EQ(warm.stats().loaded, 2u);
    ASSERT_TRUE(warm.peek(digest128("a")).has_value());
    EXPECT_EQ(*warm.peek(digest128("a")), "alpha");
    ASSERT_TRUE(warm.peek(digest128("b")).has_value());
    EXPECT_EQ(*warm.peek(digest128("b")),
              std::string("\x00\x01\xff", 3));
}

TEST(SimCachePersist, MissingFileIsAnEmptyTier)
{
    SimCache cache;
    std::string error;
    EXPECT_TRUE(cache.load(::testing::TempDir() +
                               "simcache_never_written.tiasimc",
                           &error));
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(SimCachePersist, TruncationDegradesToValidPrefix)
{
    TempFile file("simcache_truncated.tiasimc");
    SimCache cache;
    for (int i = 0; i < 8; ++i) {
        cache.put(digest128("entry " + std::to_string(i)),
                  std::string(100, static_cast<char>('a' + i)));
    }
    std::string error;
    ASSERT_TRUE(cache.save(file.path(), &error)) << error;

    // Chop the tail: some valid prefix of entries must survive and
    // the load must not crash or adopt garbage.
    std::ifstream in(file.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    in.close();
    bytes.resize(bytes.size() / 2);
    std::ofstream(file.path(), std::ios::binary)
        << bytes;

    SimCache warm;
    EXPECT_TRUE(warm.load(file.path(), &error));
    EXPECT_FALSE(error.empty()); // the dropped suffix is reported
    EXPECT_LT(warm.size(), 8u);
    // Whatever survived must be bit-exact (per-entry checksums).
    for (int i = 0; i < 8; ++i) {
        const auto entry =
            warm.peek(digest128("entry " + std::to_string(i)));
        if (entry.has_value()) {
            EXPECT_EQ(*entry,
                      std::string(100, static_cast<char>('a' + i)));
        }
    }
}

TEST(SimCachePersist, ForeignFileIsDiscardedWhole)
{
    TempFile file("simcache_foreign.tiasimc");
    std::ofstream(file.path(), std::ios::binary)
        << "this is not a cache file at all";
    SimCache cache;
    std::string error;
    EXPECT_FALSE(cache.load(file.path(), &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(SimCachePersist, StaleVersionTierIsDiscardedWhole)
{
    // Header: 8-byte magic, u32 file format version, u32 key schema
    // version (little-endian). A tier written under another value of
    // either contributes nothing, however sound its entries are.
    struct Patch
    {
        std::size_t offset;
        std::uint32_t value;
        const char *message;
    };
    const Patch patches[] = {
        {8, 2, "cache file format version 2"},
        {12, kCacheSchemaVersion - 1, "cache key schema version"},
    };
    for (const Patch &patch : patches) {
        SCOPED_TRACE(patch.message);
        TempFile file("simcache_stale.tiasimc");
        SimCache cache;
        cache.put(digest128("a"), "alpha");
        std::string error;
        ASSERT_TRUE(cache.save(file.path(), &error)) << error;

        std::ifstream in(file.path(), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string bytes = buf.str();
        in.close();
        ASSERT_GE(bytes.size(), patch.offset + 4);
        for (unsigned i = 0; i < 4; ++i)
            bytes[patch.offset + i] =
                static_cast<char>(patch.value >> (8 * i));
        std::ofstream(file.path(), std::ios::binary) << bytes;

        SimCache stale;
        EXPECT_FALSE(stale.load(file.path(), &error));
        EXPECT_NE(error.find(patch.message), std::string::npos) << error;
        EXPECT_EQ(stale.size(), 0u);
    }
}

TEST(SimCachePersist, SavedFilesAreDeterministic)
{
    TempFile a("simcache_det_a.tiasimc");
    TempFile b("simcache_det_b.tiasimc");
    // Insert in different orders; the file is keyed-order either way.
    SimCache first, second;
    first.put(digest128("x"), "one");
    first.put(digest128("y"), "two");
    second.put(digest128("y"), "two");
    second.put(digest128("x"), "one");
    ASSERT_TRUE(first.save(a.path(), nullptr));
    ASSERT_TRUE(second.save(b.path(), nullptr));

    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };
    EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

// ---------------------------------------------------------------------
// WorkloadRun codec and the end-to-end bit-identity contract.

TEST(RunCodec, WorkloadRunRoundTrips)
{
    const Workload w = makeGcd(WorkloadSizes::small());
    const WorkloadRun run = runCycle(w, PeConfig{});
    ASSERT_TRUE(run.ok());
    const auto decoded = decodeWorkloadRun(encodeWorkloadRun(run));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, run);
}

TEST(RunCodec, RejectsTruncatedAndTrailingBytes)
{
    const Workload w = makeGcd(WorkloadSizes::small());
    const WorkloadRun run = runCycle(w, PeConfig{});
    const std::string payload = encodeWorkloadRun(run);
    EXPECT_FALSE(decodeWorkloadRun(payload.substr(0, payload.size() / 2))
                     .has_value());
    EXPECT_FALSE(decodeWorkloadRun(payload + "x").has_value());
    EXPECT_FALSE(decodeWorkloadRun("").has_value());
}

/**
 * A payload in encodeWorkloadRun's field order with every field zero
 * or empty except the element counts of the two counted arrays, and
 * no elements behind either count.
 */
std::string
craftedRunPayload(std::uint64_t numPes, std::uint64_t numLines)
{
    ByteWriter out;
    out.u8(static_cast<std::uint8_t>(RunStatus::Halted));
    out.str("");                 // checkError
    for (int i = 0; i < 14; ++i) // PerfCounters
        out.u64(0);
    out.u64(0);       // workerInFlight
    out.u32(0);       // workerPe
    out.u64(numPes);  // dynamicInstructions
    out.u64(0);       // totalCycles
    out.u8(0);        // hang.classification
    out.str("");      // hang.summary
    out.u64(0);       // hang.waitChain
    out.u64(0);       // hang.blockedAgents
    out.u8(0);        // faultOutcome
    out.u64(numLines); // faultStats.lines
    out.u64(0);       // peStepsExecuted
    out.u64(0);       // peStepsSkipped
    return out.take();
}

TEST(RunCodec, CraftedCountsDegradeToRecompute)
{
    // The mirror of the layout is right: zero counts decode.
    ASSERT_TRUE(decodeWorkloadRun(craftedRunPayload(0, 0)).has_value());

    // Counts whose byte sizes (x8 per PE, x24 per fault line) wrap 64
    // bits to 8, which is less than the bytes left behind them.
    const std::string payloads[] = {
        craftedRunPayload(0x2000000000000001ull, 0),
        craftedRunPayload(0, 0x0aaaaaaaaaaaaaabull),
    };
    const Workload w = makeGcd(WorkloadSizes::small());
    const WorkloadRun expected = runCycle(w, PeConfig{});
    for (const std::string &payload : payloads) {
        std::optional<WorkloadRun> decoded;
        EXPECT_NO_THROW(decoded = decodeWorkloadRun(payload));
        EXPECT_FALSE(decoded.has_value());

        SimCache cache;
        cache.put(workloadRunKey(w, PeConfig{}, {}), payload);
        CycleRunOptions options;
        options.cache = &cache;
        WorkloadRun run;
        EXPECT_NO_THROW(run = runCycle(w, PeConfig{}, options));
        EXPECT_EQ(run, expected);
    }
}

TEST(RunCacheEndToEnd, CachedRunsAreBitIdentical)
{
    const Workload w = makeDotProduct(WorkloadSizes::small());
    const PeConfig uarch{PipelineShape{true, false, false}, true, true};

    const WorkloadRun uncached = runCycle(w, uarch);

    SimCache cache;
    CycleRunOptions options;
    options.cache = &cache;
    const WorkloadRun cold = runCycle(w, uarch, options);
    const WorkloadRun warm = runCycle(w, uarch, options);
    EXPECT_EQ(cold, uncached);
    EXPECT_EQ(warm, uncached);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(RunCacheEndToEnd, FaultInjectedRunsAreBitIdentical)
{
    const Workload w = makeStream(WorkloadSizes::small());
    const PeConfig uarch{PipelineShape{true, true, false}, true, false};
    const FaultPlan plan =
        FaultPlan::parse("seed=11;drop:ch0@p0.02;mispredict:pe0@p0.01");

    CycleRunOptions injected;
    injected.faults = &plan;
    injected.goldenCrossCheck = true;
    const WorkloadRun uncached = runCycle(w, uarch, injected);

    SimCache cache;
    cache.setVerifyHits(true);
    CycleRunOptions cached = injected;
    cached.cache = &cache;
    const WorkloadRun cold = runCycle(w, uarch, cached);
    const WorkloadRun warm = runCycle(w, uarch, cached);
    EXPECT_EQ(cold, uncached);
    EXPECT_EQ(warm, uncached);
    // The warm hit re-simulated under --cache-verify semantics.
    EXPECT_EQ(cache.stats().verifiedHits, 1u);
}

TEST(RunCacheEndToEnd, MatrixWithCacheMatchesWithout)
{
    const std::vector<Workload> suite = {
        makeGcd(WorkloadSizes::small()),
        makeMean(WorkloadSizes::small()),
    };
    const std::vector<PeConfig> configs = {
        PeConfig{},
        PeConfig{PipelineShape{true, true, true}, true, true},
    };
    const CycleMatrix plain = runCycleMatrix(suite, configs, {}, 2);

    SimCache cache;
    CycleRunOptions options;
    options.cache = &cache;
    const CycleMatrix cold = runCycleMatrix(suite, configs, options, 2);
    const CycleMatrix warm = runCycleMatrix(suite, configs, options, 2);
    ASSERT_EQ(plain.runs.size(), cold.runs.size());
    EXPECT_EQ(plain.runs, cold.runs);
    EXPECT_EQ(plain.runs, warm.runs);
    const SimCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.lookups, 2 * plain.runs.size());
    EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
              stats.lookups);
    // The warm pass can only hit.
    EXPECT_GE(stats.hits, plain.runs.size());
}

TEST(RunCacheEndToEnd, MatrixKeysEqualSingleRunKeys)
{
    // The matrix resumes one input digest per workload; runCycle
    // digests from scratch. Both must land on the same key for every
    // cell, clean and injected.
    const std::vector<Workload> suite = allWorkloads(WorkloadSizes::small());
    const std::vector<PeConfig> configs = allConfigs();
    const FaultPlan plan = FaultPlan::parse("seed=5;mispredict:pe0@p0.05");
    CycleRunOptions injected;
    injected.faults = &plan;
    injected.goldenCrossCheck = true;

    for (const CycleRunOptions &base : {CycleRunOptions{}, injected}) {
        SimCache cache;
        CycleRunOptions options = base;
        options.cache = &cache;
        const CycleMatrix matrix =
            runCycleMatrix(suite, configs, options, 2);
        ASSERT_EQ(cache.size(), matrix.runs.size());

        const SimCache::Stats before = cache.stats();
        for (std::size_t c = 0; c < configs.size(); ++c)
            for (std::size_t w = 0; w < suite.size(); ++w)
                EXPECT_EQ(runCycle(suite[w], configs[c], options),
                          matrix.run(c, w))
                    << configs[c].name() << " " << suite[w].name;
        const SimCache::Stats after = cache.stats();
        EXPECT_EQ(after.hits - before.hits, matrix.runs.size());
        EXPECT_EQ(after.misses, before.misses);
        EXPECT_EQ(cache.size(), matrix.runs.size());
    }
}

TEST(RunCacheEndToEnd, CorruptEntryDegradesToRecompute)
{
    const Workload w = makeGcd(WorkloadSizes::small());
    const WorkloadRun expected = runCycle(w, PeConfig{});

    SimCache cache;
    // Poison the exact key with an undecodable payload.
    const Digest128 key = workloadRunKey(w, PeConfig{}, {});
    cache.put(key, "garbage that is not a WorkloadRun");

    CycleRunOptions options;
    options.cache = &cache;
    const WorkloadRun run = runCycle(w, PeConfig{}, options);
    EXPECT_EQ(run, expected);
    // The poisoned entry was replaced with a decodable one. Both
    // lookups count as cache-level hits — the decode failure and
    // recompute happen in runCycle, above getOrCompute.
    const WorkloadRun again = runCycle(w, PeConfig{}, options);
    EXPECT_EQ(again, expected);
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(RunCacheEndToEnd, TracingBypassesTheCache)
{
    const Workload w = makeGcd(WorkloadSizes::small());
    SimCache cache;
    CycleRunOptions options;
    options.cache = &cache;
    TeeSink sink; // empty tee: a null sink, but tracing is "on"
    options.trace = &sink;
    (void)runCycle(w, PeConfig{}, options);
    EXPECT_EQ(cache.stats().lookups, 0u);
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
