/**
 * @file
 * The two-tier ResultCache: byte-budgeted LRU eviction (demotion to
 * the disk tier), write-behind durability
 * (store -> drain -> a fresh instance disk-hits bit-identically via
 * RunOutcome::operator==), quarantine of malformed disk entries, and
 * a multi-thread mixed lookup/store/evict stress that runs under the
 * tsan preset like every other test.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <unistd.h>

#include "common/sync.h"
#include "service/result_cache.h"

namespace rfv {
namespace {

/** Deterministic outcome whose identity is its workload name.  Every
 *  payload the footprint estimate counts is populated, and all
 *  same-length names produce byte-identical footprints (the eviction
 *  tests size budgets in whole entries). */
RunOutcome
makeOutcome(const std::string &name)
{
    RunOutcome o;
    o.workload = name;
    o.configLabel = "cache-tier";
    o.launch = LaunchParams{4, 64, 2};
    o.compile.inputRegs = 16;
    o.compile.regStats.resize(32, RegisterStat{1, 2, 3});
    o.sim.cycles = 9000 + name.size();
    o.sim.issuedInstrs = 4242;
    o.sim.rf.bankReads.assign(16, 7);
    o.sim.rf.bankWrites.assign(16, 3);
    o.energy.dynamicJ = 0.125;
    o.energy.staticJ = 0.25;
    return o;
}

Hash128
keyOf(u64 i)
{
    // Distinct hi/lo per index; lo spreads across shards like a real
    // mix-rotate digest would.
    return Hash128{0x5eedu + i, (i + 1) * 0x9e3779b97f4a7c15ull};
}

class TempDir {
  public:
    explicit TempDir(const char *tag)
        : path_((std::filesystem::temp_directory_path() /
                 (std::string("rfv-cache-tier-") + tag + "-" +
                  std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

u64
perEntryBytes()
{
    return ResultCache::entryBytes(makeOutcome("wl-0"));
}

// ---- eviction order ------------------------------------------------------

TEST(CacheTierEviction, LruEvictsTheLeastRecentlyUsedEntry)
{
    const u64 per = perEntryBytes();
    ResultCacheOptions opts;
    opts.dir = ""; // memory-only: an evicted key is an observable miss
    opts.shards = 1;
    opts.memoryBudgetBytes = 3 * per;
    ResultCache cache(opts);

    cache.store(keyOf(0), makeOutcome("wl-A")); // oldest...
    cache.store(keyOf(1), makeOutcome("wl-B"));
    cache.store(keyOf(2), makeOutcome("wl-C")); // ...newest
    EXPECT_TRUE(cache.lookup(keyOf(0)).has_value())
        << "touching A makes B the LRU victim";

    cache.store(keyOf(3), makeOutcome("wl-D")); // over budget: evict B
    EXPECT_FALSE(cache.lookup(keyOf(1)).has_value());
    EXPECT_TRUE(cache.lookup(keyOf(0)).has_value());
    EXPECT_TRUE(cache.lookup(keyOf(2)).has_value());
    EXPECT_TRUE(cache.lookup(keyOf(3)).has_value());

    const ResultCache::Stats st = cache.stats();
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_LE(st.memoryBytes, 3 * per);
}

TEST(CacheTierEviction, ByteBudgetIsEnforcedAcrossManyStores)
{
    const u64 per = perEntryBytes();
    ResultCacheOptions opts;
    opts.dir = "";
    opts.shards = 1;
    opts.memoryBudgetBytes = 2 * per;
    ResultCache cache(opts);

    for (u64 i = 0; i < 10; ++i) {
        cache.store(keyOf(i), makeOutcome("wl-" + std::to_string(i)));
        EXPECT_LE(cache.stats().memoryBytes, 2 * per)
            << "store " << i << " overflowed the byte budget";
    }
    const ResultCache::Stats st = cache.stats();
    EXPECT_EQ(st.stores, 10u);
    EXPECT_EQ(st.evictions, 8u);
}

TEST(CacheTierEviction, UnboundedBudgetNeverEvicts)
{
    ResultCacheOptions opts;
    opts.dir = "";
    opts.shards = 1;
    opts.memoryBudgetBytes = 0; // unbounded
    ResultCache cache(opts);
    for (u64 i = 0; i < 64; ++i)
        cache.store(keyOf(i), makeOutcome("wl-" + std::to_string(i)));
    EXPECT_EQ(cache.stats().evictions, 0u);
    for (u64 i = 0; i < 64; ++i)
        EXPECT_TRUE(cache.lookup(keyOf(i)).has_value()) << i;
}

// ---- demotion to the disk tier ------------------------------------------

TEST(CacheTierEviction, DemotedEntriesStillDiskHitBitIdentically)
{
    TempDir dir("demote");
    const u64 per = perEntryBytes();
    ResultCacheOptions opts;
    opts.dir = dir.path();
    opts.shards = 1;
    opts.memoryBudgetBytes = per; // room for exactly one resident entry
    ResultCache cache(opts);

    constexpr u64 kEntries = 5;
    std::vector<RunOutcome> stored;
    for (u64 i = 0; i < kEntries; ++i) {
        stored.push_back(makeOutcome("wl-" + std::to_string(i)));
        cache.store(keyOf(i), stored.back());
    }
    cache.drain();
    EXPECT_GE(cache.stats().evictions, kEntries - 1);

    for (u64 i = 0; i < kEntries; ++i) {
        const std::optional<RunOutcome> hit = cache.lookup(keyOf(i));
        ASSERT_TRUE(hit.has_value()) << "demoted key " << i;
        EXPECT_TRUE(*hit == stored[i])
            << "disk-tier replay must be bit-identical for key " << i;
    }
    EXPECT_GE(cache.stats().diskHits, kEntries - 1)
        << "cold keys must come back from the disk tier";
}

// ---- write-behind durability --------------------------------------------

TEST(CacheTierWriteBehind, DrainThenFreshInstanceDiskHits)
{
    TempDir dir("durability");
    const RunOutcome out = makeOutcome("wl-durable");

    ResultCacheOptions opts;
    opts.dir = dir.path();
    {
        ResultCache cache(opts);
        cache.store(keyOf(7), out);
        cache.drain();
        EXPECT_EQ(cache.stats().writeBehindDepth, 0u);
    }

    ResultCache fresh(opts);
    const std::optional<RunOutcome> hit = fresh.lookup(keyOf(7));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(*hit == out);
    const ResultCache::Stats st = fresh.stats();
    EXPECT_EQ(st.diskHits, 1u);
    EXPECT_EQ(st.memoryHits, 0u);
}

TEST(CacheTierWriteBehind, DestructorFlushesWithoutExplicitDrain)
{
    TempDir dir("shutdown");
    ResultCacheOptions opts;
    opts.dir = dir.path();
    std::vector<RunOutcome> stored;
    {
        ResultCache cache(opts);
        for (u64 i = 0; i < 16; ++i) {
            stored.push_back(makeOutcome("wl-" + std::to_string(i)));
            cache.store(keyOf(i), stored[i]);
        }
        // No drain(): shutdown itself must flush the queue.
    }
    ResultCache fresh(opts);
    for (u64 i = 0; i < 16; ++i) {
        const std::optional<RunOutcome> hit = fresh.lookup(keyOf(i));
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_TRUE(*hit == stored[i]) << i;
    }
}

TEST(CacheTierWriteBehind, FullQueueDropsThePublishNotTheProcess)
{
    TempDir dir("drops");
    ResultCacheOptions opts;
    opts.dir = dir.path();
    opts.writeBehindCapacity = 1;
    ResultCache cache(opts);
    // Flood far past the queue bound: some publishes are dropped (the
    // counter says how many), none of them blocks or throws, and the
    // memory tier still serves every key.
    for (u64 i = 0; i < 64; ++i)
        cache.store(keyOf(i), makeOutcome("wl-" + std::to_string(i)));
    for (u64 i = 0; i < 64; ++i)
        EXPECT_TRUE(cache.lookup(keyOf(i)).has_value()) << i;
    cache.drain();
    const ResultCache::Stats st = cache.stats();
    EXPECT_EQ(st.stores, 64u);
    EXPECT_EQ(st.writeBehindDepth, 0u);
    EXPECT_LE(st.writeBehindDrops, 63u);
}

// ---- quarantine of malformed entries ------------------------------------

TEST(CacheTierQuarantine, BadEntryIsDeletedOnFirstDetection)
{
    TempDir dir("quarantine");
    ResultCacheOptions opts;
    opts.dir = dir.path();
    const std::string path =
        dir.path() + "/" + keyOf(3).hex() + ".rfvres";

    {
        ResultCache cache(opts);
        cache.store(keyOf(3), makeOutcome("wl-victim"));
        cache.drain();
    }
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "rfv-result 1\ntruncated garbage";
    }

    ResultCache cache(opts);
    EXPECT_FALSE(cache.lookup(keyOf(3)).has_value());
    ResultCache::Stats st = cache.stats();
    EXPECT_EQ(st.badEntries, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_FALSE(std::filesystem::exists(path))
        << "the malformed file must be quarantined at detection time";

    // The second lookup must not re-open and re-parse garbage: the
    // file is gone, so it is a plain miss with no new bad entry.
    EXPECT_FALSE(cache.lookup(keyOf(3)).has_value());
    st = cache.stats();
    EXPECT_EQ(st.badEntries, 1u)
        << "exactly one badEntries bump per corrupt file";
    EXPECT_EQ(st.misses, 2u);
}

// ---- concurrency ---------------------------------------------------------

u64
stressIters()
{
    // The tsan matrix job cranks this up via the environment; the
    // default keeps the test snappy in the plain suite.
    if (const char *env = std::getenv("RFV_STRESS_ITERS"))
        return std::strtoull(env, nullptr, 10);
    return 400;
}

TEST(CacheTierStress, MixedLookupStoreEvictUnderLru)
{
    TempDir dir("stress-lru");
    const u64 per = perEntryBytes();
    constexpr u64 kKeys = 32;
    constexpr u32 kThreads = 8;

    ResultCacheOptions opts;
    opts.dir = dir.path();
    opts.shards = 4;
    // Roughly half the working set fits: lookups, stores, evictions,
    // demotions and disk re-admissions all race constantly.
    opts.memoryBudgetBytes = (kKeys / 2) * per;
    ResultCache cache(opts);

    std::vector<RunOutcome> expected;
    for (u64 i = 0; i < kKeys; ++i)
        expected.push_back(makeOutcome("wl-" + std::to_string(i)));

    const u64 iters = stressIters();
    std::atomic<u64> wrongValues{0};
    std::vector<Thread> threads;
    for (u32 t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::mt19937_64 rng(0xFEED + t);
            for (u64 i = 0; i < iters; ++i) {
                const u64 k = rng() % kKeys;
                if (rng() % 4 == 0) {
                    cache.store(keyOf(k), expected[k]);
                } else if (auto hit = cache.lookup(keyOf(k))) {
                    if (!(*hit == expected[k]))
                        wrongValues.fetch_add(1);
                }
                if (rng() % 64 == 0)
                    (void)cache.stats(); // racing snapshots stay safe
            }
        });
    }
    for (Thread &t : threads)
        t.join();
    cache.drain();

    EXPECT_EQ(wrongValues.load(), 0u)
        << "a hit must always replay the exact stored outcome";
    const ResultCache::Stats st = cache.stats();
    EXPECT_GT(st.stores, 0u);
    EXPECT_EQ(st.writeBehindDepth, 0u);
    EXPECT_LE(st.memoryBytes, opts.memoryBudgetBytes)
        << "the byte budget must hold under concurrent churn";

    // Every key is durable on disk: a fresh instance replays all of
    // them bit-identically (some keys may never have been stored if
    // the rng skipped them — only check the ones present).
    ResultCache fresh(opts);
    u64 replayed = 0;
    for (u64 i = 0; i < kKeys; ++i) {
        if (auto hit = fresh.lookup(keyOf(i))) {
            EXPECT_TRUE(*hit == expected[i]) << i;
            ++replayed;
        }
    }
    EXPECT_GT(replayed, 0u);
}


// ---- shard partitioning --------------------------------------------------

TEST(CacheTier, ShardCountIsRoundedToAPowerOfTwo)
{
    // Not directly observable, so probe behaviourally: any shard
    // count must still find every key it stored.
    for (u32 shards : {0u, 1u, 3u, 16u, 17u}) {
        ResultCacheOptions opts;
        opts.dir = "";
        opts.shards = shards;
        ResultCache cache(opts);
        for (u64 i = 0; i < 40; ++i)
            cache.store(keyOf(i), makeOutcome("wl-" + std::to_string(i)));
        for (u64 i = 0; i < 40; ++i)
            EXPECT_TRUE(cache.lookup(keyOf(i)).has_value())
                << "shards=" << shards << " key " << i;
    }
}

} // namespace
} // namespace rfv
