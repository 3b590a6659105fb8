/**
 * @file
 * Memoized simulation results: a two-tier (memory + disk) cache from
 * result key to RunOutcome.
 *
 * Soundness rests on three facts: simulation is deterministic, results
 * are independent of the canonicalized execution knobs (thread count,
 * cycle-loop flavour — PR 1/PR 3 bit-identity guarantees), and the key
 * covers everything else that can influence the outcome (program
 * content, canonical config, launch geometry, simulator version — see
 * service/hash.h and service/version.h).  A hit therefore replays the
 * stored outcome bit-identically to a live run, including energy
 * doubles (serialized as raw bit patterns) and verifier diagnostics.
 *
 * Structure, mirroring the paper's small-physical/large-virtual
 * discipline: a bounded memory tier serves hot keys at ns latency and
 * the disk tier holds everything ever published.
 *
 *  - The memory tier is hash-partitioned into lock-striped shards,
 *    each under its own std::shared_mutex: memory hits take a shared
 *    lock only (recency is tracked with per-entry atomics), so
 *    concurrent readers never serialize.  Entries hold shared_ptrs;
 *    the outcome copy handed to the caller is made after the lock is
 *    released.
 *  - The memory tier is byte-budgeted.  Crossing the budget evicts
 *    the least-recently-used entries — demoting them to the disk tier
 *    rather than pinning every outcome for the life of the process.
 *    A demoted key is still a (disk) hit and is re-admitted on access.
 *  - Disk publishes are write-behind: store() only pushes onto a
 *    bounded WorkQueue with one publisher worker, so no file I/O
 *    ever happens under a shard lock.  The destructor flushes the
 *    queue (flush-on-shutdown); drain() blocks until it is empty —
 *    SweepEngine::run() and daemon shutdown call it so no admitted
 *    result is lost.  A full queue drops the disk publish (counted in
 *    Stats::writeBehindDrops) — the entry stays served by the memory
 *    tier and a later miss just re-simulates; cache write failures
 *    have always been non-fatal.
 *
 * Disk layout: one self-describing text file per key under the cache
 * directory, written atomically (temp file + rename) so concurrent
 * sweeps and aborted runs can never publish a torn entry.  Any
 * malformed or truncated entry is treated as a miss, quarantined
 * (deleted) so it is never re-parsed, and re-simulated.
 */
#ifndef RFV_SERVICE_RESULT_CACHE_H
#define RFV_SERVICE_RESULT_CACHE_H

#include <atomic>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/simulator.h"
#include "service/hash.h"

namespace rfv {

struct ResultCacheOptions {
    /** "" keeps the cache in-memory only (no persistence). */
    std::string dir;

    /**
     * Memory-tier byte budget across all shards (0 = unbounded).
     * Soft: a shard never evicts below one resident entry, so a
     * single entry larger than its slice stays admitted.
     */
    u64 memoryBudgetBytes = 256ull << 20;

    /** Lock-striped shard count; rounded up to a power of two, >=1. */
    u32 shards = 16;

    /** Write-behind queue capacity; overflow drops the disk publish. */
    u32 writeBehindCapacity = 256;
};

class ResultCache {
  public:
    struct Stats {
        Counter memoryHits;
        Counter diskHits;
        Counter misses;
        Counter stores;
        Counter badEntries; //!< malformed disk entries, quarantined
        Counter evictions;  //!< entries demoted out of the memory tier
        u64 memoryBytes = 0; //!< resident memory-tier footprint
        u64 writeBehindDepth = 0; //!< publish queue depth (snapshot)
        Counter writeBehindDrops; //!< publishes skipped, queue full

        template <class Fn>
        static void
        fields(Fn &&fn)
        {
            fn("memory_hits", &Stats::memoryHits);
            fn("disk_hits", &Stats::diskHits);
            fn("misses", &Stats::misses);
            fn("stores", &Stats::stores);
            fn("bad_entries", &Stats::badEntries);
            fn("evictions", &Stats::evictions);
            fn("memory_bytes", &Stats::memoryBytes);
            fn("write_behind_depth", &Stats::writeBehindDepth);
            fn("write_behind_drops", &Stats::writeBehindDrops);
        }
    };

    /** @p dir = "" keeps the cache in-memory only (no persistence). */
    explicit ResultCache(std::string dir);
    explicit ResultCache(ResultCacheOptions opts);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** Replay a stored outcome, or nullopt on a miss. */
    std::optional<RunOutcome> lookup(const Hash128 &key);

    /** Record a live run's outcome (memory now, disk write-behind). */
    void store(const Hash128 &key, const RunOutcome &outcome);

    /**
     * Block until every queued disk publish has landed.  Called by
     * SweepEngine::run() and daemon shutdown; tests call it before
     * reopening the directory with a fresh instance.
     */
    void drain();

    Stats stats() const;

    /** Exact round-trip codec (public for tests). */
    static void serialize(std::ostream &os, const RunOutcome &outcome);
    /** Throws std::runtime_error on any malformed input. */
    static RunOutcome deserialize(std::istream &is);

    /**
     * Memory-tier footprint estimate of one outcome: struct size plus
     * heap payloads (strings, per-register stats, per-bank counters,
     * verifier diagnostics).
     */
    static u64 entryBytes(const RunOutcome &outcome);

  private:
    struct Entry {
        std::shared_ptr<const RunOutcome> outcome;
        u64 bytes = 0;
        std::atomic<u64> lastUse{0}; //!< LRU recency tick
    };

    struct Shard {
        mutable SharedMutex mu;
        std::unordered_map<std::string, std::unique_ptr<Entry>>
            map RFV_GUARDED_BY(mu);
        u64 bytes RFV_GUARDED_BY(mu) = 0; //!< resident payload bytes

        // Per shard, not per cache: memory hits are counted under a
        // shared lock by concurrent readers, and one counter set would
        // put every hit on one cache line.  stats() sums the shards.
        Stats counts;
    };

    struct PublishJob {
        std::string hex;
        std::shared_ptr<const RunOutcome> outcome;
    };

    Shard &shardFor(const Hash128 &key);
    std::string entryPath(const std::string &hex) const;

    /** Insert/refresh @p hex in the memory tier, then evict to budget. */
    void admit(Shard &sh, const std::string &hex,
               std::shared_ptr<const RunOutcome> outcome)
        RFV_EXCLUDES(sh.mu);
    /** Evict under sh.mu (exclusive) until the shard fits its slice. */
    void evictLocked(Shard &sh, const std::string &protect)
        RFV_REQUIRES(sh.mu);
    void eraseLocked(Shard &sh,
                     std::unordered_map<std::string,
                                        std::unique_ptr<Entry>>::iterator
                         it) RFV_REQUIRES(sh.mu);

    void publishOne(const PublishJob &job) const;

    ResultCacheOptions opts_;
    u32 shardMask_ = 0;
    u64 budgetPerShard_ = 0; //!< 0 = unbounded
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<u64> tick_{1};

    // Write-behind publisher: one worker, present only with a cache
    // directory.  Declared last, so its destruction (which flushes the
    // backlog) runs before any field publishOne reads is destroyed.
    std::optional<WorkQueue<PublishJob>> publisher_;
};

} // namespace rfv

#endif // RFV_SERVICE_RESULT_CACHE_H
