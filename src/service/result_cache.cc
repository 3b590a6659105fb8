#include "service/result_cache.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

namespace rfv {

namespace {

constexpr const char *kMagic = "rfv-result";
constexpr u64 kFormatVersion = 1;

/** Line-oriented tagged writer: "u key value", "d key hexbits", …. */
class Writer {
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    void
    u(const char *key, u64 v)
    {
        os_ << "u " << key << ' ' << v << '\n';
    }

    void
    d(const char *key, double v)
    {
        u64 bits;
        __builtin_memcpy(&bits, &v, sizeof(bits));
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(bits));
        os_ << "d " << key << ' ' << buf << '\n';
    }

    void
    s(const char *key, const std::string &v)
    {
        os_ << "s " << key << ' ' << v.size() << '\n';
        os_.write(v.data(), static_cast<std::streamsize>(v.size()));
        os_ << '\n';
    }

  private:
    std::ostream &os_;
};

/** Strict reader: every tag and key must match the writing order. */
class Reader {
  public:
    explicit Reader(std::istream &is) : is_(is) {}

    u64
    u(const char *key)
    {
        expect("u", key);
        u64 v = 0;
        if (!(is_ >> v))
            bad(key);
        return v;
    }

    double
    d(const char *key)
    {
        expect("d", key);
        std::string hex;
        if (!(is_ >> hex) || hex.size() != 16)
            bad(key);
        const u64 bits = std::stoull(hex, nullptr, 16);
        double v;
        __builtin_memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    s(const char *key)
    {
        expect("s", key);
        u64 len = 0;
        if (!(is_ >> len) || len > (64u << 20))
            bad(key);
        is_.get(); // the newline after the length
        std::string v(len, '\0');
        is_.read(v.data(), static_cast<std::streamsize>(len));
        if (!is_)
            bad(key);
        return v;
    }

  private:
    void
    expect(const char *tag, const char *key)
    {
        std::string t, k;
        if (!(is_ >> t >> k) || t != tag || k != key)
            bad(key);
    }

    [[noreturn]] void
    bad(const char *key)
    {
        throw std::runtime_error(std::string("malformed cache entry at ") +
                                 key);
    }

    std::istream &is_;
};

void
writeVec(Writer &w, const char *key, const std::vector<u64> &v)
{
    w.u(key, v.size());
    for (u64 x : v)
        w.u("item", x);
}

std::vector<u64>
readVec(Reader &r, const char *key)
{
    const u64 n = r.u(key);
    if (n > (1u << 20))
        throw std::runtime_error("oversized vector in cache entry");
    std::vector<u64> v(n);
    for (u64 i = 0; i < n; ++i)
        v[i] = r.u("item");
    return v;
}

} // namespace

void
ResultCache::serialize(std::ostream &os, const RunOutcome &o)
{
    Writer w(os);
    os << kMagic << ' ' << kFormatVersion << '\n';
    w.s("workload", o.workload);
    w.s("configLabel", o.configLabel);

    w.u("gridCtas", o.launch.gridCtas);
    w.u("threadsPerCta", o.launch.threadsPerCta);
    w.u("concCtasPerSm", o.launch.concCtasPerSm);

    const CompileStats &c = o.compile;
    w.u("inputRegs", c.inputRegs);
    w.u("finalRegs", c.finalRegs);
    w.u("numExempt", c.numExempt);
    w.u("staticRegular", c.staticRegular);
    w.u("staticMeta", c.staticMeta);
    w.u("numPirInstrs", c.numPirInstrs);
    w.u("numPbrInstrs", c.numPbrInstrs);
    w.u("numPirBits", c.numPirBits);
    w.u("numPbrRegs", c.numPbrRegs);
    w.u("unconstrainedTableBytes", c.unconstrainedTableBytes);
    w.u("constrainedTableBytes", c.constrainedTableBytes);
    w.u("demotedRegs", c.demotedRegs);
    w.u("spillLoads", c.spillLoads);
    w.u("spillStores", c.spillStores);
    w.u("regStats", c.regStats.size());
    for (const RegisterStat &rs : c.regStats) {
        w.u("defs", rs.defs);
        w.u("uses", rs.uses);
        w.u("liveSpan", rs.liveSpan);
    }

    const SimResult &s = o.sim;
    w.u("cycles", s.cycles);
    w.u("issuedInstrs", s.issuedInstrs);
    w.u("threadInstrs", s.threadInstrs);
    w.u("metaEncounters", s.metaEncounters);
    w.u("metaDecoded", s.metaDecoded);
    w.u("flagCacheHits", s.flagCacheHits);
    w.u("flagCacheMisses", s.flagCacheMisses);
    w.u("scoreboardStalls", s.scoreboardStalls);
    w.u("allocStallEvents", s.allocStallEvents);
    w.u("throttleActiveCycles", s.throttleActiveCycles);
    w.u("bankConflictCycles", s.bankConflictCycles);
    w.u("spillEvents", s.spillEvents);
    w.u("spilledRegs", s.spilledRegs);
    w.u("refilledRegs", s.refilledRegs);
    w.u("wakeStallEvents", s.wakeStallEvents);
    w.u("icacheHits", s.icacheHits);
    w.u("icacheMisses", s.icacheMisses);
    w.u("dcacheHits", s.dcacheHits);
    w.u("dcacheMisses", s.dcacheMisses);
    w.u("peakResidentWarps", s.peakResidentWarps);
    w.u("completedCtas", s.completedCtas);
    w.u("regsPerWarp", s.regsPerWarp);

    writeVec(w, "bankReads", s.rf.bankReads);
    writeVec(w, "bankWrites", s.rf.bankWrites);
    w.u("allocations", s.rf.allocations);
    w.u("releases", s.rf.releases);
    w.u("wakeEvents", s.rf.wakeEvents);
    w.u("activeSubarrayCycles", s.rf.activeSubarrayCycles);
    w.u("rfSampledCycles", s.rf.sampledCycles);
    w.u("allocWatermark", s.rf.allocWatermark);
    w.u("touchedCount", s.rf.touchedCount);
    w.u("crossWarpReuse", s.rf.crossWarpReuse);
    w.u("sameWarpReuse", s.rf.sameWarpReuse);

    w.u("lookups", s.rename.lookups);
    w.u("updates", s.rename.updates);
    w.u("renameSpills", s.rename.spills);
    w.u("renameRefills", s.rename.refills);
    w.u("mappedRegCycles", s.rename.mappedRegCycles);
    w.u("renameSampledCycles", s.rename.sampledCycles);

    w.u("dramRequests", s.dram.requests);
    w.u("dramTransactions", s.dram.transactions);
    w.u("dramQueueCycles", s.dram.queueCycles);

    w.u("steppedCycles", o.loop.steppedCycles);
    w.u("skippedCycles", o.loop.skippedCycles);
    w.u("smStepsElided", o.loop.smStepsElided);

    w.d("dynamicJ", o.energy.dynamicJ);
    w.d("staticJ", o.energy.staticJ);
    w.d("renameTableJ", o.energy.renameTableJ);
    w.d("flagInstrJ", o.energy.flagInstrJ);

    w.u("verified", o.verified ? 1 : 0);
    w.u("releasesChecked", o.verify.releasesChecked);
    w.u("numErrors", o.verify.numErrors);
    w.u("numWarnings", o.verify.numWarnings);
    w.u("diags", o.verify.diags.size());
    for (const VerifyDiag &dg : o.verify.diags) {
        w.u("kind", static_cast<u64>(dg.kind));
        w.u("severity", static_cast<u64>(dg.severity));
        w.u("pc", dg.pc);
        w.u("reg", dg.reg);
        w.s("message", dg.message);
    }
    os << "end\n";
}

RunOutcome
ResultCache::deserialize(std::istream &is)
{
    std::string magic;
    u64 fmt = 0;
    if (!(is >> magic >> fmt) || magic != kMagic || fmt != kFormatVersion)
        throw std::runtime_error("bad cache entry header");

    Reader r(is);
    RunOutcome o;
    o.workload = r.s("workload");
    o.configLabel = r.s("configLabel");

    o.launch.gridCtas = static_cast<u32>(r.u("gridCtas"));
    o.launch.threadsPerCta = static_cast<u32>(r.u("threadsPerCta"));
    o.launch.concCtasPerSm = static_cast<u32>(r.u("concCtasPerSm"));

    CompileStats &c = o.compile;
    c.inputRegs = static_cast<u32>(r.u("inputRegs"));
    c.finalRegs = static_cast<u32>(r.u("finalRegs"));
    c.numExempt = static_cast<u32>(r.u("numExempt"));
    c.staticRegular = static_cast<u32>(r.u("staticRegular"));
    c.staticMeta = static_cast<u32>(r.u("staticMeta"));
    c.numPirInstrs = static_cast<u32>(r.u("numPirInstrs"));
    c.numPbrInstrs = static_cast<u32>(r.u("numPbrInstrs"));
    c.numPirBits = static_cast<u32>(r.u("numPirBits"));
    c.numPbrRegs = static_cast<u32>(r.u("numPbrRegs"));
    c.unconstrainedTableBytes =
        static_cast<u32>(r.u("unconstrainedTableBytes"));
    c.constrainedTableBytes =
        static_cast<u32>(r.u("constrainedTableBytes"));
    c.demotedRegs = static_cast<u32>(r.u("demotedRegs"));
    c.spillLoads = static_cast<u32>(r.u("spillLoads"));
    c.spillStores = static_cast<u32>(r.u("spillStores"));
    const u64 nrs = r.u("regStats");
    if (nrs > (1u << 20))
        throw std::runtime_error("oversized regStats in cache entry");
    c.regStats.resize(nrs);
    for (RegisterStat &rs : c.regStats) {
        rs.defs = static_cast<u32>(r.u("defs"));
        rs.uses = static_cast<u32>(r.u("uses"));
        rs.liveSpan = static_cast<u32>(r.u("liveSpan"));
    }

    SimResult &s = o.sim;
    s.cycles = r.u("cycles");
    s.issuedInstrs = r.u("issuedInstrs");
    s.threadInstrs = r.u("threadInstrs");
    s.metaEncounters = r.u("metaEncounters");
    s.metaDecoded = r.u("metaDecoded");
    s.flagCacheHits = r.u("flagCacheHits");
    s.flagCacheMisses = r.u("flagCacheMisses");
    s.scoreboardStalls = r.u("scoreboardStalls");
    s.allocStallEvents = r.u("allocStallEvents");
    s.throttleActiveCycles = r.u("throttleActiveCycles");
    s.bankConflictCycles = r.u("bankConflictCycles");
    s.spillEvents = r.u("spillEvents");
    s.spilledRegs = r.u("spilledRegs");
    s.refilledRegs = r.u("refilledRegs");
    s.wakeStallEvents = r.u("wakeStallEvents");
    s.icacheHits = r.u("icacheHits");
    s.icacheMisses = r.u("icacheMisses");
    s.dcacheHits = r.u("dcacheHits");
    s.dcacheMisses = r.u("dcacheMisses");
    s.peakResidentWarps = static_cast<u32>(r.u("peakResidentWarps"));
    s.completedCtas = static_cast<u32>(r.u("completedCtas"));
    s.regsPerWarp = static_cast<u32>(r.u("regsPerWarp"));

    s.rf.bankReads = readVec(r, "bankReads");
    s.rf.bankWrites = readVec(r, "bankWrites");
    s.rf.allocations = r.u("allocations");
    s.rf.releases = r.u("releases");
    s.rf.wakeEvents = r.u("wakeEvents");
    s.rf.activeSubarrayCycles = r.u("activeSubarrayCycles");
    s.rf.sampledCycles = r.u("rfSampledCycles");
    s.rf.allocWatermark = static_cast<u32>(r.u("allocWatermark"));
    s.rf.touchedCount = static_cast<u32>(r.u("touchedCount"));
    s.rf.crossWarpReuse = r.u("crossWarpReuse");
    s.rf.sameWarpReuse = r.u("sameWarpReuse");

    s.rename.lookups = r.u("lookups");
    s.rename.updates = r.u("updates");
    s.rename.spills = r.u("renameSpills");
    s.rename.refills = r.u("renameRefills");
    s.rename.mappedRegCycles = r.u("mappedRegCycles");
    s.rename.sampledCycles = r.u("renameSampledCycles");

    s.dram.requests = r.u("dramRequests");
    s.dram.transactions = r.u("dramTransactions");
    s.dram.queueCycles = r.u("dramQueueCycles");

    o.loop.steppedCycles = r.u("steppedCycles");
    o.loop.skippedCycles = r.u("skippedCycles");
    o.loop.smStepsElided = r.u("smStepsElided");

    o.energy.dynamicJ = r.d("dynamicJ");
    o.energy.staticJ = r.d("staticJ");
    o.energy.renameTableJ = r.d("renameTableJ");
    o.energy.flagInstrJ = r.d("flagInstrJ");

    o.verified = r.u("verified") != 0;
    o.verify.releasesChecked = static_cast<u32>(r.u("releasesChecked"));
    o.verify.numErrors = static_cast<u32>(r.u("numErrors"));
    o.verify.numWarnings = static_cast<u32>(r.u("numWarnings"));
    const u64 nd = r.u("diags");
    if (nd > (1u << 20))
        throw std::runtime_error("oversized diags in cache entry");
    o.verify.diags.resize(nd);
    for (VerifyDiag &dg : o.verify.diags) {
        dg.kind = static_cast<VerifyKind>(r.u("kind"));
        dg.severity = static_cast<VerifySeverity>(r.u("severity"));
        dg.pc = static_cast<u32>(r.u("pc"));
        dg.reg = static_cast<u32>(r.u("reg"));
        dg.message = r.s("message");
    }

    std::string tail;
    if (!(is >> tail) || tail != "end")
        throw std::runtime_error("truncated cache entry");
    return o;
}

u64
ResultCache::entryBytes(const RunOutcome &o)
{
    u64 b = sizeof(RunOutcome);
    b += o.workload.capacity() + o.configLabel.capacity();
    b += o.compile.regStats.capacity() * sizeof(RegisterStat);
    b += o.sim.rf.bankReads.capacity() * sizeof(u64);
    b += o.sim.rf.bankWrites.capacity() * sizeof(u64);
    b += o.verify.diags.capacity() * sizeof(VerifyDiag);
    for (const VerifyDiag &dg : o.verify.diags)
        b += dg.message.capacity();
    return b;
}

namespace {

u32
roundUpPow2(u32 v)
{
    u32 p = 1;
    while (p < v && p < (1u << 16))
        p <<= 1;
    return p;
}

} // namespace

ResultCache::ResultCache(std::string dir)
    : ResultCache(ResultCacheOptions{std::move(dir)})
{
}

ResultCache::ResultCache(ResultCacheOptions opts) : opts_(std::move(opts))
{
    const u32 n = roundUpPow2(std::max(opts_.shards, 1u));
    shardMask_ = n - 1;
    shards_.reserve(n);
    for (u32 i = 0; i < n; ++i)
        shards_.push_back(std::make_unique<Shard>());
    if (opts_.memoryBudgetBytes)
        budgetPerShard_ = std::max<u64>(opts_.memoryBudgetBytes / n, 1);
    if (!opts_.dir.empty()) {
        std::filesystem::create_directories(opts_.dir);
        publisher_ = Thread([this] { publisherLoop(); });
    }
}

ResultCache::~ResultCache()
{
    if (!publisher_.joinable())
        return;
    {
        MutexLock lk(pubMu_);
        pubStop_ = true;
    }
    // The publisher drains the remaining queue before honouring the
    // stop flag, so every admitted publish survives shutdown.
    pubCv_.notifyAll();
    publisher_.join();
}

ResultCache::Shard &
ResultCache::shardFor(const Hash128 &key)
{
    // key.lo is the mix-rotate hash lane: already well distributed,
    // so the low bits pick the stripe directly.
    return *shards_[key.lo & shardMask_];
}

std::string
ResultCache::entryPath(const std::string &hex) const
{
    return opts_.dir + "/" + hex + ".rfvres";
}

std::optional<RunOutcome>
ResultCache::lookup(const Hash128 &key)
{
    const std::string hex = key.hex();
    Shard &sh = shardFor(key);

    // Memory tier: shared lock only.  Recency is tracked through
    // per-entry atomics so a hit never needs the exclusive lock, and
    // the caller's copy is made after the lock is dropped.
    std::shared_ptr<const RunOutcome> found;
    {
        ReaderLock lk(sh.mu);
        auto it = sh.map.find(hex);
        if (it != sh.map.end()) {
            Entry &e = *it->second;
            // relaxed: recency metadata only steers eviction — a
            // stale tick costs at worst one suboptimal victim choice,
            // never correctness.
            e.lastUse.store(tick_.fetch_add(1, std::memory_order_relaxed),
                            std::memory_order_relaxed);
            // relaxed: monotonic statistic.
            sh.memoryHits.fetch_add(1, std::memory_order_relaxed);
            found = e.outcome;
        }
    }
    if (found)
        return *found;

    if (opts_.dir.empty()) {
        // relaxed: monotonic statistic.
        sh.misses.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }

    // Disk tier: open/read/deserialize with no lock held at all.
    std::ifstream in(entryPath(hex), std::ios::binary);
    if (!in) {
        // relaxed: monotonic statistic.
        sh.misses.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    std::shared_ptr<const RunOutcome> loaded;
    try {
        loaded = std::make_shared<const RunOutcome>(deserialize(in));
    } catch (const std::exception &) {
        // Quarantine: a malformed entry left in place would be
        // re-opened and re-parsed on every future lookup of this key.
        // Deleting it makes the next lookup a clean (cheap) miss and
        // the next store a clean republish.
        in.close();
        // relaxed: monotonic statistics.
        sh.badEntries.fetch_add(1, std::memory_order_relaxed);
        sh.misses.fetch_add(1, std::memory_order_relaxed);
        std::error_code ec;
        std::filesystem::remove(entryPath(hex), ec);
        return std::nullopt;
    }
    // relaxed: monotonic statistic.
    sh.diskHits.fetch_add(1, std::memory_order_relaxed);
    admit(sh, hex, loaded); // promote back into the memory tier
    return *loaded;
}

void
ResultCache::store(const Hash128 &key, const RunOutcome &outcome)
{
    const std::string hex = key.hex();
    Shard &sh = shardFor(key);
    auto sp = std::make_shared<const RunOutcome>(outcome);
    // relaxed: monotonic statistic.
    sh.stores.fetch_add(1, std::memory_order_relaxed);
    admit(sh, hex, sp);
    if (!opts_.dir.empty())
        enqueuePublish(hex, std::move(sp));
}

void
ResultCache::admit(Shard &sh, const std::string &hex,
                   std::shared_ptr<const RunOutcome> outcome)
{
    const u64 bytes = entryBytes(*outcome);
    WriterLock lk(sh.mu);
    auto it = sh.map.find(hex);
    if (it != sh.map.end()) {
        Entry &e = *it->second;
        sh.bytes -= e.bytes;
        e.outcome = std::move(outcome);
        e.bytes = bytes;
        sh.bytes += bytes;
        // relaxed: recency metadata; see lookup().
        e.lastUse.store(tick_.fetch_add(1, std::memory_order_relaxed),
                        std::memory_order_relaxed);
    } else {
        auto e = std::make_unique<Entry>();
        e->outcome = std::move(outcome);
        e->bytes = bytes;
        // relaxed: recency metadata; see lookup().
        e->lastUse.store(tick_.fetch_add(1, std::memory_order_relaxed),
                         std::memory_order_relaxed);
        sh.bytes += bytes;
        sh.map.emplace(hex, std::move(e));
    }
    evictLocked(sh, hex);
}

void
ResultCache::eraseLocked(
    Shard &sh,
    std::unordered_map<std::string, std::unique_ptr<Entry>>::iterator it)
{
    sh.bytes -= it->second->bytes;
    sh.map.erase(it);
    // relaxed: monotonic statistic.
    sh.evictions.fetch_add(1, std::memory_order_relaxed);
}

void
ResultCache::evictLocked(Shard &sh, const std::string &protect)
{
    if (!budgetPerShard_)
        return;
    // Demote-to-disk, never drop the entry just touched: the budget is
    // soft by exactly one entry per shard, so an outcome larger than a
    // whole slice still gets served from memory while it is hot.
    while (sh.bytes > budgetPerShard_ && sh.map.size() > 1) {
        auto victim = sh.map.end();
        u64 oldest = ~0ull;
        for (auto it = sh.map.begin(); it != sh.map.end(); ++it) {
            if (it->first == protect)
                continue;
            // relaxed: recency metadata; see lookup().
            const u64 t = it->second->lastUse.load(std::memory_order_relaxed);
            if (t < oldest) {
                oldest = t;
                victim = it;
            }
        }
        if (victim == sh.map.end())
            return;
        eraseLocked(sh, victim);
    }
}

void
ResultCache::enqueuePublish(const std::string &hex,
                            std::shared_ptr<const RunOutcome> outcome)
{
    {
        MutexLock lk(pubMu_);
        if (pubQueue_.size() >= opts_.writeBehindCapacity) {
            // Shedding the publish is safe: the entry is resident in
            // the memory tier, and if it gets demoted before a reuse
            // the job simply re-simulates.  Bounding the queue keeps a
            // burst of stores from buffering unbounded serialized
            // state — the same backpressure discipline as the daemon's
            // admission queue.
            //
            // relaxed: monotonic statistic.
            writeBehindDrops_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        pubQueue_.push_back({hex, std::move(outcome)});
    }
    pubCv_.notifyOne();
}

void
ResultCache::publisherLoop()
{
    for (;;) {
        PublishJob job;
        {
            MutexLock lk(pubMu_);
            while (pubQueue_.empty() && !pubStop_)
                pubCv_.wait(lk);
            if (pubQueue_.empty())
                return; // stop requested and the backlog is flushed
            job = std::move(pubQueue_.front());
            pubQueue_.pop_front();
            pubWriting_ = true;
        }
        publishOne(job); // file I/O with no lock held
        {
            MutexLock lk(pubMu_);
            pubWriting_ = false;
            if (pubQueue_.empty())
                drainCv_.notifyAll();
        }
    }
}

void
ResultCache::publishOne(const PublishJob &job) const
{
    // Atomic publish: write a unique temp file, then rename over the
    // final name.  Readers either see the old complete entry or the
    // new complete entry, never a torn write.  The name carries the
    // pid as well as a per-process counter: cache directories are
    // shared between processes (two daemons, or a daemon plus a CLI
    // sweep), and a counter alone would let both write the same tmp
    // path and clobber each other before the rename.
    static std::atomic<u64> tmpCounter{0};
    const std::string path = entryPath(job.hex);
    // relaxed: the counter only needs uniqueness, not ordering.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(tmpCounter.fetch_add(1, std::memory_order_relaxed));
    bool ok = false;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (out) {
            serialize(out, *job.outcome);
            ok = static_cast<bool>(out);
        }
    }
    // Cache write failures are non-fatal by design (the run already
    // succeeded); just never leave a partial file behind.
    std::error_code ec;
    if (ok) {
        std::filesystem::rename(tmp, path, ec);
        if (!ec)
            return;
    }
    std::filesystem::remove(tmp, ec);
}

void
ResultCache::drain()
{
    if (!publisher_.joinable())
        return;
    MutexLock lk(pubMu_);
    // While-loop wait: the predicate reads pubMu_-guarded state, so
    // it must live here where the analysis sees the lock held.
    while (!pubQueue_.empty() || pubWriting_)
        drainCv_.wait(lk);
}

ResultCache::Stats
ResultCache::stats() const
{
    Stats s;
    for (const auto &shp : shards_) {
        const Shard &sh = *shp;
        ReaderLock lk(sh.mu);
        // relaxed: monotonic statistics, aggregated for reporting;
        // sh.bytes is the only field needing the (shared) lock.
        s.memoryHits += sh.memoryHits.load(std::memory_order_relaxed);
        s.diskHits += sh.diskHits.load(std::memory_order_relaxed);
        s.misses += sh.misses.load(std::memory_order_relaxed);
        s.stores += sh.stores.load(std::memory_order_relaxed);
        s.badEntries += sh.badEntries.load(std::memory_order_relaxed);
        s.evictions += sh.evictions.load(std::memory_order_relaxed);
        s.memoryBytes += sh.bytes;
    }
    {
        MutexLock lk(pubMu_);
        s.writeBehindDepth = pubQueue_.size() + (pubWriting_ ? 1 : 0);
    }
    // relaxed: monotonic statistic.
    s.writeBehindDrops =
        writeBehindDrops_.load(std::memory_order_relaxed);
    return s;
}

} // namespace rfv
