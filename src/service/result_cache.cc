#include "service/result_cache.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <unistd.h>

#include "common/decimal.h"

namespace rfv {

namespace {

constexpr const char *kMagic = "rfv-result";
constexpr u64 kFormatVersion = 1;
constexpr u64 kMaxStringBytes = 64u << 20;
constexpr u64 kMaxVectorItems = 1u << 20;

/** Largest value a u() field of type T may hold on the wire. */
template <class T>
constexpr u64 kFieldMax = std::numeric_limits<T>::max(); // bool: 1
template <>
constexpr u64 kFieldMax<VerifyKind> =
    static_cast<u64>(VerifyKind::kBadMetadata);
template <>
constexpr u64 kFieldMax<VerifySeverity> =
    static_cast<u64>(VerifySeverity::kWarning);

/**
 * Line-oriented tagged writer: "u key decimal", "d key hexbits",
 * "s key length\npayload\n".
 */
class Writer {
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    void line(const std::string &text) { os_ << text << '\n'; }

    template <class T>
    void
    u(const char *key, const T &v)
    {
        os_ << "u " << key << ' ' << static_cast<u64>(v) << '\n';
    }

    void
    d(const char *key, double v)
    {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      std::bit_cast<unsigned long long>(v));
        os_ << "d " << key << ' ' << hex << '\n';
    }

    void
    s(const char *key, const std::string &v)
    {
        os_ << "s " << key << ' ' << v.size() << '\n';
        os_.write(v.data(), static_cast<std::streamsize>(v.size()));
        os_ << '\n';
    }

    template <class Vec>
    void count(const char *key, const Vec &v) { u(key, v.size()); }

  private:
    std::ostream &os_;
};

/**
 * Strict reader: accepts exactly the bytes Writer emits, so an
 * accepted entry re-serializes byte for byte.  Anything else throws
 * std::runtime_error.
 */
class Reader {
  public:
    explicit Reader(std::istream &is) : is_(is) {}

    void
    line(const std::string &text)
    {
        if (next(text.c_str()) != text)
            bad(text.c_str());
    }

    /** Nothing may follow the last line. */
    void finish() { if (is_.peek() != EOF) bad("end"); }

    template <class T>
    void
    u(const char *key, T &v)
    {
        static_assert(kFieldMax<T> != 0, "specialize kFieldMax for T");
        v = static_cast<T>(number(value("u", key), kFieldMax<T>, key));
    }

    void
    d(const char *key, double &v)
    {
        const std::string_view hex = value("d", key);
        u64 bits = 0;
        if (hex.size() != 16 ||
            hex.find_first_not_of("0123456789abcdef") != hex.npos ||
            std::from_chars(hex.data(), hex.data() + 16, bits, 16).ec !=
                std::errc())
            bad(key);
        v = std::bit_cast<double>(bits);
    }

    void
    s(const char *key, std::string &v)
    {
        v.resize(number(value("s", key), kMaxStringBytes, key));
        is_.read(v.data(), static_cast<std::streamsize>(v.size()));
        if (!is_ || is_.get() != '\n')
            bad(key);
    }

    template <class Vec>
    void
    count(const char *key, Vec &v)
    {
        v.resize(number(value("u", key), kMaxVectorItems, key));
    }

  private:
    /** The next line without its newline; a missing newline is bad. */
    const std::string &
    next(const char *key)
    {
        if (!std::getline(is_, line_) || is_.eof())
            bad(key);
        return line_;
    }

    /** The value of a "tag key value" line. */
    std::string_view
    value(const char *tag, const char *key)
    {
        std::string_view rest = next(key);
        for (const std::string_view want : {tag, key}) {
            if (!rest.starts_with(want) || rest.size() == want.size() ||
                rest[want.size()] != ' ')
                bad(key);
            rest.remove_prefix(want.size() + 1);
        }
        return rest;
    }

    /** A canonical decimal of at most @p max. */
    static u64
    number(std::string_view text, u64 max, const char *key)
    {
        const std::optional<u64> v = parseCanonicalU64(text, max);
        if (!v)
            bad(key);
        return *v;
    }

    [[noreturn]] static void
    bad(const char *key)
    {
        throw std::runtime_error(std::string("malformed cache entry at ") +
                                 key);
    }

    std::istream &is_;
    std::string line_;
};

// Layout tripwires: adding a field to any of these structs changes its
// size, and walk() must then be taught the new field.  Sizes are for
// the x86-64 System V ABI, as in service/hash.cc.
static_assert(sizeof(RunOutcome) == 616, "update walk()");
static_assert(sizeof(SimResult) == 352, "update walk()");
static_assert(sizeof(CompileStats) == 80, "update walk()");
static_assert(sizeof(RegisterStat) == 12, "update walk()");
static_assert(sizeof(LoopStats) == 24, "update walk()");
static_assert(sizeof(EnergyBreakdown) == 32, "update walk()");
static_assert(sizeof(VerifyDiag) == 48, "update walk()");

/**
 * The codec's one field list, in wire order.  Writer walks a const
 * outcome, Reader a mutable one, so each field is named exactly once.
 */
template <class Io, class Outcome>
void
walk(Io &io, Outcome &o)
{
    io.s("workload", o.workload);
    io.s("configLabel", o.configLabel);

    io.u("gridCtas", o.launch.gridCtas);
    io.u("threadsPerCta", o.launch.threadsPerCta);
    io.u("concCtasPerSm", o.launch.concCtasPerSm);

    auto &c = o.compile;
    io.u("inputRegs", c.inputRegs);
    io.u("finalRegs", c.finalRegs);
    io.u("numExempt", c.numExempt);
    io.u("staticRegular", c.staticRegular);
    io.u("staticMeta", c.staticMeta);
    io.u("numPirInstrs", c.numPirInstrs);
    io.u("numPbrInstrs", c.numPbrInstrs);
    io.u("numPirBits", c.numPirBits);
    io.u("numPbrRegs", c.numPbrRegs);
    io.u("unconstrainedTableBytes", c.unconstrainedTableBytes);
    io.u("constrainedTableBytes", c.constrainedTableBytes);
    io.u("demotedRegs", c.demotedRegs);
    io.u("spillLoads", c.spillLoads);
    io.u("spillStores", c.spillStores);
    io.count("regStats", c.regStats);
    for (auto &rs : c.regStats) {
        io.u("defs", rs.defs);
        io.u("uses", rs.uses);
        io.u("liveSpan", rs.liveSpan);
    }

    auto &s = o.sim;
    io.u("cycles", s.cycles);
    io.u("issuedInstrs", s.issuedInstrs);
    io.u("threadInstrs", s.threadInstrs);
    io.u("metaEncounters", s.metaEncounters);
    io.u("metaDecoded", s.metaDecoded);
    io.u("flagCacheHits", s.flagCacheHits);
    io.u("flagCacheMisses", s.flagCacheMisses);
    io.u("scoreboardStalls", s.scoreboardStalls);
    io.u("allocStallEvents", s.allocStallEvents);
    io.u("throttleActiveCycles", s.throttleActiveCycles);
    io.u("bankConflictCycles", s.bankConflictCycles);
    io.u("spillEvents", s.spillEvents);
    io.u("spilledRegs", s.spilledRegs);
    io.u("refilledRegs", s.refilledRegs);
    io.u("wakeStallEvents", s.wakeStallEvents);
    io.u("icacheHits", s.icacheHits);
    io.u("icacheMisses", s.icacheMisses);
    io.u("dcacheHits", s.dcacheHits);
    io.u("dcacheMisses", s.dcacheMisses);
    io.u("peakResidentWarps", s.peakResidentWarps);
    io.u("completedCtas", s.completedCtas);
    io.u("regsPerWarp", s.regsPerWarp);

    io.count("bankReads", s.rf.bankReads);
    for (auto &x : s.rf.bankReads)
        io.u("item", x);
    io.count("bankWrites", s.rf.bankWrites);
    for (auto &x : s.rf.bankWrites)
        io.u("item", x);
    io.u("allocations", s.rf.allocations);
    io.u("releases", s.rf.releases);
    io.u("wakeEvents", s.rf.wakeEvents);
    io.u("activeSubarrayCycles", s.rf.activeSubarrayCycles);
    io.u("rfSampledCycles", s.rf.sampledCycles);
    io.u("allocWatermark", s.rf.allocWatermark);
    io.u("touchedCount", s.rf.touchedCount);
    io.u("crossWarpReuse", s.rf.crossWarpReuse);
    io.u("sameWarpReuse", s.rf.sameWarpReuse);

    io.u("lookups", s.rename.lookups);
    io.u("updates", s.rename.updates);
    io.u("renameSpills", s.rename.spills);
    io.u("renameRefills", s.rename.refills);
    io.u("mappedRegCycles", s.rename.mappedRegCycles);
    io.u("renameSampledCycles", s.rename.sampledCycles);

    io.u("dramRequests", s.dram.requests);
    io.u("dramTransactions", s.dram.transactions);
    io.u("dramQueueCycles", s.dram.queueCycles);

    io.u("steppedCycles", o.loop.steppedCycles);
    io.u("skippedCycles", o.loop.skippedCycles);
    io.u("smStepsElided", o.loop.smStepsElided);

    io.d("dynamicJ", o.energy.dynamicJ);
    io.d("staticJ", o.energy.staticJ);
    io.d("renameTableJ", o.energy.renameTableJ);
    io.d("flagInstrJ", o.energy.flagInstrJ);

    io.u("verified", o.verified);
    io.u("releasesChecked", o.verify.releasesChecked);
    io.u("numErrors", o.verify.numErrors);
    io.u("numWarnings", o.verify.numWarnings);
    io.count("diags", o.verify.diags);
    for (auto &dg : o.verify.diags) {
        io.u("kind", dg.kind);
        io.u("severity", dg.severity);
        io.u("pc", dg.pc);
        io.u("reg", dg.reg);
        io.s("message", dg.message);
    }
}

const std::string kHeader =
    std::string(kMagic) + ' ' + std::to_string(kFormatVersion);

} // namespace

void
ResultCache::serialize(std::ostream &os, const RunOutcome &o)
{
    Writer w(os);
    w.line(kHeader);
    walk(w, o);
    w.line("end");
}

RunOutcome
ResultCache::deserialize(std::istream &is)
{
    Reader r(is);
    RunOutcome o;
    r.line(kHeader);
    walk(r, o);
    r.line("end");
    r.finish();
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
            ++sh.counts.memoryHits;
            found = e.outcome;
        }
    }
    if (found)
        return *found;

    if (opts_.dir.empty()) {
        ++sh.counts.misses;
        return std::nullopt;
    }

    // Disk tier: open/read/deserialize with no lock held at all.
    std::ifstream in(entryPath(hex), std::ios::binary);
    if (!in) {
        ++sh.counts.misses;
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
        ++sh.counts.badEntries;
        ++sh.counts.misses;
        std::error_code ec;
        std::filesystem::remove(entryPath(hex), ec);
        return std::nullopt;
    }
    ++sh.counts.diskHits;
    admit(sh, hex, loaded); // promote back into the memory tier
    return *loaded;
}

void
ResultCache::store(const Hash128 &key, const RunOutcome &outcome)
{
    const std::string hex = key.hex();
    Shard &sh = shardFor(key);
    auto sp = std::make_shared<const RunOutcome>(outcome);
    ++sh.counts.stores;
    admit(sh, hex, sp);
    if (!opts_.dir.empty())
        enqueuePublish(sh, hex, std::move(sp));
}

void
ResultCache::admit(Shard &sh, const std::string &hex,
                   std::shared_ptr<const RunOutcome> outcome)
{
    auto e = std::make_unique<Entry>();
    e->bytes = entryBytes(*outcome);
    e->outcome = std::move(outcome);
    WriterLock lk(sh.mu);
    // relaxed: recency metadata; see lookup().
    e->lastUse.store(tick_.fetch_add(1, std::memory_order_relaxed),
                     std::memory_order_relaxed);
    // A replaced entry is dropped whole: readers hold their own
    // shared_ptr copies of its outcome.
    auto [it, fresh] = sh.map.try_emplace(hex);
    if (!fresh)
        sh.bytes -= it->second->bytes;
    sh.bytes += e->bytes;
    it->second = std::move(e);
    evictLocked(sh, hex);
}

void
ResultCache::eraseLocked(
    Shard &sh,
    std::unordered_map<std::string, std::unique_ptr<Entry>>::iterator it)
{
    sh.bytes -= it->second->bytes;
    sh.map.erase(it);
    ++sh.counts.evictions;
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
ResultCache::enqueuePublish(Shard &sh, const std::string &hex,
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
            ++sh.counts.writeBehindDrops;
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
    for (const auto &sh : shards_) {
        Stats::fields([&](const char *, auto field) {
            s.*field += sh->counts.*field;
        });
        ReaderLock lk(sh->mu);
        s.memoryBytes += sh->bytes;
    }
    MutexLock lk(pubMu_);
    s.writeBehindDepth = pubQueue_.size() + (pubWriting_ ? 1 : 0);
    return s;
}

} // namespace rfv
