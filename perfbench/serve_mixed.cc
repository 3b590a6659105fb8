/**
 * @file
 * serve_mixed: the daemon user's path.  One in-process SimdServer
 * with 2 executors, its cache warmed with run_sweep --default's 48
 * jobs during set-up, driven by an open-loop generator (4 load
 * threads, one connection each) at fixed offered rates.  About 90% of
 * requests repeat a warmed job (memory hits); about 10% are fresh
 * seed-derived `gen:` scenarios (misses that simulate and publish
 * beside the reads).  Frame codec, admission and ResultCache hits
 * dominate; SM-step time barely matters.
 *
 * Each request is timed from its due time, so a stall is charged to
 * every request queued behind it.  rpc_p50_ms/rpc_p99_ms come from a
 * phase at the fixed reference rate (windowed, see stats.h); max_rate_rps is the highest rate
 * of an ascending ladder whose p99 meets kLatencyLimitMs without a
 * growing backlog.
 */
#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/sync.h"
#include "net/client.h"
#include "net/server.h"
#include "stats.h"
#include "trace.h"

namespace rfv::perfbench {
namespace {

constexpr u32 kLoadThreads = 4;
constexpr u32 kExecutors = 2;
constexpr u32 kSetupRepeats = 3;
constexpr u64 kGenPercent = 10;

/** The reference rate: about a quarter of capacity on a 4-core host. */
constexpr double kRefRate = 1000;
/** p99 latency limit a rate must meet to count as sustained. */
constexpr double kLatencyLimitMs = 25;
/**
 * The max_rate_rps search: offered rates double from kRefRate up to
 * kLadderMax, then kBisections halvings of the interval between the
 * last sustained rate and the first that was not.
 */
constexpr double kLadderMax = 32000;
constexpr u32 kBisections = 4;
constexpr double kLadderPhaseS = 2.0;
/** Lag growth (last vs first quarter) that marks a growing backlog. */
constexpr double kBacklogToleranceS = 0.002;
/** Requests a ladder phase needs for a reportable p99 (plus margin). */
constexpr double kMinPhaseRequests = 1200;

constexpr u64 kPhaseStride = 1u << 20; //!< trace job ids per phase

/** Misses: a small kernel, under a millisecond on one core. */
GenSpec
missShape()
{
    GenSpec shape;
    shape.depth = 1;
    shape.blocks = 4;
    return shape;
}

/** One planned request of a phase. */
struct Planned {
    ServiceRequest req;
    i32 table = -1; //!< index into defaultRequests(), -1 for gen:
    u64 gen = 0;    //!< index into the run's gen: list
};

struct Daemon {
    std::string dir;
    std::unique_ptr<SimdServer> server;

    ~Daemon()
    {
        if (server)
            server->stop();
        removeDir(dir);
    }
};

ClientOptions
clientFor(u16 port)
{
    ClientOptions c;
    c.port = port;
    c.responseTimeoutMs = 30000;
    return c;
}

/** Parse Hash128::hex() back into a key. */
bool
parseKey(const std::string &hex, Hash128 &key)
{
    if (hex.size() != 32)
        return false;
    try {
        key.hi = std::stoull(hex.substr(0, 16), nullptr, 16);
        key.lo = std::stoull(hex.substr(16), nullptr, 16);
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

class ServeMixed {
  public:
    ServeMixed(const Options &opts, RunReport &rep)
        : opts_(opts), rep_(rep), warm_(defaultRequests()),
          paper_(paperRequests()), rng_(opts.seed ^ 0x5e27e5)
    {
    }

    void run();

  private:
    std::unique_ptr<Daemon> startDaemon();
    std::vector<Planned> plan(double rate, double seconds);

    struct Phase {
        double rate = 0;
        std::vector<OpenLoopSample> samples;
        u64 failed = 0;
        double p50Ms = 0, p99Ms = 0;
        bool backlog = false;
        bool traced = false;
    };
    Phase runPhase(Daemon &d, double rate, double seconds, bool traced,
                   u64 phaseIndex);
    bool traceExtras(SimdServer &server, const Message &raw,
                     const SweepJobResult &res, const OpenLoopSample &s);
    void checkGenOutcomes();

    const Options &opts_;
    RunReport &rep_;
    const std::vector<ServiceRequest> warm_;
    const std::vector<ServiceRequest> paper_;
    std::vector<RunOutcome> reference_; //!< serial, paper_ order
    Rng rng_;
    std::vector<ServiceRequest> genReqs_;
    std::vector<RunOutcome> genOut_;
    std::vector<char> genOk_;
    Tracer tracer_;
    // Traced-phase samples.
    Mutex mu_;
    std::vector<double> hitUs_ RFV_GUARDED_BY(mu_);
    std::vector<double> overheadUs_ RFV_GUARDED_BY(mu_);
    std::vector<double> encodeUs_ RFV_GUARDED_BY(mu_);
    std::vector<double> decodeUs_ RFV_GUARDED_BY(mu_);
    std::vector<double> resultBytes_ RFV_GUARDED_BY(mu_);
    u64 tracedHits_ RFV_GUARDED_BY(mu_) = 0;
    u64 tracedRequests_ RFV_GUARDED_BY(mu_) = 0;
};

std::unique_ptr<Daemon>
ServeMixed::startDaemon()
{
    auto d = std::make_unique<Daemon>();
    d->dir = freshDir(opts_, "serve-cache");
    ServerOptions so;
    so.executors = kExecutors;
    so.sweep.cacheDir = d->dir;
    d->server = std::make_unique<SimdServer>(so);
    d->server->start();

    std::vector<SimdClient> clients;
    for (u32 t = 0; t < kLoadThreads; ++t)
        clients.emplace_back(clientFor(d->server->port()));
    const auto results = dispatchAll(
        warm_, kLoadThreads,
        [&](u32 t, const ServiceRequest &req, SweepJobResult &res,
            std::string &error) { return clients[t].run(req, res, error); });
    for (size_t i = 0; i < results.size(); ++i)
        if (!results[i].ok() || !(results[i].outcome == reference_[i]))
            throw std::runtime_error("warm-up job " + warm_[i].workload +
                                     " failed or mismatched");
    return d;
}

std::vector<Planned>
ServeMixed::plan(double rate, double seconds)
{
    const size_t n = static_cast<size_t>(rate * seconds);
    std::vector<Planned> out(n);
    for (Planned &p : out) {
        if (rng_.chance(kGenPercent, 100)) {
            p.gen = genReqs_.size();
            genReqs_.push_back(
                genRequest(missShape(), opts_.seed, p.gen));
            p.req = genReqs_.back();
        } else {
            p.table = static_cast<i32>(rng_.below(warm_.size()));
            p.req = warm_[static_cast<size_t>(p.table)];
        }
    }
    genOut_.resize(genReqs_.size());
    genOk_.resize(genReqs_.size(), 0);
    return out;
}

ServeMixed::Phase
ServeMixed::runPhase(Daemon &d, double rate, double seconds, bool traced,
                     u64 phaseIndex)
{
    const std::vector<Planned> planned = plan(rate, seconds);
    const size_t n = planned.size();
    Phase ph;
    ph.rate = rate;
    ph.traced = traced;
    ph.samples.assign(n, OpenLoopSample{});
    std::vector<char> ok(n, 0);
    SimdServer &server = *d.server;
    const u16 port = server.port();

    const double start = benchNow() + 0.02;
    runThreads(kLoadThreads, [&](u32 t) {
        SimdClient client(clientFor(port));
        std::string error;
        client.connect(error);
        for (size_t k = t; k < n; k += kLoadThreads) {
            const Planned &p = planned[k];
            OpenLoopSample &s = ph.samples[k];
            s.due = dueTime(start, rate, k);
            const double wait = s.due - benchNow();
            if (wait > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(wait));

            JobScope scope(traced ? &tracer_ : nullptr,
                           phaseIndex * kPhaseStride + k);
            SweepJobResult res;
            Message raw;
            ServiceStatus st;
            {
                ScopedSpan root("job", Layer::kJob, s.due);
                s.sent = benchNow();
                recordChildSpan("gen.wait", Layer::kGen, s.due, s.sent);
                ScopedSpan rpc("rpc.run", Layer::kRpc);
                st = client.run(p.req, res, error,
                                traced ? &raw : nullptr);
                const double now = benchNow();
                if (st == ServiceStatus::kOk)
                    recordChildSpan(res.fromCache ? "cache.hit_served"
                                                  : "engine.execute",
                                    res.fromCache ? Layer::kCache
                                                  : Layer::kSweep,
                                    now - res.seconds, now);
            }
            s.done = benchNow();

            bool good = st == ServiceStatus::kOk && res.ok();
            if (good && traced)
                good = traceExtras(server, raw, res, s);
            if (good && p.table >= 0) {
                good = res.fromCache &&
                       res.outcome ==
                           reference_[static_cast<size_t>(p.table)];
            } else if (good) {
                genOk_[p.gen] = 1;
                genOut_[p.gen] = std::move(res.outcome);
            }
            ok[k] = good;
        }
    });

    std::vector<double> lat;
    for (size_t k = 0; k < n; ++k) {
        rep_.count(ok[k]);
        if (!ok[k])
            ++ph.failed;
        lat.push_back(latencyFromDue(ph.samples[k]) * 1e3);
    }
    ph.p50Ms = percentile(lat, 0.50);
    ph.p99Ms = percentile(lat, 0.99);
    ph.backlog = backlogGrowing(ph.samples, kBacklogToleranceS);
    return ph;
}

bool
ServeMixed::traceExtras(SimdServer &server, const Message &raw,
                        const SweepJobResult &res, const OpenLoopSample &s)
{
    // Wire codec, timed on this request's own RESULT: frame payload
    // back to a result, and the result back to a frame payload.
    const std::string payload = raw.encode();
    std::string error;
    SweepJobResult decoded;
    const double d0 = benchNow();
    {
        ScopedSpan span("codec.decode", Layer::kCodec);
        Message m;
        if (!Message::decode(payload, m, error) ||
            decodeResult(m, decoded, error) != ServiceStatus::kOk)
            return false;
    }
    const double d1 = benchNow();
    std::string encoded;
    {
        ScopedSpan span("codec.encode", Layer::kCodec);
        encoded = encodeResult(decoded).encode();
    }
    const double d2 = benchNow();
    if (!(decoded.outcome == res.outcome))
        return false;

    // The hit path itself: ResultCache::lookup on the live cache, under
    // the same concurrent traffic, for a key this request just hit.
    double hitUs = -1;
    Hash128 key;
    if (res.fromCache && parseKey(res.key, key)) {
        const double h0 = benchNow();
        bool found = false;
        {
            ScopedSpan span("cache.lookup", Layer::kCache);
            found = server.engine().results().lookup(key).has_value();
        }
        if (!found)
            return false;
        hitUs = (benchNow() - h0) * 1e6;
    }

    MutexLock lk(mu_);
    decodeUs_.push_back((d1 - d0) * 1e6);
    encodeUs_.push_back((d2 - d1) * 1e6);
    resultBytes_.push_back(static_cast<double>(payload.size()));
    overheadUs_.push_back(((s.done - s.sent) - res.seconds) * 1e6);
    ++tracedRequests_;
    if (hitUs >= 0) {
        ++tracedHits_;
        hitUs_.push_back(hitUs);
    }
    return true;
}

void
ServeMixed::checkGenOutcomes()
{
    const std::vector<RunOutcome> ref = engineReference(genReqs_);
    for (size_t i = 0; i < ref.size(); ++i)
        if (genOk_[i] && !(genOut_[i] == ref[i])) {
            rep_.mismatch();
            rep_.note("MISMATCH vs local engine: " + genReqs_[i].workload);
        }
}

void
ServeMixed::run()
{
    reference_ = serialReference(paper_);

    std::vector<double> setupS;
    std::unique_ptr<Daemon> d;
    for (u32 r = 0; r < kSetupRepeats; ++r) {
        d.reset();
        const double t0 = benchNow();
        d = startDaemon();
        setupS.push_back(benchNow() - t0);
    }
    rep_.endToEnd["setup_s"] = median(setupS);

    const double secs = opts_.seconds;
    const auto phaseName = [](const Phase &ph) {
        return fmt(ph.rate) + " req/s: " +
               std::to_string(ph.samples.size()) + " requests, p50 " +
               fmt(ph.p50Ms) + " ms, p99 " + fmt(ph.p99Ms) + " ms" +
               (ph.backlog ? ", backlog growing" : "") +
               (ph.failed ? ", " + std::to_string(ph.failed) + " failed"
                          : "") +
               (ph.traced ? " (traced)" : "");
    };
    std::string offered;
    u64 phaseIndex = 0;
    std::vector<Phase> phases;
    if (!opts_.trace) {
        phases.push_back(runPhase(*d, kRefRate, 0.5 * secs, false,
                                  phaseIndex++));
        rep_.endToEnd["peak_rss_mb"] = peakRssMb();
        const Phase &ref = phases.back();
        std::vector<double> latMs;
        for (const OpenLoopSample &s : ref.samples)
            latMs.push_back(latencyFromDue(s) * 1e3);
        rep_.endToEnd["rpc_p50_ms"] = windowedPercentile(latMs, 0.50);
        rep_.endToEnd["rpc_p99_ms"] = windowedPercentile(latMs, 0.99);
        rep_.endToEnd["jobs_per_s"] =
            static_cast<double>(ref.samples.size() - ref.failed) /
            (ref.samples.back().done - ref.samples.front().due);
        rep_.record.push_back({"reference_rate_rps", fmt(kRefRate)});
        rep_.record.push_back(
            {"reference_samples", std::to_string(ref.samples.size())});
        rep_.record.push_back(
            {"reference_windows",
             std::to_string(latMs.size() / kLatencyWindow)});

        // The reference phase is the ladder's first rung; rates then
        // double to the first that misses the limit, and bisection
        // narrows the interval between the last rate that met it and
        // that one.
        const auto met = [](const Phase &ph) {
            return !ph.failed && !ph.backlog && ph.p99Ms <= kLatencyLimitMs;
        };
        const auto sustained = [&](double rate) {
            phases.push_back(runPhase(
                *d, rate, std::max(kLadderPhaseS, kMinPhaseRequests / rate),
                false, phaseIndex++));
            offered.append(",").append(fmt(rate));
            return met(phases.back());
        };
        offered = fmt(kRefRate);
        double pass = 0, fail = 0;
        if (met(ref))
            pass = kRefRate;
        else
            fail = kRefRate;
        for (double rate = 2 * kRefRate; fail == 0 && rate <= kLadderMax;
             rate *= 2) {
            if (!sustained(rate)) {
                fail = rate;
                break;
            }
            pass = rate;
        }
        for (u32 i = 0; fail > 0 && i < kBisections; ++i) {
            const double mid = 0.5 * (pass + fail);
            (sustained(mid) ? pass : fail) = mid;
        }
        if (fail == 0)
            rep_.note("max_rate_rps: every ladder rate was sustained; "
                      "the reported rate is the ladder's cap");
        rep_.endToEnd["max_rate_rps"] = pass;
        rep_.record.push_back({"ladder_rates_rps", offered});
        rep_.record.push_back(
            {"latency_limit_p99_ms", fmt(kLatencyLimitMs)});
    } else {
        // Alternate untraced and traced phases at the reference rate;
        // the p50 difference is the tracing overhead.
        std::vector<double> untracedP50, tracedP50;
        for (u32 i = 0; i < 4; ++i) {
            const bool traced = i % 2 == 1;
            phases.push_back(runPhase(*d, kRefRate, secs / 4, traced,
                                      phaseIndex++));
            (traced ? tracedP50 : untracedP50)
                .push_back(phases.back().p50Ms);
        }
        auto &pl = rep_.perLayer;
        pl["trace.overhead_frac"] =
            median(tracedP50) / median(untracedP50) - 1.0;
        std::vector<double> lagMs;
        for (const Phase &ph : phases)
            if (ph.traced)
                for (const OpenLoopSample &s : ph.samples)
                    lagMs.push_back(sendLag(s) * 1e3);
        pl["gen.lag_ms_p99"] = reportedPercentile(lagMs, 0.99);
        MutexLock lk(mu_);
        pl["cache.hit_us_p50"] = percentile(hitUs_, 0.50);
        pl["cache.hit_us_p99"] = reportedPercentile(hitUs_, 0.99);
        pl["cache.hit_frac"] = tracedRequests_
                                   ? static_cast<double>(tracedHits_) /
                                         static_cast<double>(tracedRequests_)
                                   : 0;
        pl["codec.encode_us"] = median(encodeUs_);
        pl["codec.decode_us"] = median(decodeUs_);
        pl["codec.result_bytes"] = median(resultBytes_);
        pl["rpc.overhead_us_p50"] = percentile(overheadUs_, 0.50);
        pl["rpc.overhead_us_p99"] = reportedPercentile(overheadUs_, 0.99);
        pl["ledger.other_frac"] = tracer_.otherFrac();
        noteSelfTimes(tracer_, rep_);
        rep_.record.push_back({"traced_samples",
                               std::to_string(overheadUs_.size())});
        rep_.record.push_back(
            {"cache_hit_samples", std::to_string(hitUs_.size())});
        rep_.record.push_back({"reference_rate_rps", fmt(kRefRate)});
        const std::string path = opts_.outDir +
                                 "/trace-serve_mixed-seed" +
                                 std::to_string(opts_.seed) + ".json";
        // The first 2000 requests of the first traced phase.
        if (!tracer_.writeChromeTrace(path, kPhaseStride + 2000))
            throw std::runtime_error("cannot write " + path);
        rep_.note("trace: " + path);
    }
    for (const Phase &ph : phases)
        rep_.note("phase " + phaseName(ph));

    // Daemon-side counters.
    SimdClient statsClient(clientFor(d->server->port()));
    Message stats;
    std::string error;
    if (statsClient.stats(stats, error) != ServiceStatus::kOk)
        throw std::runtime_error("STATS failed: " + error);
    u64 shed = 0, highWater = 0, evictions = 0, drops = 0;
    stats.getU64("requests_shed", shed);
    stats.getU64("queue_high_water", highWater);
    stats.getU64("cache_evictions", evictions);
    stats.getU64("cache_write_behind_drops", drops);
    if (opts_.trace) {
        auto &pl = rep_.perLayer;
        pl["rpc.shed"] = static_cast<double>(shed);
        pl["rpc.queue_high_water"] = static_cast<double>(highWater);
        pl["cache.evictions"] = static_cast<double>(evictions);
        pl["cache.write_behind_drops"] = static_cast<double>(drops);
    }

    // The paper's 80 jobs through the daemon: served outcomes equal the
    // serial reference, and give this workload's fidelity metrics.
    std::vector<SimdClient> clients;
    for (u32 t = 0; t < kLoadThreads; ++t)
        clients.emplace_back(clientFor(d->server->port()));
    checkPaperResults(
        dispatchAll(paper_, kLoadThreads,
                    [&](u32 t, const ServiceRequest &req,
                        SweepJobResult &res, std::string &err) {
                        return clients[t].run(req, res, err);
                    }),
        reference_, rep_);
    clients.clear();
    d.reset();
    checkGenOutcomes();
    rep_.record.push_back({"gen_requests", std::to_string(genReqs_.size())});
}

} // namespace

RunReport
runServeMixed(const Options &opts)
{
    RunReport rep;
    ServeMixed(opts, rep).run();
    return rep;
}

} // namespace rfv::perfbench
