/**
 * @file
 * cluster_gen: 3 in-process loopback nodes (1 executor each,
 * replication 2) behind a ClusterCoordinator, driven in a closed loop
 * by 4 dispatch threads.  Every job is a fresh seed-derived `gen:`
 * kernel of one fixed shape (jobShape), so every job is a miss with
 * its own compile, and per-request cost — routing, RPC, replication
 * STORE — is a large share of each job.
 *
 * The run dispatches a fixed number of jobs sized from --seconds
 * (kJobsPerSecond per second), so the nodes' caches, and with them
 * peak memory, hold the same number of results on every run.
 */
#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "common/sync.h"
#include "net/cluster_coordinator.h"
#include "net/protocol.h"
#include "net/server.h"
#include "stats.h"
#include "trace.h"

namespace rfv::perfbench {
namespace {

constexpr u32 kNodes = 3;
constexpr u32 kReplication = 2;
constexpr u32 kDispatchThreads = 4;
constexpr u32 kSetupRepeats = 9;
/** Jobs per second of --seconds: about the closed loop's rate here. */
constexpr double kJobsPerSecond = 350;
/**
 * The closed loop runs in this many blocks; jobs_per_s is the median
 * block rate, so a host stall moves one block rather than the run.
 */
constexpr u32 kBlocks = 8;

/**
 * Every job: the generator's default kernel over 32 CTAs, about 5 ms
 * of compile and simulation on one core — heavy enough that host
 * wake-up jitter does not swamp the run, light enough that routing,
 * RPC and the replica's STORE remain a large share of each job.
 */
GenSpec
jobShape()
{
    GenSpec shape;
    shape.ctas = 32;
    return shape;
}

struct Cluster {
    std::vector<std::string> dirs;
    std::vector<std::unique_ptr<SimdServer>> servers;
    std::vector<std::string> endpoints;
    std::unique_ptr<ClusterCoordinator> coordinator;

    ~Cluster()
    {
        coordinator.reset();
        for (auto &s : servers)
            s->stop();
        for (const std::string &d : dirs)
            removeDir(d);
    }
};

/** Node start, ring configuration and coordinator bootstrap. */
std::unique_ptr<Cluster>
startCluster(const Options &opts)
{
    auto c = std::make_unique<Cluster>();
    for (u32 i = 0; i < kNodes; ++i) {
        c->dirs.push_back(freshDir(opts, "cluster-cache"));
        ServerOptions so;
        so.executors = 1;
        so.sweep.cacheDir = c->dirs.back();
        c->servers.push_back(std::make_unique<SimdServer>(so));
        c->servers.back()->start();
        c->endpoints.push_back("127.0.0.1:" +
                               std::to_string(c->servers.back()->port()));
    }
    ClusterConfig cfg;
    cfg.nodes = c->endpoints;
    cfg.replication = kReplication;
    for (u32 i = 0; i < kNodes; ++i) {
        cfg.self = c->endpoints[i];
        c->servers[i]->configureCluster(cfg);
    }
    CoordinatorOptions co;
    co.nodes = c->endpoints;
    co.replication = kReplication;
    co.client.responseTimeoutMs = 30000;
    c->coordinator = std::make_unique<ClusterCoordinator>(co);
    std::string error;
    if (c->coordinator->refreshRing(error) != ServiceStatus::kOk)
        throw std::runtime_error("coordinator bootstrap failed: " + error);
    return c;
}

/** Per-node STATS counters that the run reports as deltas. */
struct NodeCounters {
    std::vector<u64> requestsOk;
    u64 replicationSent = 0;
    u64 replicationDropped = 0;
    u64 shed = 0;
    u64 queueHighWater = 0; //!< the highest node's
};

NodeCounters
nodeCounters(Cluster &c)
{
    NodeCounters n;
    n.requestsOk.assign(kNodes, 0);
    for (const auto &[endpoint, msg] : c.coordinator->statsAll()) {
        for (u32 i = 0; i < kNodes; ++i)
            if (c.endpoints[i] == endpoint)
                msg.getU64("requests_ok", n.requestsOk[i]);
        u64 sent = 0, dropped = 0, shed = 0, highWater = 0;
        msg.getU64("replication_sent", sent);
        msg.getU64("replication_dropped", dropped);
        msg.getU64("requests_shed", shed);
        msg.getU64("queue_high_water", highWater);
        n.replicationSent += sent;
        n.replicationDropped += dropped;
        n.shed += shed;
        n.queueHighWater = std::max(n.queueHighWater, highWater);
    }
    return n;
}

/**
 * Time the wire codec on one routed RESULT: encodeResult plus frame
 * encoding, then frame decoding plus decodeResult.  False when the
 * round trip does not reproduce the outcome.
 */
bool
timeCodec(const SweepJobResult &res, double &encodeUs, double &decodeUs,
          double &bytes)
{
    const double e0 = benchNow();
    std::string payload;
    {
        ScopedSpan s("codec.encode", Layer::kCodec);
        payload = encodeResult(res).encode();
    }
    const double e1 = benchNow();
    std::string error;
    SweepJobResult decoded;
    bool ok = false;
    {
        ScopedSpan s("codec.decode", Layer::kCodec);
        Message m;
        ok = Message::decode(payload, m, error) &&
             decodeResult(m, decoded, error) == ServiceStatus::kOk;
    }
    const double e2 = benchNow();
    encodeUs = (e1 - e0) * 1e6;
    decodeUs = (e2 - e1) * 1e6;
    bytes = static_cast<double>(payload.size());
    return ok && decoded.outcome == res.outcome;
}

} // namespace

RunReport
runClusterGen(const Options &opts)
{
    RunReport rep;
    const std::vector<ServiceRequest> paper = paperRequests();
    const std::vector<RunOutcome> paperRef = serialReference(paper);

    const size_t n = static_cast<size_t>(kJobsPerSecond * opts.seconds);
    std::vector<ServiceRequest> reqs;
    for (size_t i = 0; i < n; ++i)
        reqs.push_back(genRequest(jobShape(), opts.seed, i));

    std::vector<double> setupS;
    std::unique_ptr<Cluster> cluster;
    for (u32 r = 0; r < kSetupRepeats; ++r) {
        cluster.reset();
        const double t0 = benchNow();
        cluster = startCluster(opts);
        setupS.push_back(benchNow() - t0);
    }
    ClusterCoordinator &coord = *cluster->coordinator;

    Tracer tracer;
    std::vector<RunOutcome> outcomes(n);
    std::vector<char> ok(n, 0);
    std::vector<double> latMs(n, 0), overheadUs(n, 0);
    std::vector<double> encodeUs(n, -1), decodeUs(n, -1), resultBytes(n, 0);

    // Closed loop over jobs [first, last): each dispatch thread sends
    // its next job as soon as its previous one is answered.
    const auto runBlock = [&](size_t first, size_t last, bool traced) {
        std::atomic<size_t> next{first};
        const double t0 = benchNow();
        runThreads(kDispatchThreads, [&](u32) {
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= last)
                    return;
                JobScope scope(traced ? &tracer : nullptr, i);
                SweepJobResult res;
                std::string error;
                ServiceStatus st;
                const double j0 = benchNow();
                {
                    ScopedSpan root("job", Layer::kJob);
                    ScopedSpan run("cluster.run", Layer::kCluster);
                    st = coord.run(reqs[i], res, error);
                    const double now = benchNow();
                    if (st == ServiceStatus::kOk)
                        recordChildSpan(res.fromCache ? "cache.hit_served"
                                                      : "engine.execute",
                                        res.fromCache ? Layer::kCache
                                                      : Layer::kSweep,
                                        now - res.seconds, now);
                }
                const double j1 = benchNow();
                latMs[i] = (j1 - j0) * 1e3;
                overheadUs[i] = ((j1 - j0) - res.seconds) * 1e6;
                ok[i] = st == ServiceStatus::kOk && res.ok() &&
                        !res.fromCache;
                if (traced && ok[i])
                    ok[i] = timeCodec(res, encodeUs[i], decodeUs[i],
                                      resultBytes[i]);
                outcomes[i] = std::move(res.outcome);
            }
        });
        return benchNow() - t0;
    };

    const ClusterCoordinator::Stats before = coord.statsSnapshot();
    const NodeCounters nodesBefore = nodeCounters(*cluster);
    // A traced run traces every other block.
    std::vector<double> untracedRate, tracedRate;
    const size_t block = n / kBlocks;
    for (u32 b = 0; b < kBlocks; ++b) {
        const size_t last = b + 1 == kBlocks ? n : (b + 1) * block;
        const bool traced = opts.trace && b % 2 == 1;
        const double w = runBlock(b * block, last, traced);
        (traced ? tracedRate : untracedRate)
            .push_back(static_cast<double>(last - b * block) / w);
    }
    const double rss = peakRssMb();
    ArtifactStore::Stats artifacts;
    for (const auto &server : cluster->servers) {
        const ArtifactStore::Stats a = server->engine().artifacts().stats();
        artifacts.compilesBuilt += a.compilesBuilt;
        artifacts.compilesReused += a.compilesReused;
    }
    const ClusterCoordinator::Stats after = coord.statsSnapshot();
    const NodeCounters nodesAfter = nodeCounters(*cluster);

    // The paper's 80 jobs through the cluster (correctness + fidelity).
    checkPaperResults(
        dispatchAll(paper, kDispatchThreads,
                    [&](u32, const ServiceRequest &req, SweepJobResult &res,
                        std::string &error) {
                        return coord.run(req, res, error);
                    }),
        paperRef, rep);
    cluster.reset();

    // Every routed outcome must equal a local engine's.
    const std::vector<RunOutcome> reference = engineReference(reqs);
    for (size_t i = 0; i < n; ++i) {
        const bool good = ok[i] && outcomes[i] == reference[i];
        rep.count(good);
        if (ok[i] && !good)
            rep.note("MISMATCH vs local engine: " + reqs[i].workload);
    }

    const double jobsPerS = median(untracedRate);
    rep.endToEnd["jobs_per_s"] = jobsPerS;
    rep.endToEnd["max_rate_rps"] = jobsPerS;
    rep.endToEnd["rpc_p50_ms"] = windowedPercentile(latMs, 0.50);
    rep.endToEnd["rpc_p99_ms"] = windowedPercentile(latMs, 0.99);
    rep.endToEnd["setup_s"] = median(setupS);
    rep.endToEnd["peak_rss_mb"] = rss;
    rep.record.push_back({"jobs", std::to_string(n)});
    rep.record.push_back({"nodes", std::to_string(kNodes)});
    rep.record.push_back(
        {"dispatch_threads", std::to_string(kDispatchThreads)});
    rep.record.push_back({"latency_samples", std::to_string(n)});
    rep.record.push_back({"blocks", std::to_string(kBlocks)});

    if (!opts.trace)
        return rep;

    auto &pl = rep.perLayer;
    const double jobs = static_cast<double>(n);
    pl["cluster.dispatches_per_job"] =
        static_cast<double>(after.dispatches - before.dispatches) / jobs;
    pl["cluster.reroutes"] =
        static_cast<double>(after.reroutes - before.reroutes);
    pl["cluster.failovers"] =
        static_cast<double>(after.failovers - before.failovers);
    pl["cluster.replication_sent"] = static_cast<double>(
        nodesAfter.replicationSent - nodesBefore.replicationSent);
    pl["cluster.replication_dropped"] = static_cast<double>(
        nodesAfter.replicationDropped - nodesBefore.replicationDropped);
    pl["artifacts.compiles_built"] =
        static_cast<double>(artifacts.compilesBuilt);
    pl["artifacts.reuse_frac"] =
        static_cast<double>(artifacts.compilesReused) /
        static_cast<double>(
            std::max<u64>(1, artifacts.compilesBuilt + artifacts.compilesReused));
    u64 stepped = 0, skipped = 0;
    for (size_t i = 0; i < n; ++i) {
        stepped += outcomes[i].loop.steppedCycles;
        skipped += outcomes[i].loop.skippedCycles;
    }
    pl["sim.skipped_cycle_frac"] =
        static_cast<double>(skipped) /
        static_cast<double>(std::max<u64>(1, stepped + skipped));
    pl["rpc.shed"] = static_cast<double>(nodesAfter.shed - nodesBefore.shed);
    pl["rpc.queue_high_water"] =
        static_cast<double>(nodesAfter.queueHighWater);
    std::vector<double> enc, dec, bytes;
    for (size_t i = 0; i < n; ++i) {
        if (encodeUs[i] < 0)
            continue;
        enc.push_back(encodeUs[i]);
        dec.push_back(decodeUs[i]);
        bytes.push_back(resultBytes[i]);
    }
    pl["codec.encode_us"] = median(enc);
    pl["codec.decode_us"] = median(dec);
    pl["codec.result_bytes"] = median(bytes);
    u64 busiest = 0, executed = 0;
    for (u32 i = 0; i < kNodes; ++i) {
        const u64 d = nodesAfter.requestsOk[i] - nodesBefore.requestsOk[i];
        busiest = std::max(busiest, d);
        executed += d;
    }
    pl["cluster.node_share_max"] =
        executed ? static_cast<double>(busiest) * kNodes /
                       static_cast<double>(executed)
                 : 0;

    std::vector<double> tracedOverhead;
    for (const Span &s : tracer.spans())
        if (s.layer == Layer::kJob)
            tracedOverhead.push_back(overheadUs[s.job]);
    pl["rpc.overhead_us_p50"] = percentile(tracedOverhead, 0.50);
    pl["rpc.overhead_us_p99"] = reportedPercentile(tracedOverhead, 0.99);
    pl["ledger.other_frac"] = tracer.otherFrac();
    noteSelfTimes(tracer, rep);
    pl["trace.overhead_frac"] =
        median(untracedRate) / median(tracedRate) - 1.0;
    rep.record.push_back(
        {"traced_jobs", std::to_string(tracedOverhead.size())});

    const std::string path = opts.outDir + "/trace-cluster_gen-seed" +
                             std::to_string(opts.seed) + ".json";
    // Jobs of the first traced block, in job order.
    if (!tracer.writeChromeTrace(path, block + std::min<size_t>(block, 500)))
        throw std::runtime_error("cannot write " + path);
    rep.note("trace: " + path);
    return rep;
}

} // namespace rfv::perfbench
