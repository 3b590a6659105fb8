/**
 * @file
 * End-to-end cluster tests over real loopback sockets: three
 * in-process SimdServers joined into one consistent-hash ring, a
 * ClusterCoordinator routing jobs to their owners.  Covers routed
 * bit-identity against a local Simulator run, NOT_OWNER refusal with
 * the owner list attached, failover to a replica when a node dies,
 * ring-epoch negotiation (a stale bootstrap ring converges through
 * NOT_OWNER + CLUSTER refresh), best-effort replication warming the
 * peer's cache, PING health probes, REDIRECT during drain, and
 * cluster-wide deadline exhaustion when every node is dark.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include <unistd.h>

#include "core/simulator.h"
#include "net/client.h"
#include "net/cluster_coordinator.h"
#include "net/server.h"
#include "service/hash.h"
#include "workloads/workload.h"

namespace rfv {
namespace {

class TempCacheDir {
  public:
    explicit TempCacheDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("rfv-test-cluster-" + std::to_string(::getpid()) +
                  "-" + tag))
                    .string())
    {
        std::filesystem::remove_all(path_);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A small request every test can afford to simulate. */
ServiceRequest
smallRequest(const std::string &workload = "MatrixMul")
{
    ServiceRequest req;
    req.workload = workload;
    req.configName = "shrink50";
    req.overrides = {{"numSms", "1"}, {"roundsPerSm", "1"}};
    return req;
}

RunOutcome
localRun(const ServiceRequest &req)
{
    SweepJob job;
    std::string error;
    EXPECT_EQ(buildJob(req, job, error), ServiceStatus::kOk) << error;
    return Simulator(job.config).runWorkload(*findWorkload(job.workload));
}

Hash128
keyOf(const ServiceRequest &req)
{
    SweepJob job;
    std::string error;
    EXPECT_EQ(buildJob(req, job, error), ServiceStatus::kOk) << error;
    return routingKey(job.workload, job.config);
}

/**
 * Three servers on ephemeral loopback ports joined into one ring.
 * configureCluster runs after start() because the endpoints are only
 * known once every node has bound its port.
 */
class Cluster3 {
  public:
    explicit Cluster3(u32 replication = 2, u64 epoch = 1)
    {
        for (int i = 0; i < 3; ++i) {
            dirs_.push_back(std::make_unique<TempCacheDir>(
                "n" + std::to_string(i)));
            ServerOptions sopts;
            sopts.sweep.cacheDir = dirs_.back()->path();
            servers.push_back(std::make_unique<SimdServer>(sopts));
            servers.back()->start();
            endpoints.push_back(
                "127.0.0.1:" +
                std::to_string(servers.back()->port()));
        }
        ClusterConfig cfg;
        cfg.nodes = endpoints;
        cfg.replication = replication;
        cfg.epoch = epoch;
        for (int i = 0; i < 3; ++i) {
            cfg.self = endpoints[i];
            servers[i]->configureCluster(cfg);
        }
    }

    ~Cluster3()
    {
        for (auto &s : servers)
            s->stop();
    }

    HashRing ring() const { return servers[0]->ringSnapshot(); }

    /** Node indices owning @p req's key, primary first. */
    std::vector<u32>
    ownersOf(const ServiceRequest &req) const
    {
        return ring().ownersFor(keyOf(req));
    }

    CoordinatorOptions
    coordinatorOptions() const
    {
        CoordinatorOptions co;
        co.nodes = endpoints;
        co.client.connectTimeoutMs = 2000;
        return co;
    }

    std::vector<std::unique_ptr<SimdServer>> servers;
    std::vector<std::string> endpoints;

  private:
    std::vector<std::unique_ptr<TempCacheDir>> dirs_;
};

u64
counter(SimdServer &server, const std::string &key)
{
    u64 v = 0;
    EXPECT_TRUE(server.statsMessage().getU64(key, v)) << key;
    return v;
}

TEST(Cluster, RoutedRunsAreBitIdenticalToLocalRuns)
{
    Cluster3 cluster;
    ClusterCoordinator coordinator(cluster.coordinatorOptions());

    for (const char *workload : {"MatrixMul", "BFS", "VectorAdd"}) {
        const ServiceRequest req = smallRequest(workload);
        SweepJobResult served;
        std::string error;
        ASSERT_EQ(coordinator.run(req, served, error),
                  ServiceStatus::kOk)
            << workload << ": " << error;
        EXPECT_TRUE(served.outcome == localRun(req))
            << workload << " diverged from a local Simulator run";

        // The job must have landed on an owner: no server counted a
        // misroute, and the owner's ok-counter moved.
        const std::vector<u32> owners = cluster.ownersOf(req);
        u64 okOnOwners = 0;
        for (u32 n : owners)
            okOnOwners += counter(*cluster.servers[n], "requests_ok");
        EXPECT_GT(okOnOwners, 0u) << workload;
    }
    for (auto &server : cluster.servers)
        EXPECT_EQ(counter(*server, "requests_not_owner"), 0u);

    const ClusterCoordinator::Stats cs = coordinator.statsSnapshot();
    EXPECT_EQ(cs.reroutes, 0u);
    EXPECT_EQ(cs.failovers, 0u);
    EXPECT_EQ(cs.dispatches, 3u);
}

TEST(Cluster, MisroutedRunAnswersNotOwnerWithTheOwnerList)
{
    Cluster3 cluster;
    const ServiceRequest req = smallRequest();
    const std::vector<u32> owners = cluster.ownersOf(req);
    ASSERT_EQ(owners.size(), 2u);

    // The one node that does NOT own this key.
    u32 outsider = 3;
    for (u32 n = 0; n < 3; ++n)
        if (n != owners[0] && n != owners[1])
            outsider = n;
    ASSERT_LT(outsider, 3u);

    ClientOptions copts;
    copts.port = cluster.servers[outsider]->port();
    SimdClient direct(copts);
    SweepJobResult res;
    std::string error;
    Message raw;
    EXPECT_EQ(direct.run(req, res, error, &raw),
              ServiceStatus::kNotOwner);

    RedirectInfo info;
    ASSERT_TRUE(decodeRedirect(raw, info));
    EXPECT_EQ(info.ringEpoch, cluster.ring().epoch());
    ASSERT_EQ(info.owners.size(), 2u);
    EXPECT_EQ(info.owners[0], cluster.endpoints[owners[0]]);
    EXPECT_EQ(info.owners[1], cluster.endpoints[owners[1]]);
    EXPECT_EQ(counter(*cluster.servers[outsider], "requests_not_owner"),
              1u);
}

TEST(Cluster, CoordinatorFailsOverToAReplicaWhenTheOwnerDies)
{
    Cluster3 cluster;
    const ServiceRequest req = smallRequest();
    const std::vector<u32> owners = cluster.ownersOf(req);
    ASSERT_EQ(owners.size(), 2u);

    // Kill the primary owner before the first dispatch.
    cluster.servers[owners[0]]->stop();

    ClusterCoordinator coordinator(cluster.coordinatorOptions());
    SweepJobResult served;
    std::string error;
    ASSERT_EQ(coordinator.run(req, served, error), ServiceStatus::kOk)
        << error;
    EXPECT_TRUE(served.outcome == localRun(req))
        << "failover result diverged from a local Simulator run";

    const ClusterCoordinator::Stats cs = coordinator.statsSnapshot();
    EXPECT_GE(cs.failovers, 1u);
    EXPECT_GE(cs.nodesMarkedDown, 1u);
    EXPECT_GT(counter(*cluster.servers[owners[1]], "requests_ok"), 0u);
}

TEST(Cluster, StaleBootstrapRingConvergesThroughNotOwner)
{
    // Servers run epoch 5 with the standard geometry; the coordinator
    // bootstraps a deliberately different ring (epoch 1, one vnode per
    // member), so some key's bootstrap owner disagrees with the
    // cluster.  The first misrouted dispatch answers NOT_OWNER with
    // epoch 5 attached; the coordinator refreshes through CLUSTER and
    // finishes on the real owner.
    Cluster3 cluster(/*replication=*/1, /*epoch=*/5);

    CoordinatorOptions co = cluster.coordinatorOptions();
    co.epoch = 1;
    co.vnodes = 1;
    co.replication = 1;
    ClusterCoordinator coordinator(co);

    // Find a request the two rings route differently (deterministic:
    // both rings are pure functions of fixed inputs).
    const HashRing serverRing = cluster.ring();
    const HashRing bootstrapRing = coordinator.ringSnapshot();
    ServiceRequest divergent;
    bool found = false;
    for (const char *workload :
         {"MatrixMul", "BFS", "VectorAdd", "LUD", "NN", "Gaussian",
          "HotSpot", "BackProp"}) {
        const ServiceRequest req = smallRequest(workload);
        if (bootstrapRing.primaryFor(keyOf(req)) !=
            serverRing.primaryFor(keyOf(req))) {
            divergent = req;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "every candidate routed identically";

    SweepJobResult served;
    std::string error;
    ASSERT_EQ(coordinator.run(divergent, served, error),
              ServiceStatus::kOk)
        << error;
    EXPECT_TRUE(served.outcome == localRun(divergent));
    EXPECT_EQ(coordinator.ringEpoch(), 5u);

    const ClusterCoordinator::Stats cs = coordinator.statsSnapshot();
    EXPECT_GE(cs.reroutes, 1u);
    EXPECT_GE(cs.ringRefreshes, 1u);
}

TEST(Cluster, ReplicationWarmsTheReplicaCache)
{
    Cluster3 cluster;
    const ServiceRequest req = smallRequest();
    const std::vector<u32> owners = cluster.ownersOf(req);
    ASSERT_EQ(owners.size(), 2u);

    // Compute live on the primary; its replicator pushes the outcome
    // to the other owner.
    ClientOptions copts;
    copts.port = cluster.servers[owners[0]]->port();
    SimdClient primary(copts);
    SweepJobResult first;
    std::string error;
    ASSERT_EQ(primary.run(req, first, error), ServiceStatus::kOk)
        << error;
    EXPECT_FALSE(first.fromCache);
    cluster.servers[owners[0]]->drainReplication();

    EXPECT_EQ(counter(*cluster.servers[owners[0]], "replication_sent"),
              1u);
    EXPECT_EQ(
        counter(*cluster.servers[owners[1]], "replication_stored"), 1u);

    // The replica now answers the same job from its warmed cache,
    // bit-identically — this is what makes failover seamless.
    ClientOptions ropts;
    ropts.port = cluster.servers[owners[1]]->port();
    SimdClient replica(ropts);
    SweepJobResult second;
    ASSERT_EQ(replica.run(req, second, error), ServiceStatus::kOk)
        << error;
    EXPECT_TRUE(second.fromCache);
    EXPECT_TRUE(second.outcome == first.outcome);
    EXPECT_EQ(second.key, first.key);
}

TEST(Cluster, ReplicaStoreCompilesNothingAndRejectsAMislabeledKey)
{
    Cluster3 cluster;
    const ServiceRequest req = smallRequest();
    const std::vector<u32> owners = cluster.ownersOf(req);
    ASSERT_EQ(owners.size(), 2u);
    SimdServer &replicaServer = *cluster.servers[owners[1]];
    const u64 compilesBefore =
        replicaServer.engine().artifacts().stats().compilesBuilt;

    ClientOptions copts;
    copts.port = cluster.servers[owners[0]]->port();
    SimdClient primary(copts);
    SweepJobResult first;
    std::string error;
    ASSERT_EQ(primary.run(req, first, error), ServiceStatus::kOk)
        << error;
    cluster.servers[owners[0]]->drainReplication();
    ASSERT_EQ(counter(replicaServer, "replication_stored"), 1u);
    // Checking the sender's key needs only the assembled program.
    EXPECT_EQ(replicaServer.engine().artifacts().stats().compilesBuilt,
              compilesBefore);

    // A STORE whose key does not match its naming is refused.
    std::ostringstream os;
    ResultCache::serialize(os, first.outcome);
    std::string badKey = first.key;
    badKey[0] = badKey[0] == '0' ? '1' : '0';
    ClientOptions ropts;
    ropts.port = replicaServer.port();
    SimdClient replica(ropts);
    Message ack;
    ASSERT_EQ(replica.request(encodeStoreRequest(req, badKey, os.str()),
                              ack, error),
              ServiceStatus::kOk)
        << error;
    EXPECT_EQ(ack.verb, kVerbStored);
    EXPECT_EQ(ack.get("stored"), "0");
    EXPECT_NE(ack.get("error").find("key mismatch"), std::string::npos)
        << ack.get("error");
    EXPECT_EQ(counter(replicaServer, "replication_rejected"), 1u);
    EXPECT_EQ(counter(replicaServer, "replication_stored"), 1u);

    // A correctly keyed STORE whose outcome does not parse strictly
    // (a negative counter) is refused too, not stored as a cache hit.
    std::string tampered = os.str();
    const std::size_t at = tampered.find("\nu cycles ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t eol = tampered.find('\n', at + 1);
    tampered.replace(at, eol - at, "\nu cycles -5");
    ASSERT_EQ(replica.request(encodeStoreRequest(req, first.key, tampered),
                              ack, error),
              ServiceStatus::kOk)
        << error;
    EXPECT_EQ(ack.verb, kVerbStored);
    EXPECT_EQ(ack.get("stored"), "0");
    EXPECT_NE(ack.get("error").find("malformed"), std::string::npos)
        << ack.get("error");
    EXPECT_EQ(counter(replicaServer, "replication_rejected"), 2u);
    EXPECT_EQ(counter(replicaServer, "replication_stored"), 1u);
}

TEST(Cluster, ProbeReportsNodeHealth)
{
    Cluster3 cluster;
    ClusterCoordinator coordinator(cluster.coordinatorOptions());

    EXPECT_TRUE(coordinator.probe(cluster.endpoints[0]));
    EXPECT_TRUE(coordinator.probe(cluster.endpoints[1]));

    cluster.servers[2]->stop();
    EXPECT_FALSE(coordinator.probe(cluster.endpoints[2]));

    const ClusterCoordinator::Stats cs = coordinator.statsSnapshot();
    EXPECT_EQ(cs.probes, 3u);
    EXPECT_EQ(cs.probeFailures, 1u);
}

TEST(Cluster, DarkClusterExhaustsTheDeadlineNotTheStack)
{
    Cluster3 cluster;
    for (auto &server : cluster.servers)
        server->stop();

    CoordinatorOptions co = cluster.coordinatorOptions();
    co.client.connectTimeoutMs = 50;
    // The deadline must stop the dispatch loop, not this: a refused
    // loopback connect costs tens of microseconds, so leave enough
    // attempts that 50 ms of budget always runs out first.
    co.maxDispatches = 10'000'000;
    co.downHoldoffMs = 0;
    ClusterCoordinator coordinator(co);

    ServiceRequest req = smallRequest();
    req.deadlineMs = 50;
    SweepJobResult res;
    std::string error;
    EXPECT_EQ(coordinator.run(req, res, error),
              ServiceStatus::kDeadlineExceeded)
        << error;
    EXPECT_GE(coordinator.statsSnapshot().deadlineExhausted, 1u);
}

TEST(Cluster, StatsKeysAreAWireContract)
{
    // A clustered node lists the standalone keys plus the ring and the
    // cluster traffic, right after served_from_cache.
    Cluster3 cluster;
    std::vector<std::string> keys;
    for (const auto &[key, value] :
         cluster.servers[0]->statsMessage().fields)
        keys.push_back(key);
    const std::vector<std::string> expected{
        "sim_version",          "proto_version",
        "uptime_seconds",       "connections_accepted",
        "connections_rejected", "connections_reaped",
        "bad_frames",           "requests_accepted",
        "requests_shed",        "requests_shutdown",
        "requests_ok",          "requests_failed",
        "requests_timed_out",   "stats_requests",
        "served_from_cache",    "ring_epoch",
        "ring_nodes",           "ring_replication",
        "requests_not_owner",   "requests_redirected",
        "cluster_requests",     "ping_requests",
        "replication_sent",     "replication_failed",
        "replication_dropped",  "replication_stored",
        "replication_rejected", "queue_depth",
        "queue_high_water",     "cache_memory_hits",
        "cache_disk_hits",      "cache_misses",
        "cache_stores",         "cache_bad_entries",
        "cache_evictions",      "cache_memory_bytes",
        "cache_write_behind_depth", "cache_write_behind_drops",
        "aggregate_cycles",     "aggregate_instrs",
        "cycles_per_sec"};
    EXPECT_EQ(keys, expected);
}

TEST(Cluster, StatsAllSkipsDeadNodes)
{
    Cluster3 cluster;
    cluster.servers[1]->stop();

    ClusterCoordinator coordinator(cluster.coordinatorOptions());
    const auto all = coordinator.statsAll();
    ASSERT_EQ(all.size(), 2u);
    for (const auto &[endpoint, stats] : all) {
        EXPECT_NE(endpoint, cluster.endpoints[1]);
        u64 epoch = 0;
        EXPECT_TRUE(stats.getU64("ring_epoch", epoch)) << endpoint;
        EXPECT_EQ(epoch, 1u);
    }
}

} // namespace
} // namespace rfv
