/**
 * @file
 * `simd` — the simulation daemon: a TCP front-end over SweepEngine.
 *
 * Threading model:
 *
 *   accept thread ──> connection threads (one per client, capped)
 *                         │  parse frame -> RUN/STATS
 *                         ▼
 *                bounded admission queue  ── full? ──> RETRY_LATER
 *                         │
 *                executor threads ──> SweepEngine::execute()
 *                         │               (ArtifactStore + ResultCache)
 *                         ▼
 *                per-request promise ──> connection thread replies
 *
 * Backpressure is explicit: the admission queue has a fixed capacity
 * and a full queue sheds load with RETRY_LATER instead of queueing
 * unboundedly or blocking the connection.  Deadlines are enforced at
 * two points — a request whose deadline expires while queued is
 * failed without simulating, and a connection whose client deadline
 * passes while the job is in flight answers DEADLINE_EXCEEDED (the
 * job still completes and warms the result cache; simulations are
 * never preempted mid-run).  Idle connections are reaped after
 * idleTimeoutMs.  stop() drains gracefully: the listener closes, new
 * RUNs get SHUTTING_DOWN, admitted jobs finish and answer, then all
 * threads join.
 */
#ifndef RFV_NET_SERVER_H
#define RFV_NET_SERVER_H

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/socket.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "net/cluster_ring.h"
#include "net/protocol.h"
#include "service/sweep.h"

namespace rfv {

class SimdClient;

/**
 * Static cluster membership for one node.  Every node of a cluster
 * is started with the *same* node list/vnodes/replication/epoch (the
 * ring is a pure function of them — see cluster_ring.h) plus its own
 * `self` endpoint.  A clustered node:
 *
 *  - refuses RUNs whose routing key it does not own (NOT_OWNER with
 *    the owner list attached),
 *  - answers CLUSTER with the ring inputs and PING with its epoch,
 *  - redirects RUNs to the surviving replicas while draining
 *    (REDIRECT instead of a bare SHUTTING_DOWN), and
 *  - pushes every live-computed outcome to the key's other replicas
 *    (best-effort STORE), so a failover target usually answers the
 *    re-dispatched job from its warmed cache.
 */
struct ClusterConfig {
    std::vector<std::string> nodes; //!< "host:port", same order on all
    std::string self;               //!< this node's entry in nodes
    u32 vnodes = 64;                //!< virtual nodes per member
    u32 replication = 2;            //!< owners per key (clamped to N)
    u64 epoch = 1;                  //!< membership-view version

    bool enabled() const { return !nodes.empty(); }
};

struct ServerOptions {
    u16 port = 0;           //!< 0 = ephemeral (read back via port())
    u32 executors = 1;      //!< simulation worker threads
    u32 queueCapacity = 16; //!< admitted-but-unstarted request cap
    u32 maxConnections = 64;
    i64 idleTimeoutMs = 30000; //!< reap connections idle this long
    SweepOptions sweep;         //!< cache dir etc. (jobs is ignored)
    ClusterConfig cluster;      //!< empty nodes = standalone daemon

    /**
     * Test seam: runs on the executor thread immediately before each
     * job executes.  Lets tests hold the executor hostage to fill the
     * admission queue deterministically.
     */
    std::function<void()> executeHook;
};

class SimdServer {
  public:
    /** STATS counters; statsSnapshot() fills in the plain gauges. */
    struct Stats {
        double uptimeSeconds = 0;
        Counter connectionsAccepted;
        Counter connectionsRejected; //!< over maxConnections
        Counter connectionsReaped;   //!< idle-timeout closures
        Counter badFrames;       //!< framing/parse violations survived
        Counter requestsAccepted;    //!< admitted to the queue
        Counter requestsShed;        //!< RETRY_LATER (queue full)
        Counter requestsShutdown;    //!< SHUTTING_DOWN during drain
        Counter requestsOk;
        Counter requestsFailed;   //!< structured per-job errors
        Counter requestsTimedOut; //!< deadline expiry (queued or waiting)
        Counter statsRequests;
        Counter servedFromCache;
        u64 ringEpoch = 0;
        u64 ringNodes = 0;
        u64 ringReplication = 0;
        Counter requestsNotOwner;   //!< RUNs refused: key owned elsewhere
        Counter requestsRedirected; //!< RUNs redirected during drain
        Counter clusterRequests;    //!< CLUSTER verb servings
        Counter pingRequests;       //!< PING verb servings
        Counter replicationSent;    //!< STOREs acked by a peer
        Counter replicationFailed;  //!< STOREs a peer refused/dropped
        Counter replicationDropped; //!< pushes dropped (queue full)
        Counter replicationStored;  //!< peer STOREs admitted locally
        Counter replicationRejected; //!< peer STOREs refused locally
        u64 queueDepth = 0;
        u64 queueHighWater = 0;
        ResultCache::Stats cache;
        Counter aggregateCycles;
        Counter aggregateInstrs;

        double
        cyclesPerSec() const
        {
            return uptimeSeconds > 0
                       ? static_cast<double>(aggregateCycles) /
                             uptimeSeconds
                       : 0.0;
        }

        /**
         * STATS wire order: the ring and cluster keys only when
         * @p clustered, the cache's walk under a `cache_` prefix.
         */
        template <class Fn>
        static void
        fields(Fn &&fn, bool clustered)
        {
            fn("uptime_seconds", &Stats::uptimeSeconds);
            fn("connections_accepted", &Stats::connectionsAccepted);
            fn("connections_rejected", &Stats::connectionsRejected);
            fn("connections_reaped", &Stats::connectionsReaped);
            fn("bad_frames", &Stats::badFrames);
            fn("requests_accepted", &Stats::requestsAccepted);
            fn("requests_shed", &Stats::requestsShed);
            fn("requests_shutdown", &Stats::requestsShutdown);
            fn("requests_ok", &Stats::requestsOk);
            fn("requests_failed", &Stats::requestsFailed);
            fn("requests_timed_out", &Stats::requestsTimedOut);
            fn("stats_requests", &Stats::statsRequests);
            fn("served_from_cache", &Stats::servedFromCache);
            if (clustered) {
                fn("ring_epoch", &Stats::ringEpoch);
                fn("ring_nodes", &Stats::ringNodes);
                fn("ring_replication", &Stats::ringReplication);
                fn("requests_not_owner", &Stats::requestsNotOwner);
                fn("requests_redirected", &Stats::requestsRedirected);
                fn("cluster_requests", &Stats::clusterRequests);
                fn("ping_requests", &Stats::pingRequests);
                fn("replication_sent", &Stats::replicationSent);
                fn("replication_failed", &Stats::replicationFailed);
                fn("replication_dropped", &Stats::replicationDropped);
                fn("replication_stored", &Stats::replicationStored);
                fn("replication_rejected", &Stats::replicationRejected);
            }
            fn("queue_depth", &Stats::queueDepth);
            fn("queue_high_water", &Stats::queueHighWater);
            fn("cache_", &Stats::cache);
            fn("aggregate_cycles", &Stats::aggregateCycles);
            fn("aggregate_instrs", &Stats::aggregateInstrs);
            fn("cycles_per_sec", &Stats::cyclesPerSec);
        }
    };

    explicit SimdServer(ServerOptions opts);
    ~SimdServer();

    SimdServer(const SimdServer &) = delete;
    SimdServer &operator=(const SimdServer &) = delete;

    /** Bind and start all threads; throws ConfigError on bind failure. */
    void start() RFV_EXCLUDES(lifecycleMu_);

    /**
     * Graceful drain: stop accepting, fail new RUNs with
     * SHUTTING_DOWN, finish admitted jobs, answer waiting clients,
     * join every thread.  Idempotent, and safe against concurrent
     * callers (a signal-handler path racing the destructor): the
     * whole drain runs under lifecycleMu_, so a second caller blocks
     * until the first finishes and then sees running_ == false.
     */
    void stop() RFV_EXCLUDES(lifecycleMu_);

    bool running() const { return running_; }
    u16 port() const { return port_; }

    Stats statsSnapshot() const RFV_EXCLUDES(clusterMu_);

    /** STATS response message (shared by the verb handler and tests). */
    Message statsMessage();

    /** The engine (tests inspect cache/artifact counters). */
    SweepEngine &engine() { return engine_; }

    /**
     * Install (or replace) the cluster view.  Callable before or
     * after start() — harnesses that bind ephemeral ports only learn
     * the endpoints once every node is up.  An empty node list
     * reverts the server to standalone.  Throws ConfigError when
     * `self` is not in the node list or an endpoint is malformed.
     */
    void configureCluster(const ClusterConfig &cfg)
        RFV_EXCLUDES(clusterMu_);

    bool clustered() const { return clustered_; }

    /** Current ring (empty when standalone). */
    HashRing ringSnapshot() const RFV_EXCLUDES(clusterMu_);

    /**
     * Block until every queued replication push has been attempted
     * (tests assert a peer's cache warmed; returns immediately when
     * standalone or stopped).  Call while the server runs, not
     * concurrently with stop().
     */
    void drainReplication();

  private:
    struct PendingRequest {
        SweepJob job;
        ServiceRequest naming; //!< wire naming, forwarded on STORE
        IoDeadline deadline; //!< absolute; expired-in-queue check
        std::promise<SweepJobResult> promise;
    };

    /** Immutable cluster view, swapped wholesale by configureCluster. */
    struct ClusterState {
        HashRing ring;
        std::string self;
    };

    /** One live outcome queued for best-effort push to replicas. */
    struct ReplicationItem {
        ServiceRequest naming;
        SweepJob job;
        std::string keyHex;
        RunOutcome outcome;
    };

    /** Replica sessions by endpoint, owned by the replicator worker. */
    using PeerMap = std::map<std::string, std::unique_ptr<SimdClient>>;

    /**
     * One client session.  Its thread only shuts sock down when it
     * ends; the owner (reap or join, under connMu_) closes it after
     * the join, so only the owner ever writes sock's fd.
     */
    struct Connection {
        Socket sock;
        Thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop() RFV_EXCLUDES(connMu_);
    void serveConnection(Socket &sock);
    bool handleRun(Socket &sock, const Message &msg);
    bool handleStore(Socket &sock, const Message &msg);
    void reapFinishedConnections() RFV_EXCLUDES(connMu_);
    void joinAllConnections() RFV_EXCLUDES(connMu_);

    /** Admission work: run one admitted request on an executor. */
    void execute(PendingRequest &pending);

    std::shared_ptr<const ClusterState> clusterState() const
        RFV_EXCLUDES(clusterMu_);
    /** Replicator work: push one outcome to the key's other owners. */
    void replicate(const ReplicationItem &item, PeerMap &peers);

    ServerOptions opts_;
    SweepEngine engine_;
    std::optional<Listener> listener_;
    u16 port_ = 0;

    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false}; //!< refuse new RUNs

    /** Serializes start()/stop() (lifecycle transitions only). */
    Mutex lifecycleMu_;

    Thread acceptThread_;

    // Connection registry.
    Mutex connMu_;
    std::vector<std::unique_ptr<Connection>>
        connections_ RFV_GUARDED_BY(connMu_);

    Stats stats_; //!< gauges unset: statsSnapshot() fills them
    std::chrono::steady_clock::time_point startTime_;

    // Cluster view.  Readers copy the shared_ptr under a short lock
    // and use the immutable state outside it; configureCluster swaps
    // the pointer wholesale — no reader ever observes a half-built
    // ring.
    mutable Mutex clusterMu_;
    std::shared_ptr<const ClusterState>
        cluster_ RFV_GUARDED_BY(clusterMu_);
    std::atomic<bool> clustered_{false};

    // The two queues are built by start() and declared last, so their
    // workers are joined before any field they use is destroyed; the
    // admission queue, whose executors push replications, goes first.
    //
    // Replication (bounded, drop-on-overflow): executors push live
    // outcomes, one worker sends them to the key's other owners.  Best
    // effort by design — a replica that missed a push simply
    // recomputes on failover, bit-identically.  stop() flushes and
    // destroys it, which closes the peer sessions.
    std::optional<WorkQueue<ReplicationItem>> replicator_;

    // Admission: opts_.executors workers.  A job it accepts always has
    // an executor (close() runs the backlog), so a RUN is either
    // refused with SHUTTING_DOWN or answered.  stop() closes it but
    // keeps it for the STATS gauges.
    std::optional<WorkQueue<std::unique_ptr<PendingRequest>>> admission_;
};

} // namespace rfv

#endif // RFV_NET_SERVER_H
