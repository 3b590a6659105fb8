/**
 * @file
 * Client-side cluster coordinator: the routed front door to a set of
 * SimdServer nodes.
 *
 * Routing: every job's routing key (service/hash.h routingKey) maps
 * to an owner list on the consistent-hash ring; the coordinator
 * dispatches to the first *healthy* owner, primary first.  The ring
 * is bootstrapped locally from the seed list and refreshed through
 * the CLUSTER verb whenever a node answers NOT_OWNER/REDIRECT with a
 * newer epoch — the membership view converges without a coordination
 * service.
 *
 * Failure detection is two-layered: request-level (a connect/send/
 * receive failure or response timeout marks the node down and fails
 * over to the next replica in the same dispatch) and heartbeat (a
 * down node past its holdoff is PINGed before it is trusted with
 * traffic again).  Because replicas answer from the same ResultCache
 * serialization — or recompute bit-identically on a cold miss — a
 * failover re-dispatch returns the same bytes the dead node would
 * have.
 *
 * Deadlines are cluster-wide: one budget is stamped when run() is
 * entered, and every re-dispatch (failover, redirect, retry-later
 * backoff) forwards only the *remaining* budget, so "deadline_ms=500"
 * bounds the job across however many nodes end up touching it — not
 * 500 ms per node.
 *
 * Thread-safe: worker threads share one coordinator; per-node
 * connections are pooled and handed out exclusively.
 */
#ifndef RFV_NET_CLUSTER_COORDINATOR_H
#define RFV_NET_CLUSTER_COORDINATOR_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "net/client.h"
#include "net/cluster_ring.h"

namespace rfv {

struct CoordinatorOptions {
    /** Seed node endpoints; also the bootstrap ring membership. */
    std::vector<std::string> nodes;

    /** Per-connection template (timeouts, backoff, jitter seed). */
    ClientOptions client;

    // Bootstrap ring geometry (replaced on the first CLUSTER refresh
    // with whatever the cluster actually runs).
    u32 vnodes = 64;
    u32 replication = 2;
    u64 epoch = 1;

    i64 downHoldoffMs = 2000;  //!< quarantine after a node failure
    u32 maxDispatches = 8;     //!< routing attempts per request
};

class ClusterCoordinator {
  public:
    /** Routing counters (one coordinator, all worker threads). */
    struct Stats {
        Counter dispatches;   //!< RUNs sent to some node
        Counter reroutes;     //!< NOT_OWNER/REDIRECT follow-ups
        Counter failovers;    //!< transport-failure re-dispatches
        Counter shedRetries;  //!< RETRY_LATER re-dispatches
        Counter ringRefreshes;
        Counter probes;       //!< PING health checks sent
        Counter probeFailures;
        Counter nodesMarkedDown;
        Counter deadlineExhausted; //!< budget died before an answer

        /** The `cluster-summary:` names, in output order. */
        template <class Fn>
        static void
        fields(Fn &&fn)
        {
            fn("dispatches", &Stats::dispatches);
            fn("reroutes", &Stats::reroutes);
            fn("failovers", &Stats::failovers);
            fn("shed_retries", &Stats::shedRetries);
            fn("ring_refreshes", &Stats::ringRefreshes);
            fn("probes", &Stats::probes);
            fn("probe_failures", &Stats::probeFailures);
            fn("nodes_marked_down", &Stats::nodesMarkedDown);
            fn("deadline_exhausted", &Stats::deadlineExhausted);
        }
    };

    /** Throws ConfigError on an empty or malformed node list. */
    explicit ClusterCoordinator(CoordinatorOptions opts);

    /**
     * Route one request to its owner and return the decoded result —
     * the cluster-side analogue of SimdClient::runWithRetry.  Handles
     * NOT_OWNER/REDIRECT re-routing, ring refresh on epoch change,
     * failover to replicas on node failure, load-shed backoff, and
     * remaining-deadline propagation.  Returns the final status;
     * kDeadlineExceeded when the cluster-wide budget ran out first.
     */
    ServiceStatus run(const ServiceRequest &req, SweepJobResult &res,
                      std::string &error) RFV_EXCLUDES(mu_);

    /** Fetch ring membership from any reachable node (CLUSTER). */
    ServiceStatus refreshRing(std::string &error) RFV_EXCLUDES(mu_);

    /**
     * PING @p endpoint; true marks the node up, false extends its
     * quarantine.  Exposed so harnesses can drive failure detection
     * deterministically.
     */
    bool probe(const std::string &endpoint) RFV_EXCLUDES(mu_);

    /** STATS from every node (endpoint, response) — skips dead ones. */
    std::vector<std::pair<std::string, Message>> statsAll()
        RFV_EXCLUDES(mu_);

    /** The endpoints this job's key routes to, primary first. */
    std::vector<std::string> ownersOf(const SweepJob &job) const
        RFV_EXCLUDES(mu_);

    HashRing ringSnapshot() const RFV_EXCLUDES(mu_);
    u64 ringEpoch() const RFV_EXCLUDES(mu_);
    Stats statsSnapshot() const { return stats_; }

  private:
    struct NodeHealth {
        i64 downUntilMs = 0; //!< steady-clock ms; <= now means usable
    };

    std::unique_ptr<SimdClient> acquire(const std::string &endpoint)
        RFV_EXCLUDES(mu_);
    void release(const std::string &endpoint,
                 std::unique_ptr<SimdClient> client) RFV_EXCLUDES(mu_);
    void markDown(const std::string &endpoint) RFV_EXCLUDES(mu_);
    bool usable(const std::string &endpoint, i64 nowMs)
        RFV_EXCLUDES(mu_);
    ServiceStatus runOnce(const std::string &endpoint,
                          const ServiceRequest &req, SweepJobResult &res,
                          Message &raw, std::string &error,
                          i64 responseTimeoutMs, bool &transportFailed)
        RFV_EXCLUDES(mu_);
    bool adoptRing(const HashRing &ring) RFV_EXCLUDES(mu_);

    CoordinatorOptions opts_;

    mutable Mutex mu_;
    HashRing ring_ RFV_GUARDED_BY(mu_);
    std::map<std::string, NodeHealth> health_ RFV_GUARDED_BY(mu_);
    std::map<std::string, std::vector<std::unique_ptr<SimdClient>>>
        pool_ RFV_GUARDED_BY(mu_);
    Stats stats_;
    u64 nextJitterSeed_ RFV_GUARDED_BY(mu_) = 0;
};

} // namespace rfv

#endif // RFV_NET_CLUSTER_COORDINATOR_H
