#include "net/cluster_coordinator.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "service/request.h"

namespace rfv {

namespace {

i64
steadyNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** PING and CLUSTER round-trip budget. */
constexpr i64 kProbeTimeoutMs = 1000;

/** Backoff cap once every owner shed (jittered, deadline-capped). */
constexpr i64 kShedBackoffCapMs = 1000;

} // namespace

ClusterCoordinator::ClusterCoordinator(CoordinatorOptions opts)
    : opts_(std::move(opts))
{
    std::vector<RingNode> nodes;
    nodes.reserve(opts_.nodes.size());
    std::string error;
    for (const std::string &endpoint : opts_.nodes) {
        RingNode node;
        if (!parseEndpoint(endpoint, node, error))
            throw ConfigError("cluster node: " + error);
        nodes.push_back(std::move(node));
    }
    // Throws on empty/duplicate membership; mu_ is not needed yet
    // (no other thread can hold a half-constructed coordinator).
    MutexLock lk(mu_);
    ring_ = HashRing::build(std::move(nodes), opts_.vnodes,
                            opts_.replication, opts_.epoch);
}

HashRing
ClusterCoordinator::ringSnapshot() const
{
    MutexLock lk(mu_);
    return ring_;
}

u64
ClusterCoordinator::ringEpoch() const
{
    MutexLock lk(mu_);
    return ring_.epoch();
}

// ---- connection pool ---------------------------------------------------

std::unique_ptr<SimdClient>
ClusterCoordinator::acquire(const std::string &endpoint)
{
    u64 seed = 0;
    {
        MutexLock lk(mu_);
        auto &idle = pool_[endpoint];
        if (!idle.empty()) {
            std::unique_ptr<SimdClient> client =
                std::move(idle.back());
            idle.pop_back();
            return client;
        }
        // Distinct jitter streams per connection keep concurrent
        // workers' backoff schedules decorrelated yet deterministic.
        seed = opts_.client.jitterSeed + ++nextJitterSeed_;
    }
    RingNode node;
    std::string error;
    if (!parseEndpoint(endpoint, node, error))
        throw ConfigError("cluster endpoint: " + error);
    ClientOptions copts = opts_.client;
    copts.host = node.host;
    copts.port = node.port;
    copts.jitterSeed = seed;
    return std::make_unique<SimdClient>(std::move(copts));
}

void
ClusterCoordinator::release(const std::string &endpoint,
                            std::unique_ptr<SimdClient> client)
{
    client->setResponseTimeoutMs(opts_.client.responseTimeoutMs);
    MutexLock lk(mu_);
    pool_[endpoint].push_back(std::move(client));
}

// ---- health ------------------------------------------------------------

void
ClusterCoordinator::markDown(const std::string &endpoint)
{
    ++stats_.nodesMarkedDown;
    MutexLock lk(mu_);
    health_[endpoint].downUntilMs =
        steadyNowMs() + std::max<i64>(1, opts_.downHoldoffMs);
}

bool
ClusterCoordinator::usable(const std::string &endpoint, i64 nowMs)
{
    MutexLock lk(mu_);
    const auto it = health_.find(endpoint);
    return it == health_.end() || it->second.downUntilMs <= nowMs;
}

bool
ClusterCoordinator::probe(const std::string &endpoint)
{
    ++stats_.probes;
    std::unique_ptr<SimdClient> client = acquire(endpoint);
    client->setResponseTimeoutMs(kProbeTimeoutMs);
    Message ping;
    ping.verb = kVerbPing;
    Message pong;
    std::string error;
    const bool ok =
        client->request(ping, pong, error) == ServiceStatus::kOk &&
        pong.verb == kVerbPong;
    if (ok) {
        release(endpoint, std::move(client));
        MutexLock lk(mu_);
        health_[endpoint].downUntilMs = 0;
        return true;
    }
    ++stats_.probeFailures;
    MutexLock lk(mu_);
    health_[endpoint].downUntilMs =
        steadyNowMs() + std::max<i64>(1, opts_.downHoldoffMs);
    return false;
}

// ---- ring maintenance --------------------------------------------------

bool
ClusterCoordinator::adoptRing(const HashRing &ring)
{
    MutexLock lk(mu_);
    if (ring.epoch() < ring_.epoch())
        return false; // never roll the view backwards
    ring_ = ring;
    return true;
}

ServiceStatus
ClusterCoordinator::refreshRing(std::string &error)
{
    const HashRing snapshot = ringSnapshot();
    std::string lastError = "cluster has no nodes";
    for (const RingNode &node : snapshot.nodes()) {
        const std::string endpoint = node.endpoint();
        std::unique_ptr<SimdClient> client = acquire(endpoint);
        client->setResponseTimeoutMs(kProbeTimeoutMs);
        Message request;
        request.verb = kVerbCluster;
        Message response;
        std::string err;
        if (client->request(request, response, err) !=
            ServiceStatus::kOk) {
            lastError = endpoint + ": " + err;
            continue; // dead node; try the next member
        }
        release(endpoint, std::move(client));
        HashRing ring;
        std::string self;
        if (!decodeClusterInfo(response, ring, self, err)) {
            lastError = endpoint + ": " + err;
            continue;
        }
        adoptRing(ring);
        ++stats_.ringRefreshes;
        return ServiceStatus::kOk;
    }
    error = "no cluster node answered CLUSTER (last: " + lastError + ")";
    return ServiceStatus::kInternalError;
}

std::vector<std::string>
ClusterCoordinator::ownersOf(const SweepJob &job) const
{
    std::vector<std::string> endpoints;
    Hash128 rkey;
    try {
        rkey = routingKey(job.workload, job.config);
    } catch (const std::exception &) {
        return endpoints;
    }
    const HashRing ring = ringSnapshot();
    for (const u32 index : ring.ownersFor(rkey))
        endpoints.push_back(ring.nodes()[index].endpoint());
    return endpoints;
}

// ---- routed dispatch ---------------------------------------------------

ServiceStatus
ClusterCoordinator::runOnce(const std::string &endpoint,
                            const ServiceRequest &req,
                            SweepJobResult &res, Message &raw,
                            std::string &error, i64 responseTimeoutMs,
                            bool &transportFailed)
{
    std::unique_ptr<SimdClient> client = acquire(endpoint);
    client->setResponseTimeoutMs(responseTimeoutMs);
    const ServiceStatus s = client->run(req, res, error, &raw);
    transportFailed =
        s == ServiceStatus::kInternalError && !client->connected();
    if (!transportFailed)
        release(endpoint, std::move(client));
    // A dead transport's client is discarded: its socket is already
    // closed and the next dispatch to this node reconnects cleanly.
    return s;
}

ServiceStatus
ClusterCoordinator::run(const ServiceRequest &req, SweepJobResult &res,
                        std::string &error)
{
    res = SweepJobResult{};

    // Resolve the job locally first: the routing key needs the
    // resolved config, and a request no server could parse should
    // fail here without burning a network round trip.
    SweepJob job;
    ServiceStatus s = buildJob(req, job, error);
    if (s != ServiceStatus::kOk) {
        res.status = s;
        res.error = error;
        return s;
    }
    Hash128 rkey;
    try {
        rkey = routingKey(job.workload, job.config);
    } catch (const std::exception &e) {
        res.status = ServiceStatus::kBadConfig;
        res.error = error = e.what();
        return res.status;
    }

    // One cluster-wide budget, stamped now: every re-dispatch below
    // forwards only what is left of it.
    const auto t0 = std::chrono::steady_clock::now();
    const i64 budgetMs = req.deadlineMs;
    const auto budgetLeftMs = [&]() -> i64 {
        const i64 elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return budgetMs - elapsed;
    };
    const auto deadlineExhausted = [&]() -> ServiceStatus {
        ++stats_.deadlineExhausted;
        res = SweepJobResult{};
        res.job = job;
        res.status = ServiceStatus::kDeadlineExceeded;
        res.error = error =
            "cluster-wide deadline of " + std::to_string(budgetMs) +
            " ms exhausted before a node could answer";
        return res.status;
    };

    Rng backoffJitter(0);
    {
        MutexLock lk(mu_);
        // Child-stream derivation: dispatch n gets stream child(n) of
        // the configured jitter root, decorrelated from every sibling
        // dispatch (adjacent raw xor-seeds are not).
        backoffJitter =
            SeedSeq(opts_.client.jitterSeed).child(++nextJitterSeed_).rng();
    }

    std::vector<std::string> preferred; //!< owner hint from a redirect
    ServiceStatus last = ServiceStatus::kInternalError;
    std::string lastError = "no dispatch attempted";
    u32 shedRounds = 0;

    const u32 maxDispatches = std::max<u32>(1, opts_.maxDispatches);
    for (u32 dispatch = 0; dispatch < maxDispatches; ++dispatch) {
        if (budgetMs >= 0 && budgetLeftMs() <= 0)
            return deadlineExhausted();

        // Owner list for this attempt: a fresh redirect hint wins,
        // otherwise the ring's view.
        std::vector<std::string> owners;
        if (!preferred.empty()) {
            owners = std::move(preferred);
            preferred.clear();
        } else {
            const HashRing ring = ringSnapshot();
            for (const u32 index : ring.ownersFor(rkey))
                owners.push_back(ring.nodes()[index].endpoint());
        }
        if (owners.empty()) {
            error = "cluster ring is empty";
            return ServiceStatus::kInternalError;
        }

        // First healthy owner, primary first.  With every owner
        // quarantined, heartbeat them (PING) and take the first that
        // answers; a cluster that is entirely dark still gets one
        // forced attempt so the caller sees the real transport error.
        std::string target;
        const i64 nowMs = steadyNowMs();
        for (const std::string &endpoint : owners)
            if (usable(endpoint, nowMs)) {
                target = endpoint;
                break;
            }
        if (target.empty())
            for (const std::string &endpoint : owners)
                if (probe(endpoint)) {
                    target = endpoint;
                    break;
                }
        if (target.empty())
            target = owners.front();

        ServiceRequest attempt = req;
        attempt.ringEpoch = ringEpoch();
        i64 responseTimeoutMs = opts_.client.responseTimeoutMs;
        if (budgetMs >= 0) {
            const i64 left = budgetLeftMs();
            if (left <= 0)
                return deadlineExhausted();
            attempt.deadlineMs = left;
            // The transport wait tracks the job budget (plus slack
            // for the DEADLINE_EXCEEDED answer itself) so a node that
            // dies mid-request is detected at request grain.
            const i64 capped = left + 2000;
            if (responseTimeoutMs < 0 || capped < responseTimeoutMs)
                responseTimeoutMs = capped;
        }

        Message raw;
        bool transportFailed = false;
        error.clear();
        last = runOnce(target, attempt, res, raw, error,
                       responseTimeoutMs, transportFailed);
        ++stats_.dispatches;
        if (!error.empty())
            lastError = target + ": " + error;

        if (last == ServiceStatus::kOk)
            return last;

        if (transportFailed) {
            // Request-level failure detection: quarantine the node
            // and fail over to the next replica of the same key.
            markDown(target);
            ++stats_.failovers;
            continue;
        }

        if (isRerouteable(last)) {
            ++stats_.reroutes;
            RedirectInfo info;
            if (decodeRedirect(raw, info)) {
                if (info.ringEpoch > ringEpoch()) {
                    // The refusing node has a newer membership view:
                    // refresh before trusting any more routing.
                    std::string refreshError;
                    refreshRing(refreshError);
                }
                for (const std::string &owner : info.owners)
                    if (owner != target)
                        preferred.push_back(owner);
            }
            continue;
        }

        if (isRetryable(last)) {
            // Shed or draining: spill to the key's other replicas
            // first (cluster-wide scheduling — capacity elsewhere is
            // used before waiting); once every owner shed, back off.
            ++stats_.shedRetries;
            for (const std::string &owner : owners)
                if (owner != target)
                    preferred.push_back(owner);
            if (preferred.empty()) {
                i64 sleepMs = fullJitterBackoffMs(
                    backoffJitter, shedRounds, opts_.client.backoffBaseMs,
                    kShedBackoffCapMs);
                if (budgetMs >= 0) {
                    const i64 left = budgetLeftMs();
                    if (left <= 0)
                        return deadlineExhausted();
                    sleepMs = std::min(sleepMs, left);
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(sleepMs));
                ++shedRounds;
            }
            continue;
        }

        // Terminal: bad request/config, version mismatch, server-side
        // internal error, deadline, cancellation — nothing a different
        // node could answer differently.
        return last;
    }

    if (error.empty())
        error = "cluster dispatch budget exhausted after " +
                std::to_string(maxDispatches) + " attempts (last: " +
                lastError + ")";
    if (res.status == ServiceStatus::kOk)
        res.status = last;
    return last;
}

std::vector<std::pair<std::string, Message>>
ClusterCoordinator::statsAll()
{
    std::vector<std::pair<std::string, Message>> out;
    const HashRing ring = ringSnapshot();
    for (const RingNode &node : ring.nodes()) {
        const std::string endpoint = node.endpoint();
        std::unique_ptr<SimdClient> client = acquire(endpoint);
        client->setResponseTimeoutMs(kProbeTimeoutMs);
        Message stats;
        std::string error;
        if (client->stats(stats, error) == ServiceStatus::kOk) {
            release(endpoint, std::move(client));
            out.emplace_back(endpoint, std::move(stats));
        }
    }
    return out;
}

} // namespace rfv
