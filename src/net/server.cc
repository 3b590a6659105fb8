#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <type_traits>

#include "common/error.h"
#include "common/framing.h"
#include "net/client.h"
#include "service/version.h"

namespace rfv {

namespace {

/** Poll slice for loops that must observe shutdown flags. */
constexpr i64 kPollSliceMs = 100;

/** Max wall time for one frame's bytes. */
constexpr i64 kFrameTimeoutMs = 10000;

/** Replication push queue depth; overflow drops the push. */
constexpr size_t kReplicationQueueDepth = 256;

SweepOptions
serverSweepOptions(SweepOptions sweep)
{
    // The daemon's parallelism lives in its executor threads; each
    // execute() call must not spin up a nested scheduler.
    sweep.jobs = 1;
    sweep.cancel = nullptr;
    return sweep;
}

} // namespace

SimdServer::SimdServer(ServerOptions opts)
    : opts_(std::move(opts)), engine_(serverSweepOptions(opts_.sweep))
{
}

SimdServer::~SimdServer() { stop(); }

void
SimdServer::start()
{
    MutexLock lifecycle(lifecycleMu_);
    if (running_)
        return;
    listener_.emplace(opts_.port);
    port_ = listener_->port();
    startTime_ = std::chrono::steady_clock::now();
    draining_ = false;
    closing_ = false;
    // The peer sessions live in the worker's closure: one worker, so
    // no lock, and they close when stop() destroys the queue.
    replicator_.emplace(1, kReplicationQueueDepth,
                        [this, peers = std::make_shared<PeerMap>()](
                            ReplicationItem &item) {
                            replicate(item, *peers);
                        });
    admission_.emplace(opts_.executors, opts_.queueCapacity,
                       [this](std::unique_ptr<PendingRequest> &pending) {
                           execute(*pending);
                       });
    running_ = true; // stop() now finds both queues

    if (opts_.cluster.enabled())
        configureCluster(opts_.cluster);
    acceptThread_ = Thread([this] { acceptLoop(); });
}

void
SimdServer::stop()
{
    // The whole drain runs under lifecycleMu_ so a concurrent stop()
    // (destructor racing a signal handler) blocks until the first
    // caller finishes instead of double-joining half-dead threads.
    // Before this lock existed, `if (!running_) return;` was a
    // check-then-act race: both callers could pass the test and both
    // run the drain.
    MutexLock lifecycle(lifecycleMu_);
    if (!running_)
        return;
    // Phase 1: stop accepting.  The accept loop polls in kPollSliceMs
    // slices and re-checks draining_ between slices, so it exits on
    // its own within one slice; only then is the listener closed.
    // (Closing it *before* the join — the old fast-path — raced the
    // accept thread's poll on the listening fd: Socket::close()
    // writes fd_ = -1 while Listener::accept() reads it.  TSan caught
    // this once the service suites ran under the tsan preset.)
    // Connections stay up for now: new RUNs are refused with
    // SHUTTING_DOWN (handleRun checks draining_, and the admission
    // queue refuses once closed) while admitted jobs keep executing.
    draining_ = true;
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_->close();

    // Phase 2: executors drain the admitted queue and exit.  Every
    // admitted job's promise is fulfilled before close() returns, so
    // connection threads blocked on an in-flight result are released.
    admission_->close();

    // Phase 2.5: flush the replication queue.  Executors are done, so
    // nothing enqueues anymore; pushing the backlog now (peers may be
    // draining too — failures are counted and dropped) keeps a rolling
    // cluster restart from losing the freshest results.
    replicator_.reset();

    // Phase 3: nothing is in flight anymore — drop the connections.
    closing_ = true;
    joinAllConnections();

    // Phase 4: join the cache's write-behind publisher.  Stores are
    // admitted to the memory tier synchronously but reach disk via a
    // background queue; draining it here guarantees every result the
    // server answered is durable before the process exits.
    engine_.results().drain();
    running_ = false;
}

// ---- cluster membership ------------------------------------------------

void
SimdServer::configureCluster(const ClusterConfig &cfg)
{
    if (!cfg.enabled()) {
        {
            MutexLock lk(clusterMu_);
            cluster_.reset();
        }
        clustered_ = false;
        return;
    }
    std::vector<RingNode> nodes;
    nodes.reserve(cfg.nodes.size());
    std::string error;
    for (const std::string &endpoint : cfg.nodes) {
        RingNode node;
        if (!parseEndpoint(endpoint, node, error))
            throw ConfigError("cluster node: " + error);
        nodes.push_back(std::move(node));
    }
    auto state = std::make_shared<ClusterState>();
    state->ring = HashRing::build(std::move(nodes), cfg.vnodes,
                                  cfg.replication, cfg.epoch);
    state->self = cfg.self;
    if (state->ring.indexOf(cfg.self) < 0)
        throw ConfigError("cluster self '" + cfg.self +
                          "' is not in the node list");
    {
        MutexLock lk(clusterMu_);
        cluster_ = std::move(state);
    }
    clustered_ = true;
}

std::shared_ptr<const SimdServer::ClusterState>
SimdServer::clusterState() const
{
    MutexLock lk(clusterMu_);
    return cluster_;
}

HashRing
SimdServer::ringSnapshot() const
{
    const auto state = clusterState();
    return state ? state->ring : HashRing{};
}

// ---- replication -------------------------------------------------------

void
SimdServer::replicate(const ReplicationItem &item, PeerMap &peers)
{
    // Peer sessions are created on first use, reconnected on demand
    // by SimdClient, discarded on failure.
    const auto state = clusterState();
    if (!state)
        return;

    Hash128 rkey;
    try {
        rkey = routingKey(item.job.workload, item.job.config);
    } catch (const std::exception &) {
        return; // cannot route an unroutable config
    }
    std::string blob;
    {
        std::ostringstream os;
        ResultCache::serialize(os, item.outcome);
        blob = os.str();
    }
    const Message store = encodeStoreRequest(item.naming, item.keyHex, blob);

    for (const u32 ownerIndex : state->ring.ownersFor(rkey)) {
        const std::string endpoint =
            state->ring.nodes()[ownerIndex].endpoint();
        if (endpoint == state->self)
            continue;
        std::unique_ptr<SimdClient> &peer = peers[endpoint];
        if (!peer) {
            RingNode node;
            std::string parseError;
            if (!parseEndpoint(endpoint, node, parseError))
                continue; // ring admits only parsable endpoints
            ClientOptions copts;
            copts.host = node.host;
            copts.port = node.port;
            copts.connectTimeoutMs = 2000;
            copts.responseTimeoutMs = 10000;
            peer = std::make_unique<SimdClient>(copts);
        }
        Message ack;
        std::string error;
        const bool sent =
            peer->request(store, ack, error) == ServiceStatus::kOk &&
            ack.verb == kVerbStored && ack.get("stored") == "1";
        if (sent) {
            ++stats_.replicationSent;
        } else {
            ++stats_.replicationFailed;
            peer->disconnect(); // force a clean reconnect next time
        }
    }
}

void
SimdServer::drainReplication()
{
    if (replicator_)
        replicator_->drain();
}

bool
SimdServer::handleStore(Connection *conn, const Message &msg)
{
    Socket &sock = conn->sock;
    const auto reply = [&](const Message &m) {
        return writeFrame(sock, m.encode(),
                          deadlineAfterMs(kFrameTimeoutMs)) ==
               FrameStatus::kOk;
    };

    ServiceStatus s = ServiceStatus::kOk;
    std::string error;
    ServiceRequest req;
    std::string keyHex;
    SweepJob job;

    if (!clustered_) {
        s = ServiceStatus::kBadRequest;
        error = "STORE on a standalone server";
    }
    if (s == ServiceStatus::kOk)
        s = decodeStoreRequest(msg, req, keyHex, error);
    if (s == ServiceStatus::kOk)
        s = buildJob(req, job, error);
    if (s == ServiceStatus::kOk) {
        // Never trust the sender's key: recompute it from the job
        // naming (the key needs only the assembled program, so nothing
        // is compiled) and admit the outcome only under a key this
        // node would itself have produced.  A replica can therefore
        // never poison the cache with a mislabeled result.
        try {
            const Hash128 key = engine_.resultKeyOf(
                *findWorkload(job.workload), job.config);
            if (key.hex() != keyHex) {
                s = ServiceStatus::kBadRequest;
                error = "STORE key mismatch: claimed " + keyHex +
                        ", computed " + key.hex();
            } else {
                std::istringstream is(msg.blob);
                const RunOutcome outcome = ResultCache::deserialize(is);
                engine_.results().store(key, outcome);
            }
        } catch (const std::exception &e) {
            s = ServiceStatus::kBadRequest;
            error = std::string("STORE rejected: ") + e.what();
        }
    }

    if (s == ServiceStatus::kOk)
        ++stats_.replicationStored;
    else
        ++stats_.replicationRejected;
    Message ack;
    ack.verb = kVerbStored;
    ack.add("status", serviceStatusName(s));
    ack.add("stored", s == ServiceStatus::kOk ? "1" : "0");
    if (!error.empty())
        ack.add("error", error);
    return reply(ack);
}

// ---- accept / connection lifecycle -------------------------------------

void
SimdServer::acceptLoop()
{
    while (!draining_) {
        std::optional<Socket> sock = listener_->accept(kPollSliceMs);
        reapFinishedConnections();
        if (!sock)
            continue;

        MutexLock lk(connMu_);
        if (connections_.size() >= opts_.maxConnections) {
            ++stats_.connectionsRejected;
            continue; // Socket closes on scope exit; client retries.
        }
        ++stats_.connectionsAccepted;
        auto conn = std::make_unique<Connection>();
        conn->sock = std::move(*sock);
        Connection *raw = conn.get();
        conn->thread = Thread([this, raw] { serveConnection(raw); });
        connections_.push_back(std::move(conn));
    }
}

void
SimdServer::reapFinishedConnections()
{
    MutexLock lk(connMu_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
        if ((*it)->done) {
            if ((*it)->thread.joinable())
                (*it)->thread.join();
            it = connections_.erase(it);
        } else {
            ++it;
        }
    }
}

void
SimdServer::joinAllConnections()
{
    MutexLock lk(connMu_);
    for (auto &conn : connections_)
        if (conn->thread.joinable())
            conn->thread.join();
    connections_.clear();
}

void
SimdServer::serveConnection(Connection *conn)
{
    Socket &sock = conn->sock;
    const auto frameDeadline = [] {
        return deadlineAfterMs(kFrameTimeoutMs);
    };
    const auto sendMessage = [&](const Message &m) {
        return writeFrame(sock, m.encode(), frameDeadline()) ==
               FrameStatus::kOk;
    };
    const auto countBadFrame = [this] { ++stats_.badFrames; };
    // Clustered peers push STORE frames carrying full outcome blobs;
    // plain clients stay under the small request cap.
    const auto requestCap = [this] {
        return clustered_ ? kMaxResponseFrameBytes
                          : kMaxRequestFrameBytes;
    };

    // Wait for the next frame's first byte in short slices so closing_
    // and the idle budget are observed without ever expiring a
    // deadline *inside* a frame.  kOk = data pending.
    const auto awaitData = [&](std::chrono::steady_clock::time_point
                                   since) -> IoStatus {
        while (!closing_) {
            const IoStatus ready =
                sock.waitReadable(deadlineAfterMs(kPollSliceMs));
            if (ready != IoStatus::kTimedOut)
                return ready;
            const auto idleMs =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - since)
                    .count();
            if (opts_.idleTimeoutMs >= 0 && idleMs > opts_.idleTimeoutMs) {
                ++stats_.connectionsReaped;
                return IoStatus::kTimedOut;
            }
        }
        return IoStatus::kClosed;
    };

    // ---- handshake -----------------------------------------------------
    std::string payload;
    if (awaitData(std::chrono::steady_clock::now()) != IoStatus::kOk) {
        conn->done = true;
        return;
    }
    const FrameStatus hs =
        readFrame(sock, payload, requestCap(), frameDeadline());
    if (hs != FrameStatus::kOk) {
        if (hs != FrameStatus::kClosed)
            countBadFrame();
        conn->done = true;
        return;
    }
    Message hello;
    std::string parseError;
    bool helloOk = false;
    if (Message::decode(payload, hello, parseError)) {
        const Message welcome = makeWelcome(hello, helloOk);
        if (!sendMessage(welcome))
            helloOk = false;
    } else {
        countBadFrame();
        Message reject;
        bool ignored = false;
        reject = makeWelcome(Message{}, ignored); // BAD_REQUEST welcome
        sendMessage(reject);
    }
    if (!helloOk) {
        conn->done = true;
        return;
    }

    // ---- request loop --------------------------------------------------
    // The loop runs until closing_, not draining_: during a drain the
    // connection stays up so new RUNs get an explicit SHUTTING_DOWN
    // answer instead of a dropped connection.
    while (!closing_) {
        if (awaitData(std::chrono::steady_clock::now()) != IoStatus::kOk)
            break;

        const FrameStatus fs =
            readFrame(sock, payload, requestCap(), frameDeadline());
        if (fs == FrameStatus::kClosed)
            break; // orderly client exit
        if (fs != FrameStatus::kOk) {
            // Bad magic, oversized declaration, truncation: the byte
            // stream can no longer be trusted, so answer (best effort)
            // and drop only this connection — the process lives on.
            countBadFrame();
            sendMessage(makeErrorResult(
                ServiceStatus::kBadRequest,
                std::string("unreadable frame: ") + frameStatusName(fs)));
            break;
        }

        Message msg;
        if (!Message::decode(payload, msg, parseError)) {
            // The frame boundary is intact, so the connection can
            // survive a malformed payload.
            countBadFrame();
            if (!sendMessage(makeErrorResult(ServiceStatus::kBadRequest,
                                             parseError)))
                break;
            continue;
        }

        if (msg.verb == kVerbRun) {
            if (!handleRun(conn, msg))
                break;
        } else if (msg.verb == kVerbStats) {
            ++stats_.statsRequests;
            if (!sendMessage(statsMessage()))
                break;
        } else if (msg.verb == kVerbCluster) {
            ++stats_.clusterRequests;
            const auto state = clusterState();
            const Message response =
                state ? encodeClusterInfo(state->ring, state->self)
                      : makeErrorResult(ServiceStatus::kBadRequest,
                                        "server is not clustered");
            if (!sendMessage(response))
                break;
        } else if (msg.verb == kVerbPing) {
            ++stats_.pingRequests;
            const auto state = clusterState();
            Message pong;
            pong.verb = kVerbPong;
            pong.add("status", serviceStatusName(ServiceStatus::kOk));
            pong.addU64("ring_epoch",
                        state ? state->ring.epoch() : 0);
            pong.add("draining", draining_ ? "1" : "0");
            if (!sendMessage(pong))
                break;
        } else if (msg.verb == kVerbStore) {
            if (!handleStore(conn, msg))
                break;
        } else {
            if (!sendMessage(makeErrorResult(
                    ServiceStatus::kBadRequest,
                    "unknown verb '" + msg.verb + "'")))
                break;
        }
    }
    sock.close();
    conn->done = true;
}

bool
SimdServer::handleRun(Connection *conn, const Message &msg)
{
    Socket &sock = conn->sock;
    const auto frameDeadline = [] {
        return deadlineAfterMs(kFrameTimeoutMs);
    };
    const auto reply = [&](const Message &m) {
        return writeFrame(sock, m.encode(), frameDeadline()) ==
               FrameStatus::kOk;
    };

    // Requests rejected before admission (undecodable RUN, unknown
    // config, bad override) still count as failed requests: the STATS
    // ledger must reconcile with what clients observed.
    const auto replyFailed = [&](ServiceStatus s,
                                 const std::string &error) {
        ++stats_.requestsFailed;
        return reply(makeErrorResult(s, error));
    };

    ServiceRequest req;
    std::string error;
    ServiceStatus s = decodeRunRequest(msg, req, error);
    if (s != ServiceStatus::kOk)
        return replyFailed(s, error);

    SweepJob job;
    s = buildJob(req, job, error);
    if (s != ServiceStatus::kOk)
        return replyFailed(s, error);

    // Cluster ownership: only a ring owner of this job's routing key
    // may serve it.  The owner list is computed once here and reused
    // for the drain-time REDIRECT below.
    std::vector<std::string> otherOwners;
    u64 ringEpoch = 0;
    if (clustered_) {
        if (const auto state = clusterState()) {
            ringEpoch = state->ring.epoch();
            bool owned = true;
            try {
                const Hash128 rkey =
                    routingKey(job.workload, job.config);
                owned = false;
                for (const u32 index : state->ring.ownersFor(rkey)) {
                    const std::string endpoint =
                        state->ring.nodes()[index].endpoint();
                    if (endpoint == state->self)
                        owned = true;
                    else
                        otherOwners.push_back(endpoint);
                }
            } catch (const std::exception &) {
                // Unroutable config: serve it here and let execute()
                // classify the error into the per-job result.
                owned = true;
            }
            if (!owned) {
                ++stats_.requestsNotOwner;
                return reply(makeRedirectResult(
                    ServiceStatus::kNotOwner, otherOwners, ringEpoch,
                    "key is owned by another node under ring epoch " +
                        std::to_string(ringEpoch)));
            }
        }
    }

    const i64 deadlineMs = req.deadlineMs;
    const IoDeadline deadline =
        deadlineMs >= 0 ? deadlineAfterMs(deadlineMs) : std::nullopt;

    // Admission control: a full queue sheds the request immediately —
    // never an unbounded queue, never a blocked connection.  A push the
    // queue accepts is guaranteed an executor, even if stop() closes
    // the queue right after; once draining_ is set nothing is pushed.
    auto pending = std::make_unique<PendingRequest>();
    pending->job = std::move(job);
    pending->naming = std::move(req);
    pending->deadline = deadline;
    std::future<SweepJobResult> future = pending->promise.get_future();
    const QueuePush admitted =
        draining_ ? QueuePush::kClosed : admission_->push(std::move(pending));
    if (admitted == QueuePush::kClosed) {
        // A draining cluster node knows who else can serve the key:
        // answer REDIRECT with the surviving replicas so the client
        // re-dispatches in one hop instead of blindly retrying.
        if (clustered_ && !otherOwners.empty()) {
            ++stats_.requestsRedirected;
            return reply(makeRedirectResult(
                ServiceStatus::kRedirect, otherOwners, ringEpoch,
                "server is draining; re-dispatch to a replica"));
        }
        ++stats_.requestsShutdown;
        return reply(makeErrorResult(ServiceStatus::kShuttingDown,
                                     "server is draining"));
    }
    if (admitted == QueuePush::kFull) {
        ++stats_.requestsShed;
        return reply(makeErrorResult(
            ServiceStatus::kRetryLater,
            "admission queue full (" +
                std::to_string(opts_.queueCapacity) + " pending)"));
    }
    ++stats_.requestsAccepted;

    // Wait for the executor.  On client-deadline expiry the request is
    // answered DEADLINE_EXCEEDED; the job itself still completes on
    // the executor and warms the result cache for the retry.
    if (deadline) {
        if (future.wait_until(*deadline) != std::future_status::ready) {
            ++stats_.requestsTimedOut;
            return reply(makeErrorResult(
                ServiceStatus::kDeadlineExceeded,
                "deadline of " + std::to_string(deadlineMs) +
                    " ms expired while the job was in flight"));
        }
    }
    const SweepJobResult res = future.get();

    if (res.ok()) {
        ++stats_.requestsOk;
        if (res.fromCache)
            ++stats_.servedFromCache;
        stats_.aggregateCycles += res.outcome.sim.cycles;
        stats_.aggregateInstrs += res.outcome.sim.issuedInstrs;
    } else if (res.status == ServiceStatus::kDeadlineExceeded) {
        ++stats_.requestsTimedOut;
    } else {
        ++stats_.requestsFailed;
    }
    return reply(encodeResult(res));
}

// ---- executors ---------------------------------------------------------

void
SimdServer::execute(PendingRequest &pending)
{
    if (opts_.executeHook)
        opts_.executeHook();

    // A request that died of old age in the queue is not worth
    // simulating: its connection has already answered (or is about
    // to).  Skipping it keeps a backlog from wasting executor time on
    // results nobody will read.
    if (pending.deadline &&
        std::chrono::steady_clock::now() > *pending.deadline) {
        SweepJobResult res;
        res.job = pending.job;
        res.status = ServiceStatus::kDeadlineExceeded;
        res.error = "deadline expired before execution started";
        pending.promise.set_value(std::move(res));
        return;
    }

    SweepJobResult res = engine_.execute(pending.job);
    // Freshly computed results fan out to the key's other owners
    // (bounded queue, best effort) so a failover target usually
    // answers the re-dispatched job from its warmed cache instead of
    // re-simulating.
    if (clustered_ && res.ok() && !res.fromCache &&
        replicator_->push({pending.naming, res.job, res.key,
                           res.outcome}) != QueuePush::kAccepted)
        ++stats_.replicationDropped;
    pending.promise.set_value(std::move(res));
}

// ---- stats -------------------------------------------------------------

SimdServer::Stats
SimdServer::statsSnapshot() const
{
    Stats s = stats_;
    s.uptimeSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      startTime_)
            .count();
    if (const auto state = clusterState()) {
        s.ringEpoch = state->ring.epoch();
        s.ringNodes = state->ring.nodes().size();
        s.ringReplication = state->ring.replication();
    }
    if (admission_) {
        const auto g = admission_->gauges();
        s.queueDepth = g.queued;
        s.queueHighWater = g.highWater;
    }
    s.cache = engine_.results().stats();
    return s;
}

Message
SimdServer::statsMessage()
{
    const Stats s = statsSnapshot();
    Message m;
    m.verb = kVerbStats;
    m.add("sim_version", kSimulatorVersion);
    m.addU64("proto_version", kProtoVersionMax);
    Stats::fields(
        [&](const std::string &name, auto field) {
            const auto &v = std::invoke(field, s);
            using V = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<V, ResultCache::Stats>)
                V::fields([&](const char *sub, auto f) {
                    m.addU64(name + sub, v.*f);
                });
            else if constexpr (std::is_same_v<V, double>)
                m.add(name, std::to_string(v));
            else
                m.addU64(name, v);
        },
        clustered_);
    return m;
}

} // namespace rfv
