/**
 * @file
 * Client library for the `simd` daemon: connect + handshake, submit
 * RUN/STATS requests, and a retry wrapper implementing exponential
 * backoff with jitter for transient failures (RETRY_LATER shedding,
 * SHUTTING_DOWN, refused or dropped connections).
 *
 * Backoff is full-jitter: attempt n sleeps a uniform draw from
 * [base/2, min(cap, base * 2^n)], using the repo's deterministic Rng
 * so tests can pin the schedule via the seed.  Non-retryable statuses
 * (BAD_CONFIG, UNKNOWN_WORKLOAD, VERSION_MISMATCH, …) are returned
 * immediately — retrying an invalid request can never help.
 *
 * The retry budget is additionally capped by the request's own
 * deadline: with deadlineMs >= 0 the total wall time across attempts
 * and backoff sleeps never exceeds deadlineMs — a client must not
 * spend longer retrying than the deadline it asked the server to
 * enforce.
 */
#ifndef RFV_NET_CLIENT_H
#define RFV_NET_CLIENT_H

#include <string>

#include "common/rng.h"
#include "common/socket.h"
#include "net/protocol.h"

namespace rfv {

struct ClientOptions {
    std::string host = "127.0.0.1";
    u16 port = 0;
    i64 connectTimeoutMs = 5000;
    /** Bound on waiting for a response frame; < 0 = wait forever. */
    i64 responseTimeoutMs = -1;
    u32 maxAttempts = 5;     //!< total tries in runWithRetry()
    i64 backoffBaseMs = 100; //!< first-retry backoff scale
    i64 backoffCapMs = 5000; //!< upper bound on one backoff sleep
    u64 jitterSeed = 0x5eed; //!< deterministic jitter stream
};

/** Full-jitter backoff before retry @p attempt (see above), on @p rng. */
i64 fullJitterBackoffMs(Rng &rng, u32 attempt, i64 baseMs, i64 capMs);

class SimdClient {
  public:
    explicit SimdClient(ClientOptions opts);

    /**
     * Connect and run the HELLO/WELCOME handshake.  kOk,
     * kVersionMismatch (server refused the session), or
     * kInternalError with @p error for transport failures.
     */
    ServiceStatus connect(std::string &error);

    bool connected() const { return sock_.valid(); }
    void disconnect() { sock_.close(); }

    /**
     * Submit one RUN request and decode the response into @p res,
     * connecting (with handshake) first if no session is open.
     * Returns the response status; kInternalError with @p error on
     * transport failure (the connection is closed and must be
     * re-established).  @p rawResponse, when non-null, receives the
     * undecoded RESULT — cluster routers read the NOT_OWNER/REDIRECT
     * owner list from it (see protocol.h decodeRedirect).
     */
    ServiceStatus run(const ServiceRequest &req, SweepJobResult &res,
                      std::string &error,
                      Message *rawResponse = nullptr);

    /**
     * run() plus the retry policy: reconnects as needed, retries
     * transient statuses and transport failures with exponential
     * backoff + jitter, gives up after maxAttempts.  @p attempts
     * (optional) receives the number of tries consumed.
     */
    ServiceStatus runWithRetry(const ServiceRequest &req,
                               SweepJobResult &res, std::string &error,
                               u32 *attempts = nullptr);

    /** Fetch the server's STATS counters (connects on demand). */
    ServiceStatus stats(Message &out, std::string &error);

    /**
     * One generic request/response round trip, connecting (with
     * handshake) on demand — the transport for the v2 cluster verbs
     * (CLUSTER, PING, STORE).  kInternalError with @p error on
     * transport failure; the response is otherwise returned verbatim
     * for the caller to interpret.
     */
    ServiceStatus request(const Message &req, Message &response,
                          std::string &error);

    /** The backoff the retry loop would sleep before try @p attempt. */
    i64 backoffMsForAttempt(u32 attempt);

    /**
     * Override the response-frame wait (cluster routers tighten it to
     * the request's remaining deadline so a dead node is detected at
     * request grain, not only by heartbeat).
     */
    void setResponseTimeoutMs(i64 ms) { opts_.responseTimeoutMs = ms; }

    const ClientOptions &options() const { return opts_; }

  private:
    ServiceStatus roundTrip(const Message &request, Message &response,
                            std::string &error);

    ClientOptions opts_;
    Socket sock_;
    Rng jitter_;
};

} // namespace rfv

#endif // RFV_NET_CLIENT_H
