#include "net/client.h"

#include <thread>

#include "common/framing.h"
#include "common/rng.h"

namespace rfv {

SimdClient::SimdClient(ClientOptions opts)
    // Derive the jitter stream through SeedSeq: callers hand out
    // jitterSeed, jitterSeed+1, ... to sibling clients, and the
    // split keeps those adjacent raw seeds from producing correlated
    // backoff schedules (thundering retries defeat full jitter).
    : opts_(std::move(opts)), jitter_(SeedSeq(opts_.jitterSeed).rng())
{
}

ServiceStatus
SimdClient::connect(std::string &error)
{
    disconnect();
    sock_ = connectTcp(opts_.host, opts_.port,
                       deadlineAfterMs(opts_.connectTimeoutMs));
    if (!sock_.valid()) {
        error = "cannot connect to " + opts_.host + ":" +
                std::to_string(opts_.port);
        return ServiceStatus::kInternalError;
    }

    Message welcome;
    const ServiceStatus s = roundTrip(makeHello(), welcome, error);
    if (s != ServiceStatus::kOk)
        return s;
    if (!checkWelcome(welcome, error)) {
        disconnect();
        return ServiceStatus::kVersionMismatch;
    }
    return ServiceStatus::kOk;
}

ServiceStatus
SimdClient::roundTrip(const Message &request, Message &response,
                      std::string &error)
{
    if (!sock_.valid()) {
        error = "not connected";
        return ServiceStatus::kInternalError;
    }
    if (writeFrame(sock_, request.encode(),
                   deadlineAfterMs(opts_.connectTimeoutMs)) !=
        FrameStatus::kOk) {
        disconnect();
        error = "request send failed";
        return ServiceStatus::kInternalError;
    }
    std::string payload;
    const FrameStatus fs =
        readFrame(sock_, payload, kMaxResponseFrameBytes,
                  opts_.responseTimeoutMs >= 0
                      ? deadlineAfterMs(opts_.responseTimeoutMs)
                      : IoDeadline{});
    if (fs != FrameStatus::kOk) {
        disconnect();
        error = std::string("response receive failed: ") +
                frameStatusName(fs);
        return ServiceStatus::kInternalError;
    }
    if (!Message::decode(payload, response, error)) {
        disconnect();
        return ServiceStatus::kInternalError;
    }
    return ServiceStatus::kOk;
}

ServiceStatus
SimdClient::run(const ServiceRequest &req, SweepJobResult &res,
                std::string &error, Message *rawResponse)
{
    if (!connected()) {
        const ServiceStatus s = connect(error);
        if (s != ServiceStatus::kOk)
            return s;
    }
    Message response;
    const ServiceStatus transport =
        roundTrip(encodeRunRequest(req), response, error);
    if (transport != ServiceStatus::kOk)
        return transport;
    const ServiceStatus s = decodeResult(response, res, error);
    if (rawResponse)
        *rawResponse = std::move(response);
    if (res.error.empty() && !error.empty())
        res.error = error;
    return s;
}

ServiceStatus
SimdClient::request(const Message &req, Message &response,
                    std::string &error)
{
    if (!connected()) {
        const ServiceStatus s = connect(error);
        if (s != ServiceStatus::kOk)
            return s;
    }
    return roundTrip(req, response, error);
}

i64
fullJitterBackoffMs(Rng &rng, u32 attempt, i64 baseMs, i64 capMs)
{
    i64 cap = baseMs;
    for (u32 i = 0; i < attempt && cap < capMs; ++i)
        cap *= 2;
    cap = std::min<i64>(cap, capMs);
    const i64 lo = std::max<i64>(1, baseMs / 2);
    if (cap <= lo)
        return lo;
    return lo + static_cast<i64>(rng.below(static_cast<u64>(cap - lo + 1)));
}

i64
SimdClient::backoffMsForAttempt(u32 attempt)
{
    return fullJitterBackoffMs(jitter_, attempt, opts_.backoffBaseMs,
                               opts_.backoffCapMs);
}

ServiceStatus
SimdClient::runWithRetry(const ServiceRequest &req, SweepJobResult &res,
                         std::string &error, u32 *attempts)
{
    ServiceStatus last = ServiceStatus::kInternalError;
    const u32 maxAttempts = std::max<u32>(1, opts_.maxAttempts);

    // The retry budget is capped by the request's own deadline: the
    // server stops waiting at deadlineMs, so wall time a client
    // spends beyond it — however it is split between backoff sleeps
    // and attempts — can only produce answers nobody is owed.
    const auto t0 = std::chrono::steady_clock::now();
    const auto budgetLeftMs = [&]() -> i64 {
        const i64 elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return req.deadlineMs - elapsed;
    };

    u32 used = 0;
    for (u32 attempt = 0; attempt < maxAttempts; ++attempt) {
        if (attempt > 0) {
            i64 sleepMs = backoffMsForAttempt(attempt);
            if (req.deadlineMs >= 0) {
                const i64 left = budgetLeftMs();
                if (left <= 0)
                    break; // budget exhausted: return the last status
                sleepMs = std::min(sleepMs, left);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sleepMs));
        }
        used = attempt + 1;

        if (!connected()) {
            last = connect(error);
            if (last == ServiceStatus::kVersionMismatch) {
                // A version mismatch is permanent for this binary.
                if (attempts)
                    *attempts = used;
                return last;
            }
            if (last != ServiceStatus::kOk)
                continue; // transport failure: back off and retry
        }

        last = run(req, res, error);
        if (last == ServiceStatus::kOk || !isRetryable(last)) {
            // kInternalError from run() means the transport died
            // mid-request; that is retryable even though the *status*
            // is terminal for a server-side failure.
            const bool transportFailure =
                last == ServiceStatus::kInternalError && !connected();
            if (!transportFailure) {
                if (attempts)
                    *attempts = used;
                return last;
            }
        }
    }
    if (attempts)
        *attempts = used;
    return last;
}

ServiceStatus
SimdClient::stats(Message &out, std::string &error)
{
    if (!connected()) {
        const ServiceStatus s = connect(error);
        if (s != ServiceStatus::kOk)
            return s;
    }
    Message req;
    req.verb = kVerbStats;
    const ServiceStatus transport = roundTrip(req, out, error);
    if (transport != ServiceStatus::kOk)
        return transport;
    if (out.verb != kVerbStats) {
        error = "expected STATS response, got '" + out.verb + "'";
        return ServiceStatus::kBadRequest;
    }
    return ServiceStatus::kOk;
}

} // namespace rfv
