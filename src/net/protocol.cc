#include "net/protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

#include "common/decimal.h"
#include "service/result_cache.h"
#include "service/version.h"

namespace rfv {

namespace {

/**
 * RESULT `seconds` exactly as encodeResult writes it: a finite,
 * non-negative double whose std::to_string is @p text itself.
 */
bool
parseSeconds(const std::string &text, double &out)
{
    double v = 0;
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last || !std::isfinite(v) ||
        std::signbit(v) || std::to_string(v) != text)
        return false;
    out = v;
    return true;
}

} // namespace

const std::string *
Message::find(const std::string &key) const
{
    for (const auto &[k, v] : fields)
        if (k == key)
            return &v;
    return nullptr;
}

std::string
Message::get(const std::string &key, const std::string &fallback) const
{
    const std::string *v = find(key);
    return v ? *v : fallback;
}

bool
Message::getU64(const std::string &key, u64 &out) const
{
    const std::string *v = find(key);
    return v && parseCanonical(*v, out);
}

bool
Message::getI64(const std::string &key, i64 &out) const
{
    const std::string *v = find(key);
    if (!v)
        return false;
    const bool neg = v->starts_with('-');
    const std::optional<u64> mag =
        parseCanonicalU64(std::string_view(*v).substr(neg), 1ull << 62);
    if (!mag || (neg && *mag == 0))
        return false;
    out = neg ? -static_cast<i64>(*mag) : static_cast<i64>(*mag);
    return true;
}

std::vector<std::string>
Message::getAll(const std::string &key) const
{
    std::vector<std::string> out;
    for (const auto &[k, v] : fields)
        if (k == key)
            out.push_back(v);
    return out;
}

std::string
Message::encode() const
{
    std::string out = verb;
    out += '\n';
    for (const auto &[k, v] : fields) {
        out += k;
        out += '=';
        out += v;
        out += '\n';
    }
    out += '\n';
    out += blob;
    return out;
}

bool
Message::decode(const std::string &payload, Message &out,
                std::string &error)
{
    out = Message{};
    size_t pos = 0;

    auto nextLine = [&](std::string &line) -> bool {
        const size_t nl = payload.find('\n', pos);
        if (nl == std::string::npos)
            return false;
        line = payload.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    };

    std::string line;
    if (!nextLine(line) || line.empty()) {
        error = "message has no verb line";
        return false;
    }
    if (line.find('\0') != std::string::npos) {
        error = "NUL byte in verb";
        return false;
    }
    out.verb = line;

    for (;;) {
        if (!nextLine(line)) {
            error = "message not terminated by a blank line";
            return false;
        }
        if (line.empty())
            break; // header/blob separator
        const size_t eq = line.find('=');
        if (eq == std::string::npos || eq == 0) {
            error = "field line without key=value: '" + line + "'";
            return false;
        }
        if (line.find('\0') != std::string::npos) {
            error = "NUL byte in field";
            return false;
        }
        out.fields.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
    out.blob = payload.substr(pos);
    return true;
}

// ---- handshake ---------------------------------------------------------

Message
makeHello()
{
    Message m;
    m.verb = kVerbHello;
    m.addU64("proto_min", kProtoVersionMin);
    m.addU64("proto_max", kProtoVersionMax);
    m.add("sim", kSimulatorVersion);
    return m;
}

Message
makeWelcome(const Message &hello, bool &ok)
{
    ok = false;
    Message m;
    m.verb = kVerbWelcome;
    m.addU64("proto", kProtoVersionMax);
    m.add("sim", kSimulatorVersion);

    u64 protoMin = 0, protoMax = 0;
    if (hello.verb != kVerbHello || !hello.getU64("proto_min", protoMin) ||
        !hello.getU64("proto_max", protoMax) || protoMin > protoMax) {
        m.add("status", serviceStatusName(ServiceStatus::kBadRequest));
        m.add("error", "malformed hello");
        return m;
    }
    const u64 lo = std::max<u64>(protoMin, kProtoVersionMin);
    const u64 hi = std::min<u64>(protoMax, kProtoVersionMax);
    if (lo > hi) {
        m.add("status",
              serviceStatusName(ServiceStatus::kVersionMismatch));
        m.add("error", "no common protocol version (client " +
                           std::to_string(protoMin) + ".." +
                           std::to_string(protoMax) + ", server " +
                           std::to_string(kProtoVersionMin) + ".." +
                           std::to_string(kProtoVersionMax) + ")");
        return m;
    }
    const std::string sim = hello.get("sim");
    if (sim != kSimulatorVersion) {
        m.add("status",
              serviceStatusName(ServiceStatus::kVersionMismatch));
        m.add("error", "simulator version mismatch (client '" + sim +
                           "', server '" + kSimulatorVersion + "')");
        return m;
    }
    // Rewrite the negotiated version (field order: proto was added
    // first, so rebuild).
    m.fields.clear();
    m.addU64("proto", hi);
    m.add("sim", kSimulatorVersion);
    m.add("status", serviceStatusName(ServiceStatus::kOk));
    ok = true;
    return m;
}

bool
checkWelcome(const Message &welcome, std::string &error)
{
    if (welcome.verb != kVerbWelcome) {
        error = "expected WELCOME, got '" + welcome.verb + "'";
        return false;
    }
    ServiceStatus s = ServiceStatus::kInternalError;
    if (!serviceStatusFromName(welcome.get("status"), s)) {
        error = "WELCOME with unparsable status '" +
                welcome.get("status") + "'";
        return false;
    }
    if (s != ServiceStatus::kOk) {
        // Lead with the status name so callers (and logs) can tell a
        // terminal refusal from a transport hiccup at a glance.
        error = std::string(serviceStatusName(s)) + ": " +
                welcome.get("error", "server rejected session");
        return false;
    }
    u64 proto = 0;
    if (!welcome.getU64("proto", proto) || proto < kProtoVersionMin ||
        proto > kProtoVersionMax) {
        error = "server negotiated unsupported protocol version '" +
                welcome.get("proto") + "'";
        return false;
    }
    if (welcome.get("sim") != kSimulatorVersion) {
        error = "simulator version mismatch (server '" +
                welcome.get("sim") + "', client '" + kSimulatorVersion +
                "')";
        return false;
    }
    return true;
}

// ---- RUN ---------------------------------------------------------------

Message
encodeRunRequest(const ServiceRequest &req)
{
    Message m;
    m.verb = kVerbRun;
    m.add("workload", req.workload);
    m.add("config", req.configName);
    for (const auto &[key, value] : req.overrides)
        m.add("set", key + "=" + value);
    if (req.deadlineMs >= 0)
        m.addI64("deadline_ms", req.deadlineMs);
    if (req.ringEpoch != 0)
        m.addU64("ring_epoch", req.ringEpoch);
    return m;
}

ServiceStatus
decodeRunRequest(const Message &msg, ServiceRequest &req,
                 std::string &error)
{
    req = ServiceRequest{};
    if (msg.verb != kVerbRun) {
        error = "expected RUN, got '" + msg.verb + "'";
        return ServiceStatus::kBadRequest;
    }
    req.workload = msg.get("workload");
    if (req.workload.empty()) {
        error = "RUN without workload";
        return ServiceStatus::kBadRequest;
    }
    req.configName = msg.get("config", "baseline");
    for (const std::string &kv : msg.getAll("set")) {
        const size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0) {
            error = "override is not key=value: '" + kv + "'";
            return ServiceStatus::kBadRequest;
        }
        req.overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    }
    if (msg.find("deadline_ms") &&
        !msg.getI64("deadline_ms", req.deadlineMs)) {
        error = "unparsable deadline_ms '" + msg.get("deadline_ms") + "'";
        return ServiceStatus::kBadRequest;
    }
    if (msg.find("ring_epoch") &&
        !msg.getU64("ring_epoch", req.ringEpoch)) {
        error = "unparsable ring_epoch '" + msg.get("ring_epoch") + "'";
        return ServiceStatus::kBadRequest;
    }
    return ServiceStatus::kOk;
}

// ---- RESULT ------------------------------------------------------------

Message
encodeResult(const SweepJobResult &res)
{
    Message m;
    m.verb = kVerbResult;
    m.add("status", serviceStatusName(res.status));
    if (!res.error.empty())
        m.add("error", res.error);
    m.add("from_cache", res.fromCache ? "1" : "0");
    if (!res.key.empty())
        m.add("key", res.key);
    m.add("seconds", std::to_string(res.seconds));
    if (res.ok()) {
        std::ostringstream blob;
        ResultCache::serialize(blob, res.outcome);
        m.blob = blob.str();
    }
    return m;
}

Message
makeErrorResult(ServiceStatus status, const std::string &error)
{
    SweepJobResult res;
    res.status = status;
    res.error = error;
    return encodeResult(res);
}

Message
makeRedirectResult(ServiceStatus status,
                   const std::vector<std::string> &owners, u64 ringEpoch,
                   const std::string &error)
{
    Message m = makeErrorResult(status, error);
    m.addU64("ring_epoch", ringEpoch);
    for (const std::string &owner : owners)
        m.add("owner", owner);
    return m;
}

bool
decodeRedirect(const Message &msg, RedirectInfo &out)
{
    out = RedirectInfo{};
    if (!msg.getU64("ring_epoch", out.ringEpoch))
        return false;
    out.owners = msg.getAll("owner");
    return !out.owners.empty();
}

// ---- STORE (replica push) ----------------------------------------------

Message
encodeStoreRequest(const ServiceRequest &req, const std::string &keyHex,
                   const std::string &outcomeBlob)
{
    Message m = encodeRunRequest(req);
    m.verb = kVerbStore;
    m.add("key", keyHex);
    m.blob = outcomeBlob;
    return m;
}

ServiceStatus
decodeStoreRequest(const Message &msg, ServiceRequest &req,
                   std::string &keyHex, std::string &error)
{
    if (msg.verb != kVerbStore) {
        error = "expected STORE, got '" + msg.verb + "'";
        return ServiceStatus::kBadRequest;
    }
    Message asRun = msg;
    asRun.verb = kVerbRun;
    const ServiceStatus s = decodeRunRequest(asRun, req, error);
    if (s != ServiceStatus::kOk)
        return s;
    keyHex = msg.get("key");
    if (keyHex.empty()) {
        error = "STORE without key";
        return ServiceStatus::kBadRequest;
    }
    if (msg.blob.empty()) {
        error = "STORE without outcome blob";
        return ServiceStatus::kBadRequest;
    }
    return ServiceStatus::kOk;
}

ServiceStatus
decodeResult(const Message &msg, SweepJobResult &res, std::string &error)
{
    res = SweepJobResult{};
    if (msg.verb != kVerbResult) {
        error = "expected RESULT, got '" + msg.verb + "'";
        return ServiceStatus::kBadRequest;
    }
    ServiceStatus s = ServiceStatus::kInternalError;
    if (!serviceStatusFromName(msg.get("status"), s)) {
        error = "RESULT with unparsable status '" + msg.get("status") +
                "'";
        return ServiceStatus::kBadRequest;
    }
    res.status = s;
    res.error = msg.get("error");
    res.fromCache = msg.get("from_cache") == "1";
    res.key = msg.get("key");
    if (!parseSeconds(msg.get("seconds"), res.seconds)) {
        error = "RESULT with unparsable seconds '" + msg.get("seconds") +
                "'";
        res.status = ServiceStatus::kBadRequest;
        return res.status;
    }
    if (s == ServiceStatus::kOk) {
        if (msg.blob.empty()) {
            error = "OK RESULT without outcome blob";
            res.status = ServiceStatus::kBadRequest;
            return res.status;
        }
        try {
            std::istringstream blob(msg.blob);
            res.outcome = ResultCache::deserialize(blob);
        } catch (const std::exception &e) {
            error = std::string("malformed outcome blob: ") + e.what();
            res.status = ServiceStatus::kBadRequest;
            return res.status;
        }
    }
    return res.status;
}

} // namespace rfv
