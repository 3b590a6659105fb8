/**
 * @file
 * Wire-protocol unit tests, no sockets involved: frame header codec
 * (round-trip, bad magic, oversize rejection), the key=value Message
 * codec (ordering, repeated keys, binary blobs, structural garbage),
 * the HELLO/WELCOME version negotiation, the RUN/RESULT typed codecs
 * — including bit-exact RunOutcome transport through the ResultCache
 * serialization — a mutation table over every untrusted decimal field
 * (wire, `set=`, manifest and `gen:` name) and the client backoff
 * schedule.
 */
#include <algorithm>
#include <functional>
#include <sstream>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/framing.h"
#include "gen/gen_spec.h"
#include "net/client.h"
#include "net/cluster_ring.h"
#include "net/protocol.h"
#include "service/hash.h"
#include "service/version.h"

namespace rfv {
namespace {

// ---- frame header codec -------------------------------------------------

TEST(Framing, HeaderRoundTrip)
{
    for (u32 len : {0u, 1u, 255u, 256u, 65536u, kMaxRequestFrameBytes}) {
        const std::string hdr = encodeFrameHeader(len);
        ASSERT_EQ(hdr.size(), kFrameHeaderBytes);
        u32 decoded = 0;
        EXPECT_EQ(decodeFrameHeader(hdr.data(), kMaxRequestFrameBytes,
                                    decoded),
                  FrameStatus::kOk)
            << "len=" << len;
        EXPECT_EQ(decoded, len);
    }
}

TEST(Framing, HeaderIsBigEndianMagicPlusLength)
{
    const std::string hdr = encodeFrameHeader(0x01020304u);
    ASSERT_EQ(hdr.size(), 8u);
    EXPECT_EQ(hdr[0], 'R');
    EXPECT_EQ(hdr[1], 'F');
    EXPECT_EQ(hdr[2], 'V');
    EXPECT_EQ(hdr[3], 'F');
    EXPECT_EQ(static_cast<unsigned char>(hdr[4]), 0x01);
    EXPECT_EQ(static_cast<unsigned char>(hdr[5]), 0x02);
    EXPECT_EQ(static_cast<unsigned char>(hdr[6]), 0x03);
    EXPECT_EQ(static_cast<unsigned char>(hdr[7]), 0x04);
}

TEST(Framing, BadMagicIsRejectedBeforeLength)
{
    // A plausible HTTP probe: the length bytes would decode to a huge
    // value, but the magic check must fire first.
    const char probe[kFrameHeaderBytes] = {'G', 'E', 'T', ' ',
                                           '/', ' ', 'H', 'T'};
    u32 len = 0;
    EXPECT_EQ(decodeFrameHeader(probe, kMaxRequestFrameBytes, len),
              FrameStatus::kBadMagic);
}

TEST(Framing, OversizedLengthIsRejected)
{
    const std::string hdr = encodeFrameHeader(kMaxRequestFrameBytes + 1);
    u32 len = 0;
    EXPECT_EQ(decodeFrameHeader(hdr.data(), kMaxRequestFrameBytes, len),
              FrameStatus::kOversized);
    // The same header is fine for a receiver with a larger cap.
    EXPECT_EQ(decodeFrameHeader(hdr.data(), kMaxResponseFrameBytes, len),
              FrameStatus::kOk);
    EXPECT_EQ(len, kMaxRequestFrameBytes + 1);
}

TEST(Framing, EncodeFramePrependsHeader)
{
    const std::string payload = "hello";
    const std::string frame = encodeFrame(payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
    u32 len = 0;
    EXPECT_EQ(decodeFrameHeader(frame.data(), 1024, len),
              FrameStatus::kOk);
    EXPECT_EQ(len, payload.size());
    EXPECT_EQ(frame.substr(kFrameHeaderBytes), payload);
}

// ---- Message codec ------------------------------------------------------

TEST(MessageCodec, RoundTripPreservesOrderDupsAndBlob)
{
    Message m;
    m.verb = kVerbRun;
    m.add("workload", "MatrixMul");
    m.add("set", "numSms=2");
    m.add("set", "roundsPerSm=1");
    m.addI64("deadline_ms", -1);
    m.blob = std::string("\x00\x01\xff\nraw\n\n", 8); // embedded NUL + \n

    Message out;
    std::string error;
    ASSERT_TRUE(Message::decode(m.encode(), out, error)) << error;
    EXPECT_EQ(out.verb, m.verb);
    ASSERT_EQ(out.fields, m.fields);
    EXPECT_EQ(out.blob, m.blob);
    EXPECT_EQ(out.getAll("set"),
              (std::vector<std::string>{"numSms=2", "roundsPerSm=1"}));
    i64 dl = 0;
    EXPECT_TRUE(out.getI64("deadline_ms", dl));
    EXPECT_EQ(dl, -1);
}

TEST(MessageCodec, ValuesMayContainEquals)
{
    Message m;
    m.verb = kVerbRun;
    m.add("set", "label=my=fancy=label");
    Message out;
    std::string error;
    ASSERT_TRUE(Message::decode(m.encode(), out, error)) << error;
    EXPECT_EQ(out.get("set"), "label=my=fancy=label");
}

TEST(MessageCodec, StructuralGarbageIsRejected)
{
    Message out;
    std::string error;
    EXPECT_FALSE(Message::decode("", out, error));
    EXPECT_FALSE(Message::decode("RUN\nno-equals-line\n\n", out, error));
    EXPECT_FALSE(Message::decode("RUN\nkey=value\n", out, error))
        << "missing blank-line terminator must be rejected";
    EXPECT_FALSE(Message::decode(std::string("RU\0N\nk=v\n\n", 10), out,
                                 error))
        << "NUL in the header must be rejected";
    EXPECT_FALSE(Message::decode("\x7f\x03\x01\x08garbage", out, error));
}

TEST(MessageCodec, MissingKeysAreStrict)
{
    Message m;
    m.verb = kVerbResult;
    m.add("count", "12x");
    u64 u = 7;
    EXPECT_FALSE(m.getU64("count", u)) << "trailing junk must fail";
    EXPECT_FALSE(m.getU64("absent", u));
    EXPECT_EQ(m.find("absent"), nullptr);
    EXPECT_EQ(m.get("absent", "fallback"), "fallback");
}

// ---- HELLO / WELCOME negotiation ----------------------------------------

TEST(Handshake, CompatibleClientIsWelcomed)
{
    bool ok = false;
    const Message welcome = makeWelcome(makeHello(), ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(welcome.verb, kVerbWelcome);
    EXPECT_EQ(welcome.get("status"), "OK");
    EXPECT_EQ(welcome.get("sim"), kSimulatorVersion);
    u64 proto = 0;
    ASSERT_TRUE(welcome.getU64("proto", proto));
    EXPECT_EQ(proto, kProtoVersionMax);
    std::string error;
    EXPECT_TRUE(checkWelcome(welcome, error)) << error;
}

TEST(Handshake, DisjointProtocolRangeIsRejected)
{
    Message hello = makeHello();
    for (auto &[key, value] : hello.fields)
        if (key == "proto_min" || key == "proto_max")
            value = std::to_string(kProtoVersionMax + 7);
    bool ok = true;
    const Message welcome = makeWelcome(hello, ok);
    EXPECT_FALSE(ok);
    EXPECT_EQ(welcome.get("status"), "VERSION_MISMATCH");
    std::string error;
    EXPECT_FALSE(checkWelcome(welcome, error));
    EXPECT_NE(error.find("VERSION_MISMATCH"), std::string::npos) << error;
}

TEST(Handshake, ForeignSimulatorVersionIsRejected)
{
    // Results and cache keys are only meaningful between identical
    // simulators, so even a protocol-compatible peer is refused.
    Message hello = makeHello();
    for (auto &[key, value] : hello.fields)
        if (key == "sim")
            value = "rfv-sim-0.0";
    bool ok = true;
    const Message welcome = makeWelcome(hello, ok);
    EXPECT_FALSE(ok);
    EXPECT_EQ(welcome.get("status"), "VERSION_MISMATCH");
}

TEST(Handshake, StructurallyInvalidHelloIsBadRequest)
{
    Message notHello;
    notHello.verb = kVerbStats;
    bool ok = true;
    EXPECT_EQ(makeWelcome(notHello, ok).get("status"), "BAD_REQUEST");
    EXPECT_FALSE(ok);

    Message noVersions;
    noVersions.verb = kVerbHello;
    ok = true;
    EXPECT_EQ(makeWelcome(noVersions, ok).get("status"), "BAD_REQUEST");
    EXPECT_FALSE(ok);
}

// ---- RUN codec ----------------------------------------------------------

TEST(RunCodec, RoundTrip)
{
    ServiceRequest req;
    req.workload = "BFS";
    req.configName = "shrink50";
    req.overrides = {{"numSms", "2"}, {"roundsPerSm", "1"}};
    req.deadlineMs = 2500;

    ServiceRequest out;
    std::string error;
    ASSERT_EQ(decodeRunRequest(encodeRunRequest(req), out, error),
              ServiceStatus::kOk)
        << error;
    EXPECT_EQ(out.workload, req.workload);
    EXPECT_EQ(out.configName, req.configName);
    EXPECT_EQ(out.overrides, req.overrides);
    EXPECT_EQ(out.deadlineMs, req.deadlineMs);
}

TEST(RunCodec, MalformedRequestsGetClientErrorStatuses)
{
    ServiceRequest out;
    std::string error;

    Message noWorkload;
    noWorkload.verb = kVerbRun;
    EXPECT_EQ(decodeRunRequest(noWorkload, out, error),
              ServiceStatus::kBadRequest);

    Message badSet;
    badSet.verb = kVerbRun;
    badSet.add("workload", "BFS");
    badSet.add("set", "no-equals");
    EXPECT_EQ(decodeRunRequest(badSet, out, error),
              ServiceStatus::kBadRequest);

    Message wrongVerb;
    wrongVerb.verb = kVerbStats;
    wrongVerb.add("workload", "BFS");
    EXPECT_EQ(decodeRunRequest(wrongVerb, out, error),
              ServiceStatus::kBadRequest);
}

// ---- RESULT codec -------------------------------------------------------

/** A RunOutcome with awkward bit patterns in every numeric domain. */
RunOutcome
sampleOutcome()
{
    RunOutcome o;
    o.sim.cycles = 123456789;
    o.sim.issuedInstrs = 0xdeadbeef;
    o.energy.dynamicJ = 0.1;  // not representable in binary
    o.energy.staticJ = 1.0 / 3.0;
    o.energy.renameTableJ = 5e-324; // subnormal
    o.compile.staticRegular = 27;
    return o;
}

TEST(ResultCodec, OkResultTransportsOutcomeBitIdentically)
{
    SweepJobResult res;
    res.job.workload = "MatrixMul";
    res.outcome = sampleOutcome();
    res.key = "0123456789abcdef";
    res.fromCache = true;
    res.seconds = 0.25;

    const Message wire = encodeResult(res);
    EXPECT_EQ(wire.verb, kVerbResult);
    EXPECT_FALSE(wire.blob.empty());

    SweepJobResult out;
    std::string error;
    ASSERT_EQ(decodeResult(wire, out, error), ServiceStatus::kOk)
        << error;
    EXPECT_TRUE(out.outcome == res.outcome)
        << "RunOutcome must survive the wire bit-for-bit";
    EXPECT_TRUE(out.fromCache);
    EXPECT_EQ(out.key, res.key);
}

TEST(ResultCodec, ErrorResultCarriesStatusAndDiagnostic)
{
    const Message wire = makeErrorResult(ServiceStatus::kRetryLater,
                                         "admission queue full");
    SweepJobResult out;
    std::string error;
    EXPECT_EQ(decodeResult(wire, out, error),
              ServiceStatus::kRetryLater);
    EXPECT_EQ(out.error, "admission queue full");
    EXPECT_FALSE(out.ok());
}

TEST(ResultCodec, CorruptBlobIsBadRequestNotACrash)
{
    SweepJobResult res;
    res.outcome = sampleOutcome();
    Message wire = encodeResult(res);
    wire.blob = "definitely not a serialized outcome";
    SweepJobResult out;
    std::string error;
    EXPECT_EQ(decodeResult(wire, out, error),
              ServiceStatus::kBadRequest);
    EXPECT_FALSE(error.empty());
}

TEST(ResultCodec, SecondsAcceptsOnlyTheWritersForm)
{
    SweepJobResult res;
    res.status = ServiceStatus::kRetryLater;
    res.seconds = 0.25;
    const Message good = encodeResult(res);
    ASSERT_EQ(good.get("seconds"), "0.250000");
    SweepJobResult out;
    std::string error;
    EXPECT_EQ(decodeResult(good, out, error), ServiceStatus::kRetryLater);
    EXPECT_EQ(out.seconds, 0.25);

    for (const char *bad : {"", "abc", "-1.000000", "nan", "inf", "1e999",
                            "-0.000000", "0.25", "0.250000 ", "+0.250000"}) {
        Message wire = good;
        for (auto &[k, v] : wire.fields)
            if (k == "seconds")
                v = bad;
        error.clear();
        EXPECT_EQ(decodeResult(wire, out, error), ServiceStatus::kBadRequest)
            << "'" << bad << "'";
        EXPECT_NE(error.find("seconds"), std::string::npos) << error;
    }
}

// ---- status taxonomy ----------------------------------------------------

TEST(Status, NamesRoundTrip)
{
    for (ServiceStatus s :
         {ServiceStatus::kOk, ServiceStatus::kBadRequest,
          ServiceStatus::kUnknownWorkload, ServiceStatus::kBadConfig,
          ServiceStatus::kVersionMismatch, ServiceStatus::kRetryLater,
          ServiceStatus::kShuttingDown, ServiceStatus::kNotOwner,
          ServiceStatus::kRedirect,
          ServiceStatus::kDeadlineExceeded, ServiceStatus::kCancelled,
          ServiceStatus::kInternalError}) {
        ServiceStatus back;
        ASSERT_TRUE(serviceStatusFromName(serviceStatusName(s), back));
        EXPECT_EQ(back, s);
    }
    ServiceStatus back;
    EXPECT_FALSE(serviceStatusFromName("NOT_A_STATUS", back));
}

TEST(Status, OnlySheddingAndDrainAreRetryable)
{
    EXPECT_TRUE(isRetryable(ServiceStatus::kRetryLater));
    EXPECT_TRUE(isRetryable(ServiceStatus::kShuttingDown));
    EXPECT_FALSE(isRetryable(ServiceStatus::kOk));
    EXPECT_FALSE(isRetryable(ServiceStatus::kBadConfig));
    EXPECT_FALSE(isRetryable(ServiceStatus::kUnknownWorkload));
    EXPECT_FALSE(isRetryable(ServiceStatus::kVersionMismatch));
    EXPECT_FALSE(isRetryable(ServiceStatus::kDeadlineExceeded));
    EXPECT_FALSE(isRetryable(ServiceStatus::kInternalError));
    // Routing outcomes are not retryable *on the same node* — they
    // re-dispatch to a different node instead (isRerouteable).
    EXPECT_FALSE(isRetryable(ServiceStatus::kNotOwner));
    EXPECT_FALSE(isRetryable(ServiceStatus::kRedirect));
}

TEST(Status, OnlyRoutingOutcomesAreRerouteable)
{
    EXPECT_TRUE(isRerouteable(ServiceStatus::kNotOwner));
    EXPECT_TRUE(isRerouteable(ServiceStatus::kRedirect));
    EXPECT_FALSE(isRerouteable(ServiceStatus::kOk));
    EXPECT_FALSE(isRerouteable(ServiceStatus::kRetryLater));
    EXPECT_FALSE(isRerouteable(ServiceStatus::kShuttingDown));
    EXPECT_FALSE(isRerouteable(ServiceStatus::kInternalError));
}


// ---- cluster codecs ------------------------------------------------------

static HashRing
testRing()
{
    std::vector<RingNode> nodes;
    std::string error;
    EXPECT_TRUE(parseEndpointList(
        "10.0.0.1:7001,10.0.0.2:7002,10.0.0.3:7003", nodes, error))
        << error;
    return HashRing::build(nodes, 64, 2, 7);
}

TEST(HashRing, IsAPureFunctionOfItsInputs)
{
    const HashRing a = testRing();
    const HashRing b = testRing();
    EXPECT_EQ(a, b);
    // Same key, same owners, on independently built rings: that
    // agreement is the routing protocol.
    for (const char *workload : {"BFS", "MatrixMul", "LUD", "NN"}) {
        const Hash128 key{0x1234u ^ workload[0], 0x5678u};
        EXPECT_EQ(a.ownersFor(key), b.ownersFor(key));
    }
}

TEST(HashRing, OwnersAreDistinctPrimaryFirstAndClamped)
{
    const HashRing ring = testRing();
    const Hash128 key{42, 4242};
    const std::vector<u32> owners = ring.ownersFor(key);
    ASSERT_EQ(owners.size(), 2u); // replication 2
    EXPECT_NE(owners[0], owners[1]);
    EXPECT_EQ(ring.primaryFor(key), owners[0]);
    EXPECT_TRUE(ring.owns(ring.nodes()[owners[0]].endpoint(), key));
    EXPECT_TRUE(ring.owns(ring.nodes()[owners[1]].endpoint(), key));

    // Replication beyond the member count clamps to the member count.
    std::vector<RingNode> two;
    std::string error;
    ASSERT_TRUE(parseEndpointList("a:1,b:2", two, error));
    const HashRing clamped = HashRing::build(two, 8, 5, 1);
    EXPECT_EQ(clamped.replication(), 2u);
    EXPECT_EQ(clamped.ownersFor(key).size(), 2u);
}

TEST(HashRing, SpreadsKeysAcrossEveryNode)
{
    const HashRing ring = testRing();
    std::vector<u32> hits(ring.nodes().size(), 0);
    for (u64 i = 0; i < 1000; ++i)
        ++hits[ring.primaryFor(Hash128{i * 0x9e3779b97f4a7c15ull,
                                       i ^ 0xdeadbeefull})];
    for (size_t n = 0; n < hits.size(); ++n)
        EXPECT_GT(hits[n], 100u) << "node " << n << " starved";
}

TEST(HashRing, MalformedEndpointsAndBadGeometryAreRejected)
{
    std::vector<RingNode> nodes;
    std::string error;
    EXPECT_FALSE(parseEndpointList("nocolon", nodes, error));
    EXPECT_FALSE(parseEndpointList("host:notaport", nodes, error));
    EXPECT_FALSE(parseEndpointList("host:0", nodes, error));
    EXPECT_FALSE(parseEndpointList("host:70000", nodes, error));
    EXPECT_FALSE(parseEndpointList("", nodes, error));

    ASSERT_TRUE(parseEndpointList("a:1,a:1", nodes, error));
    EXPECT_THROW(HashRing::build(nodes, 8, 1, 1), ConfigError);
    ASSERT_TRUE(parseEndpointList("a:1,b:2", nodes, error));
    EXPECT_THROW(HashRing::build(nodes, 8, 0, 1), ConfigError);
    EXPECT_THROW(HashRing::build({}, 8, 1, 1), ConfigError);
}

TEST(RunCodec, RingEpochRoundTripsAndDefaultsToZero)
{
    ServiceRequest req;
    req.workload = "BFS";
    req.ringEpoch = 99;
    ServiceRequest out;
    std::string error;
    ASSERT_EQ(decodeRunRequest(encodeRunRequest(req), out, error),
              ServiceStatus::kOk)
        << error;
    EXPECT_EQ(out.ringEpoch, 99u);

    // A v1 client never sends the field; it must decode as 0.
    req.ringEpoch = 0;
    const Message msg = encodeRunRequest(req);
    EXPECT_EQ(msg.find("ring_epoch"), nullptr);
    ASSERT_EQ(decodeRunRequest(msg, out, error), ServiceStatus::kOk);
    EXPECT_EQ(out.ringEpoch, 0u);

    Message bad = encodeRunRequest(req);
    bad.fields.emplace_back("ring_epoch", "eleventy");
    EXPECT_EQ(decodeRunRequest(bad, out, error),
              ServiceStatus::kBadRequest);
}

TEST(RedirectCodec, RoundTripCarriesEpochAndOwners)
{
    const Message msg = makeRedirectResult(
        ServiceStatus::kNotOwner, {"10.0.0.2:7002", "10.0.0.3:7003"}, 7,
        "key is owned by another node");
    SweepJobResult res;
    std::string error;
    EXPECT_EQ(decodeResult(msg, res, error), ServiceStatus::kNotOwner);

    RedirectInfo info;
    ASSERT_TRUE(decodeRedirect(msg, info));
    EXPECT_EQ(info.ringEpoch, 7u);
    ASSERT_EQ(info.owners.size(), 2u);
    EXPECT_EQ(info.owners[0], "10.0.0.2:7002");
    EXPECT_EQ(info.owners[1], "10.0.0.3:7003");
}

TEST(RedirectCodec, MissingEpochOrOwnersIsRejected)
{
    Message noEpoch = makeRedirectResult(ServiceStatus::kRedirect,
                                         {"a:1"}, 3, "drain");
    noEpoch.fields.erase(
        std::remove_if(noEpoch.fields.begin(), noEpoch.fields.end(),
                       [](const auto &kv) {
                           return kv.first == "ring_epoch";
                       }),
        noEpoch.fields.end());
    RedirectInfo info;
    EXPECT_FALSE(decodeRedirect(noEpoch, info));

    Message noOwners = makeRedirectResult(ServiceStatus::kRedirect, {},
                                          3, "drain");
    EXPECT_FALSE(decodeRedirect(noOwners, info));
}

TEST(ClusterCodec, RoundTripRebuildsTheSameRing)
{
    const HashRing ring = testRing();
    const Message msg = encodeClusterInfo(ring, "10.0.0.2:7002");
    EXPECT_EQ(msg.verb, kVerbCluster);

    HashRing back;
    std::string self, error;
    ASSERT_TRUE(decodeClusterInfo(msg, back, self, error)) << error;
    EXPECT_EQ(back, ring);
    EXPECT_EQ(self, "10.0.0.2:7002");
}

TEST(ClusterCodec, EveryTruncatedPrefixFailsCleanly)
{
    // A partial frame — any byte prefix of a valid CLUSTER payload —
    // must be rejected by the codec stack, never crash it.  This is
    // the CLUSTER analogue of the framing fuzz: readFrame already
    // guarantees whole payloads, so the decoders are the last line.
    const std::string payload =
        encodeClusterInfo(testRing(), "10.0.0.1:7001").encode();
    for (size_t n = 0; n < payload.size(); ++n) {
        const std::string prefix = payload.substr(0, n);
        Message msg;
        std::string error;
        if (!Message::decode(prefix, msg, error))
            continue; // structurally dead before the cluster codec
        HashRing ring;
        std::string self;
        EXPECT_FALSE(decodeClusterInfo(msg, ring, self, error))
            << "prefix of " << n << " bytes decoded as a full ring";
    }
}

TEST(ClusterCodec, TamperedFieldsAreRejected)
{
    const HashRing ring = testRing();
    const auto mutate = [&](const char *key, const char *value) {
        Message msg = encodeClusterInfo(ring, "10.0.0.1:7001");
        for (auto &[k, v] : msg.fields)
            if (k == key)
                v = value;
        HashRing back;
        std::string self, error;
        return decodeClusterInfo(msg, back, self, error);
    };
    EXPECT_FALSE(mutate("ring_epoch", "minus-one"));
    EXPECT_FALSE(mutate("replication", "0"));
    EXPECT_FALSE(mutate("vnodes", "0"));
    EXPECT_FALSE(mutate("vnodes", "1000000"));
    EXPECT_FALSE(mutate("self", "not-a-member:9"));
    EXPECT_FALSE(mutate("node", "broken-endpoint"));
}

TEST(StoreCodec, RoundTripCarriesNamingKeyAndBlob)
{
    ServiceRequest req;
    req.workload = "BFS";
    req.configName = "shrink50";
    req.overrides = {{"numSms", "2"}};
    const std::string key = "00112233445566778899aabbccddeeff";
    const std::string blob = std::string("\x00\x01binary\xff", 9);

    const Message msg = encodeStoreRequest(req, key, blob);
    EXPECT_EQ(msg.verb, kVerbStore);

    ServiceRequest out;
    std::string outKey, error;
    ASSERT_EQ(decodeStoreRequest(msg, out, outKey, error),
              ServiceStatus::kOk)
        << error;
    EXPECT_EQ(out.workload, req.workload);
    EXPECT_EQ(out.configName, req.configName);
    EXPECT_EQ(out.overrides, req.overrides);
    EXPECT_EQ(outKey, key);
    EXPECT_EQ(msg.blob, blob);
}

TEST(StoreCodec, MissingKeyOrBlobIsRejected)
{
    ServiceRequest req;
    req.workload = "BFS";
    ServiceRequest out;
    std::string outKey, error;

    Message noKey = encodeStoreRequest(req, "", "blob");
    EXPECT_EQ(decodeStoreRequest(noKey, out, outKey, error),
              ServiceStatus::kBadRequest);

    Message noBlob = encodeStoreRequest(req, "aa", "");
    EXPECT_EQ(decodeStoreRequest(noBlob, out, outKey, error),
              ServiceStatus::kBadRequest);
}

// ---- untrusted decimals --------------------------------------------------

/**
 * One untrusted decimal field.  @p decode feeds it a value through the
 * real entry point and returns the structured error ("" = accepted).
 */
struct DecimalField {
    std::string name;
    std::vector<std::string> accepted; //!< canonical spellings
    std::string overMax;               //!< the field's max + 1
    std::function<std::string(const std::string &)> decode;
};

/** The HELLO with @p key set to the value under test. */
DecimalField
helloField(const std::string &key, const std::string &canonical)
{
    return {"HELLO " + key, {canonical}, "18446744073709551616",
            [key](const std::string &value) {
                Message hello = makeHello();
                for (auto &[k, v] : hello.fields)
                    if (k == key)
                        v = value;
                bool ok = false;
                const Message welcome = makeWelcome(hello, ok);
                return ok ? std::string() : welcome.get("status") + ": " +
                                                welcome.get("error");
            }};
}

/** A RUN for BFS carrying @p key = the value under test. */
DecimalField
runField(const std::string &key, std::vector<std::string> accepted,
         const std::string &overMax)
{
    return {"RUN " + key, std::move(accepted), overMax,
            [key](const std::string &value) {
                ServiceRequest req;
                req.workload = "BFS";
                Message run = encodeRunRequest(req);
                run.add(key, value);
                std::string error;
                return decodeRunRequest(run, req, error) ==
                               ServiceStatus::kOk
                           ? std::string()
                           : error;
            }};
}

/** The CLUSTER reply with its first @p key set to @p prefix + value. */
DecimalField
clusterField(const std::string &key, const std::string &prefix,
             const std::string &canonical, const std::string &overMax)
{
    return {"CLUSTER " + key, {canonical}, overMax,
            [key, prefix](const std::string &value) {
                Message msg = encodeClusterInfo(testRing(), "10.0.0.2:7002");
                for (auto &[k, v] : msg.fields)
                    if (k == key) {
                        v = prefix + value;
                        break;
                    }
                HashRing ring;
                std::string self, error;
                return decodeClusterInfo(msg, ring, self, error) ? ""
                                                                 : error;
            }};
}

/** A gen: name whose '@' is the value under test. */
DecimalField
genField(const std::string &pattern, const std::string &canonical,
         const std::string &overMax)
{
    return {"gen " + pattern, {canonical}, overMax,
            [pattern](const std::string &value) {
                std::string name = pattern;
                name.replace(name.find('@'), 1, value);
                GenSpec spec;
                std::string error;
                return GenSpec::parse(name, spec, error) ? "" : error;
            }};
}

TEST(UntrustedDecimals, EveryEntryPointRejectsEveryMutation)
{
    const std::string u32Over = "4294967296";
    const std::string u64Over = "18446744073709551616";
    const std::string genTail = ":d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4:p3.17";
    const std::vector<DecimalField> fields = {
        helloField("proto_min", "1"),
        helloField("proto_max", "2"),
        runField("ring_epoch", {"7"}, u64Over),
        // Signed: a canonical negative is a value, not a mutation.
        runField("deadline_ms", {"2500", "-1", "0"}, "4611686018427387905"),
        clusterField("ring_epoch", "", "7", u64Over),
        clusterField("replication", "", "2", u32Over),
        clusterField("vnodes", "", "64", "4097"),
        clusterField("node", "10.0.0.1:", "7001", "65536"),
        {"set= numSms", {"4"}, u32Over,
         [](const std::string &value) {
             RunConfig cfg = RunConfig::baseline();
             std::string error;
             return applyConfigOverride(cfg, "numSms", value, error) ==
                            ServiceStatus::kOk
                        ? ""
                        : error;
         }},
        // Whitespace separates manifest tokens, so "1 " is just "1".
        {"manifest numSms", {"4", "1 "}, u32Over,
         [](const std::string &value) {
             std::istringstream in("BFS baseline numSms=" + value + "\n");
             const std::vector<ManifestEntry> entries =
                 parseManifest(in, "m.txt");
             return entries.size() == 1 &&
                            entries[0].status == ServiceStatus::kOk
                        ? ""
                        : entries.at(0).error;
         }},
        genField("gen:s@" + genTail, "5", u64Over),
        genField("gen:s5:d@:b8:r16:l4:w2.3.3:a0:x01:g8x64x4", "2", u32Over),
        genField("gen:s5:d2:b@:r16:l4:w2.3.3:a0:x01:g8x64x4", "8", u32Over),
        genField("gen:s5:d2:b8:r@:l4:w2.3.3:a0:x01:g8x64x4", "16", u32Over),
        genField("gen:s5:d2:b8:r16:l@:w2.3.3:a0:x01:g8x64x4", "4", u32Over),
        genField("gen:s5:d2:b8:r16:l4:w@.3.3:a0:x01:g8x64x4", "2", u32Over),
        genField("gen:s5:d2:b8:r16:l4:w2.@.3:a0:x01:g8x64x4", "3", u32Over),
        genField("gen:s5:d2:b8:r16:l4:w2.3.@:a0:x01:g8x64x4", "3", u32Over),
        genField("gen:s5:d2:b8:r16:l4:w2.3.3:a@:x01:g8x64x4", "0", u32Over),
        genField("gen:s5:d2:b8:r16:l4:w2.3.3:a0:x01:g@x64x4", "8", u32Over),
        genField("gen:s5:d2:b8:r16:l4:w2.3.3:a0:x01:g8x@x4", "64", u32Over),
        genField("gen:s5:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x@", "4", u32Over),
        genField("gen:s5:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4:p@.17", "3",
                 u32Over),
    };
    const std::vector<std::string> mutations = {
        "",    "-1",  "+1",  "01", "1 ", "0x1", u64Over,
        "30000000000000000000",
    };
    for (const DecimalField &f : fields) {
        for (const std::string &value : f.accepted)
            EXPECT_EQ(f.decode(value), "") << f.name << " '" << value << "'";
        std::vector<std::string> bad = mutations;
        bad.push_back(f.overMax);
        for (const std::string &value : bad) {
            if (std::find(f.accepted.begin(), f.accepted.end(), value) !=
                f.accepted.end())
                continue;
            EXPECT_NE(f.decode(value), "")
                << f.name << " accepted '" << value << "'";
        }
    }
}

// ---- client backoff schedule --------------------------------------------

TEST(Backoff, FullJitterStaysInsideTheEnvelope)
{
    ClientOptions opts;
    opts.backoffBaseMs = 100;
    opts.backoffCapMs = 1000;
    SimdClient client(opts);
    for (u32 attempt = 0; attempt < 12; ++attempt) {
        const i64 ms = client.backoffMsForAttempt(attempt);
        EXPECT_GE(ms, opts.backoffBaseMs / 2) << "attempt " << attempt;
        EXPECT_LE(ms, opts.backoffCapMs) << "attempt " << attempt;
    }
}

TEST(Backoff, DeterministicForAFixedSeedAndJittersAcrossSeeds)
{
    ClientOptions a;
    a.jitterSeed = 42;
    ClientOptions b = a;
    ClientOptions c = a;
    c.jitterSeed = 43;
    SimdClient ca(a), cb(b), cc(c);
    // backoffMsForAttempt draws from the jitter stream, so call each
    // client exactly once per attempt and compare the sequences.
    bool anyDiffer = false;
    for (u32 attempt = 0; attempt < 8; ++attempt) {
        const i64 va = ca.backoffMsForAttempt(attempt);
        const i64 vb = cb.backoffMsForAttempt(attempt);
        const i64 vc = cc.backoffMsForAttempt(attempt);
        EXPECT_EQ(va, vb) << "attempt " << attempt;
        anyDiffer |= va != vc;
    }
    EXPECT_TRUE(anyDiffer) << "different seeds should jitter apart";
}

} // namespace
} // namespace rfv
