/**
 * @file
 * End-to-end tests of the `simd` daemon over real loopback sockets:
 * served results are bit-identical to local Simulator runs, repeat
 * requests hit the shared ResultCache, malformed frames and garbage
 * messages never take the process down, version-mismatched peers are
 * refused at the handshake, deadlines expire with DEADLINE_EXCEEDED,
 * a full admission queue sheds with RETRY_LATER, a draining server
 * answers SHUTTING_DOWN, and stop() and the idle reaper end sessions
 * at once — with the STATS counters reconciling against everything
 * the client observed.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread> // std::this_thread::sleep_for only

#include <unistd.h>

#include "common/framing.h"
#include "common/socket.h"
#include "common/sync.h"
#include "core/simulator.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads/workload.h"

namespace rfv {
namespace {

class TempCacheDir {
  public:
    TempCacheDir()
        : path_((std::filesystem::temp_directory_path() /
                 ("rfv-test-simd-" + std::to_string(::getpid())))
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
smallRequest()
{
    ServiceRequest req;
    req.workload = "MatrixMul";
    req.configName = "shrink50";
    req.overrides = {{"numSms", "1"}, {"roundsPerSm", "1"}};
    return req;
}

ClientOptions
clientFor(const SimdServer &server)
{
    ClientOptions opts;
    opts.port = server.port();
    return opts;
}

u64
counter(SimdServer &server, const std::string &key)
{
    u64 v = 0;
    EXPECT_TRUE(server.statsMessage().getU64(key, v)) << key;
    return v;
}

/** The keys of one STATS response, in wire order. */
std::vector<std::string>
statsKeys(SimdServer &server)
{
    std::vector<std::string> keys;
    for (const auto &[key, value] : server.statsMessage().fields)
        keys.push_back(key);
    return keys;
}

TEST(SimdService, StatsKeysAreAWireContract)
{
    // CI's awk checks, simd_client --stats readers and perfbench look
    // these names up; a standalone server lists no cluster keys.
    SimdServer server(ServerOptions{});
    const std::vector<std::string> expected{
        "sim_version",          "proto_version",
        "uptime_seconds",       "connections_accepted",
        "connections_rejected", "connections_reaped",
        "bad_frames",           "requests_accepted",
        "requests_shed",        "requests_shutdown",
        "requests_ok",          "requests_failed",
        "requests_timed_out",   "stats_requests",
        "served_from_cache",    "queue_depth",
        "queue_high_water",     "cache_memory_hits",
        "cache_disk_hits",      "cache_misses",
        "cache_stores",         "cache_bad_entries",
        "cache_evictions",      "cache_memory_bytes",
        "cache_write_behind_depth", "cache_write_behind_drops",
        "aggregate_cycles",     "aggregate_instrs",
        "cycles_per_sec"};
    EXPECT_EQ(statsKeys(server), expected);
}

TEST(SimdService, ServedResultIsBitIdenticalToLocalRun)
{
    TempCacheDir dir;
    ServerOptions sopts;
    sopts.sweep.cacheDir = dir.path();
    SimdServer server(sopts);
    server.start();
    ASSERT_NE(server.port(), 0);

    SimdClient client(clientFor(server));
    SweepJobResult served;
    std::string error;
    ASSERT_EQ(client.run(smallRequest(), served, error),
              ServiceStatus::kOk)
        << error;
    EXPECT_FALSE(served.fromCache);

    // The exact same job simulated locally, bypassing the service.
    SweepJob job;
    ASSERT_EQ(buildJob(smallRequest(), job, error), ServiceStatus::kOk);
    const RunOutcome local =
        Simulator(job.config).runWorkload(*findWorkload(job.workload));
    EXPECT_TRUE(served.outcome == local)
        << "served outcome diverged from a local Simulator run";

    // Second request: served from the cache, still bit-identical,
    // on the same connection.
    SweepJobResult cached;
    ASSERT_EQ(client.run(smallRequest(), cached, error),
              ServiceStatus::kOk)
        << error;
    EXPECT_TRUE(cached.fromCache);
    EXPECT_TRUE(cached.outcome == local);
    EXPECT_EQ(cached.key, served.key);

    EXPECT_EQ(counter(server, "requests_ok"), 2u);
    EXPECT_EQ(counter(server, "served_from_cache"), 1u);
    server.stop();
}

TEST(SimdService, BadRequestsGetStructuredErrorsNotDisconnects)
{
    ServerOptions sopts;
    sopts.sweep.useCache = false;
    SimdServer server(sopts);
    server.start();

    SimdClient client(clientFor(server));
    SweepJobResult res;
    std::string error;

    ServiceRequest unknown = smallRequest();
    unknown.workload = "NoSuchWorkload";
    EXPECT_EQ(client.run(unknown, res, error),
              ServiceStatus::kUnknownWorkload);

    ServiceRequest badConfig = smallRequest();
    badConfig.configName = "warp-drive";
    EXPECT_EQ(client.run(badConfig, res, error),
              ServiceStatus::kBadConfig);

    ServiceRequest badOverride = smallRequest();
    badOverride.overrides = {{"numSms", "minus-four"}};
    EXPECT_EQ(client.run(badOverride, res, error),
              ServiceStatus::kBadConfig);

    // The connection survived all three rejections.
    EXPECT_EQ(client.run(smallRequest(), res, error),
              ServiceStatus::kOk)
        << error;
    EXPECT_EQ(counter(server, "requests_failed"), 3u);
    server.stop();
}

TEST(SimdService, MalformedFramesDoNotKillTheServer)
{
    ServerOptions sopts;
    sopts.sweep.useCache = false;
    SimdServer server(sopts);
    server.start();

    const IoDeadline dl = deadlineAfterMs(5000);

    { // Garbage bytes instead of a frame header.
        Socket raw = connectTcp("127.0.0.1", server.port(), dl);
        ASSERT_TRUE(raw.valid());
        const char junk[] = "GET / HTTP/1.1\r\n\r\n";
        ASSERT_EQ(raw.writeAll(junk, sizeof junk - 1, dl), IoStatus::kOk);
        std::string reply; // server may answer with an ERROR frame
        readFrame(raw, reply, kMaxResponseFrameBytes, dl);
    }
    { // Valid frame, garbage payload (fails Message::decode).
        Socket raw = connectTcp("127.0.0.1", server.port(), dl);
        ASSERT_TRUE(raw.valid());
        ASSERT_EQ(writeFrame(raw, makeHello().encode(), dl),
                  FrameStatus::kOk);
        std::string welcome;
        ASSERT_EQ(readFrame(raw, welcome, kMaxResponseFrameBytes, dl),
                  FrameStatus::kOk);
        ASSERT_EQ(writeFrame(raw, "no verb terminator", dl),
                  FrameStatus::kOk);
        std::string reply;
        readFrame(raw, reply, kMaxResponseFrameBytes, dl);
    }
    { // Oversized declared length: connection dropped, process fine.
        Socket raw = connectTcp("127.0.0.1", server.port(), dl);
        ASSERT_TRUE(raw.valid());
        const std::string hdr =
            encodeFrameHeader(kMaxRequestFrameBytes + 1);
        ASSERT_EQ(raw.writeAll(hdr.data(), hdr.size(), dl),
                  IoStatus::kOk);
        std::string reply;
        readFrame(raw, reply, kMaxResponseFrameBytes, dl);
    }

    // A well-behaved client still gets service afterwards.
    SimdClient client(clientFor(server));
    SweepJobResult res;
    std::string error;
    EXPECT_EQ(client.run(smallRequest(), res, error), ServiceStatus::kOk)
        << error;
    EXPECT_GE(counter(server, "bad_frames"), 2u);
    server.stop();
}

TEST(SimdService, VersionMismatchIsRefusedAtHandshake)
{
    ServerOptions sopts;
    sopts.sweep.useCache = false;
    SimdServer server(sopts);
    server.start();

    const IoDeadline dl = deadlineAfterMs(5000);
    Socket raw = connectTcp("127.0.0.1", server.port(), dl);
    ASSERT_TRUE(raw.valid());

    Message hello = makeHello();
    for (auto &[key, value] : hello.fields)
        if (key == "sim")
            value = "rfv-sim-0.0";
    ASSERT_EQ(writeFrame(raw, hello.encode(), dl), FrameStatus::kOk);

    std::string payload;
    ASSERT_EQ(readFrame(raw, payload, kMaxResponseFrameBytes, dl),
              FrameStatus::kOk);
    Message welcome;
    std::string error;
    ASSERT_TRUE(Message::decode(payload, welcome, error)) << error;
    EXPECT_EQ(welcome.get("status"), "VERSION_MISMATCH");

    // The real client treats this as terminal, not retryable.
    SimdClient fine(clientFor(server));
    EXPECT_EQ(fine.connect(error), ServiceStatus::kOk) << error;
    server.stop();
}

TEST(SimdService, QueueFullShedsWithRetryLater)
{
    // One executor held hostage + capacity-1 queue: the first request
    // occupies the executor, the second fills the queue, the third
    // must be shed with RETRY_LATER.
    Mutex mu;
    CondVar cv;
    bool release = false;
    std::atomic<u32> entered{0};

    ServerOptions sopts;
    sopts.sweep.useCache = false;
    sopts.executors = 1;
    sopts.queueCapacity = 1;
    sopts.executeHook = [&] {
        entered.fetch_add(1);
        MutexLock lock(mu);
        while (!release)
            cv.wait(lock);
    };
    SimdServer server(sopts);
    server.start();

    auto submit = [&](SweepJobResult &res, std::string &error) {
        SimdClient client(clientFor(server));
        return client.run(smallRequest(), res, error);
    };

    SweepJobResult r1, r2, r3;
    std::string e1, e2, e3;
    Thread t1([&] { submit(r1, e1); });
    // Wait until request 1 is *executing* (hook entered) so requests
    // 2/3 deterministically land in the queue behind it.
    while (entered.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Thread t2([&] { submit(r2, e2); });
    while (counter(server, "queue_depth") < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    ServiceStatus s3 = submit(r3, e3);
    EXPECT_EQ(s3, ServiceStatus::kRetryLater);
    EXPECT_NE(r3.error.find("queue full"), std::string::npos)
        << r3.error;

    {
        MutexLock lock(mu);
        release = true;
    }
    cv.notifyAll();
    t1.join();
    t2.join();

    EXPECT_EQ(counter(server, "requests_shed"), 1u);
    EXPECT_EQ(counter(server, "queue_high_water"), 1u);

    // After the executor drains, a retry succeeds — the exact loop a
    // backoff-driven client performs.
    SweepJobResult r4;
    std::string e4;
    EXPECT_EQ(submit(r4, e4), ServiceStatus::kOk) << e4;
    server.stop();
}

TEST(SimdService, DeadlineExpiryAnswersDeadlineExceeded)
{
    Mutex mu;
    CondVar cv;
    bool release = false;
    std::atomic<u32> entered{0};

    ServerOptions sopts;
    sopts.sweep.useCache = false;
    sopts.executors = 1;
    sopts.executeHook = [&] {
        entered.fetch_add(1);
        MutexLock lock(mu);
        while (!release)
            cv.wait(lock);
    };
    SimdServer server(sopts);
    server.start();

    // Hold the executor with a no-deadline request...
    SweepJobResult hostage;
    std::string hostageErr;
    Thread t([&] {
        SimdClient client(clientFor(server));
        client.run(smallRequest(), hostage, hostageErr);
    });
    while (entered.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // ...so this 50 ms-deadline request expires while queued.
    ServiceRequest rushed = smallRequest();
    rushed.deadlineMs = 50;
    SimdClient client(clientFor(server));
    SweepJobResult res;
    std::string error;
    EXPECT_EQ(client.run(rushed, res, error),
              ServiceStatus::kDeadlineExceeded);

    {
        MutexLock lock(mu);
        release = true;
    }
    cv.notifyAll();
    t.join();
    EXPECT_GE(counter(server, "requests_timed_out"), 1u);
    server.stop();
}

TEST(SimdService, HugeDeadlineSaturatesInsteadOfOverflowing)
{
    // The RUN codec accepts deadline_ms up to 2^62; turned into a
    // nanosecond time point unclamped, it overflows the clock (a
    // wrapped deadline of "now" that expires at once).
    const i64 huge = 1ll << 62;
    const auto before = std::chrono::steady_clock::now();
    const IoDeadline dl = deadlineAfterMs(huge);
    ASSERT_TRUE(dl.has_value());
    EXPECT_GT(*dl, before + std::chrono::hours(24));

    ServerOptions sopts;
    sopts.sweep.useCache = false;
    SimdServer server(sopts);
    server.start();
    ServiceRequest req = smallRequest();
    req.deadlineMs = huge; // deadline_ms=4611686018427387904 on the wire
    SimdClient client(clientFor(server));
    SweepJobResult res;
    std::string error;
    EXPECT_EQ(client.run(req, res, error), ServiceStatus::kOk) << error;
    EXPECT_EQ(counter(server, "requests_timed_out"), 0u);
    server.stop();
}

TEST(SimdService, ConcurrentClientsReconcileWithStats)
{
    TempCacheDir dir;
    ServerOptions sopts;
    sopts.sweep.cacheDir = dir.path();
    sopts.executors = 2;
    SimdServer server(sopts);
    server.start();

    // 8 threads x 4 requests over 4 distinct jobs: 4 misses total,
    // everything else served from cache (memory or disk).
    const u32 kThreads = 8, kPerThread = 4;
    std::atomic<u64> okCount{0};
    std::vector<Thread> threads;
    for (u32 tid = 0; tid < kThreads; ++tid) {
        threads.emplace_back([&, tid] {
            ClientOptions copts = clientFor(server);
            copts.jitterSeed = 0x5eed + tid;
            SimdClient client(copts);
            for (u32 i = 0; i < kPerThread; ++i) {
                ServiceRequest req = smallRequest();
                req.overrides = {
                    {"numSms", std::to_string(1 + (tid + i) % 4)},
                    {"roundsPerSm", "1"}};
                SweepJobResult res;
                std::string error;
                if (client.runWithRetry(req, res, error) ==
                    ServiceStatus::kOk)
                    okCount.fetch_add(1);
            }
        });
    }
    for (Thread &t : threads)
        t.join();

    EXPECT_EQ(okCount.load(), kThreads * kPerThread);
    const u64 ok = counter(server, "requests_ok");
    const u64 fromCache = counter(server, "served_from_cache");
    EXPECT_EQ(ok, kThreads * kPerThread);
    // Reconciliation: every OK request either hit the cache (a memory
    // or disk hit) or simulated live (a miss followed by a store).
    EXPECT_EQ(counter(server, "cache_memory_hits") +
                  counter(server, "cache_disk_hits"),
              fromCache);
    EXPECT_EQ(counter(server, "cache_misses"), ok - fromCache);
    // 4 distinct jobs: at least one live run each, and concurrent cold
    // misses cannot re-simulate everything.
    EXPECT_GE(ok - fromCache, 4u);
    EXPECT_GE(fromCache, 1u);
    EXPECT_EQ(counter(server, "requests_failed"), 0u);
    EXPECT_EQ(counter(server, "connections_accepted"), kThreads);
    server.stop();
}

TEST(SimdService, DrainingServerAnswersShuttingDownAndStops)
{
    Mutex mu;
    CondVar cv;
    bool release = false;
    std::atomic<u32> entered{0};

    ServerOptions sopts;
    sopts.sweep.useCache = false;
    sopts.executors = 1;
    sopts.executeHook = [&] {
        entered.fetch_add(1);
        MutexLock lock(mu);
        while (!release)
            cv.wait(lock);
    };
    SimdServer server(sopts);
    server.start();

    // An admitted request rides out the drain and still succeeds.
    SweepJobResult admitted;
    std::string admittedErr;
    ServiceStatus admittedStatus = ServiceStatus::kInternalError;
    Thread t([&] {
        SimdClient client(clientFor(server));
        admittedStatus = client.run(smallRequest(), admitted,
                                    admittedErr);
    });
    while (entered.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Open a session *before* stop() so the drain check — not a
    // refused connection — produces the answer.
    SimdClient lateClient(clientFor(server));
    std::string error;
    ASSERT_EQ(lateClient.connect(error), ServiceStatus::kOk) << error;

    Thread stopper([&] { server.stop(); });
    // stop() blocks until the hostage releases; give the drain flag a
    // moment to propagate, then submit on the pre-drain session.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    SweepJobResult shed;
    const ServiceStatus lateStatus =
        lateClient.run(smallRequest(), shed, error);

    {
        MutexLock lock(mu);
        release = true;
    }
    cv.notifyAll();
    t.join();
    stopper.join();

    EXPECT_EQ(lateStatus, ServiceStatus::kShuttingDown);
    EXPECT_EQ(admittedStatus, ServiceStatus::kOk) << admittedErr;
    EXPECT_FALSE(server.running());

    // stop() is idempotent, and a stopped server refuses connections.
    server.stop();
    SimdClient refused(clientFor(server));
    EXPECT_NE(refused.connect(error), ServiceStatus::kOk);
}

TEST(SimdService, StopWakesIdleConnections)
{
    // stop() wakes the accept loop and every idle session with
    // shutdown(2), so no part of the drain waits for a timer tick.
    ServerOptions sopts;
    sopts.sweep.useCache = false;
    SimdServer server(sopts);
    server.start();

    std::vector<std::unique_ptr<SimdClient>> clients;
    std::string error;
    for (int i = 0; i < 3; ++i) {
        ClientOptions copts = clientFor(server);
        copts.responseTimeoutMs = 5000; // a hang fails as "timed-out"
        clients.push_back(std::make_unique<SimdClient>(copts));
        ASSERT_EQ(clients.back()->connect(error), ServiceStatus::kOk)
            << error;
    }

    const auto t0 = std::chrono::steady_clock::now();
    server.stop();
    const auto stopMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(stopMs, 100) << "stop() waited for a poll tick";

    // Every session was ended: the next request fails on the
    // transport at once instead of waiting for an answer.
    for (auto &client : clients) {
        SweepJobResult res;
        EXPECT_EQ(client->run(smallRequest(), res, error),
                  ServiceStatus::kInternalError);
        EXPECT_EQ(error.find("timed-out"), std::string::npos) << error;
        EXPECT_FALSE(client->connected());
    }
}

TEST(SimdService, IdleConnectionIsReaped)
{
    ServerOptions sopts;
    sopts.sweep.useCache = false;
    sopts.idleTimeoutMs = 50;
    SimdServer server(sopts);
    server.start();

    SimdClient client(clientFor(server));
    std::string error;
    ASSERT_EQ(client.connect(error), ServiceStatus::kOk) << error;
    while (counter(server, "connections_reaped") == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(counter(server, "connections_reaped"), 1u);

    // The reaped session reads EOF: one transport error, after which
    // the same client reconnects and is served.
    SweepJobResult res;
    EXPECT_EQ(client.run(smallRequest(), res, error),
              ServiceStatus::kInternalError);
    EXPECT_FALSE(client.connected());
    EXPECT_EQ(client.run(smallRequest(), res, error), ServiceStatus::kOk)
        << error;
    server.stop();
}

} // namespace
} // namespace rfv
