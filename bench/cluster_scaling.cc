/**
 * @file
 * Cluster scaling benchmark: the full 16-workload x 3-config manifest
 * dispatched through the ClusterCoordinator against 1-, 2- and 3-node
 * in-process clusters (real loopback sockets, ephemeral ports,
 * separate cache directories per node), cold and warm.
 *
 * Every routed outcome — on every cluster size, cold and warm — is
 * cross-checked for field-wise equality with a serial local Simulator
 * loop, so the scaling numbers are for *identical* results; a cluster
 * that answered faster by answering differently fails the run.
 *
 * Emits BENCH_cluster.json.  `--check=FILE` compares against a
 * committed report and fails (exit 1) when the 3-node/1-node scaling
 * ratio regressed relative to it (15% tolerance cold, 40% warm — the
 * warm passes are a few milliseconds of pure cache-hit RTT, so their
 * ratio is inherently noisier even as a min-of-reps), or a warm pass
 * missed the cache.  Ratios are wall-time fractions measured in one
 * process on one host, so the gate is stable across machine
 * generations; the committed baseline records its hardware thread
 * count — on a single-core host all nodes share that core, so
 * scaling beyond 1.0x only appears with real parallel hardware.
 *
 * Usage:
 *   cluster_scaling [--quick] [--sms=N] [--rounds=N] [--threads=N]
 *                   [--executors=N] [--reps=N] [--out=FILE]
 *                   [--check=FILE]
 */
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/error.h"
#include "common/sync.h"
#include "examples/cli.h"
#include "core/simulator.h"
#include "net/cluster_coordinator.h"
#include "net/server.h"
#include "service/version.h"

using namespace rfv;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

double
readNumber(const std::string &path, const char *key)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open baseline report " << path << "\n";
        std::exit(2);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::string needle = std::string("\"") + key + "\": ";
    const size_t at = text.find(needle);
    panicIf(at == std::string::npos,
            std::string("missing key in report: ") + key);
    return std::stod(text.substr(at + needle.size()));
}

/** One N-node loopback cluster, joined and ready to route. */
struct TestCluster {
    std::vector<std::unique_ptr<SimdServer>> servers;
    std::vector<std::string> endpoints;
    std::vector<std::string> cacheDirs;

    TestCluster(u32 nodes, u32 executors, const std::string &tag)
    {
        for (u32 i = 0; i < nodes; ++i) {
            cacheDirs.push_back(
                (std::filesystem::temp_directory_path() /
                 ("rfv-cluster-bench-" + tag + "-n" +
                  std::to_string(i)))
                    .string());
            std::filesystem::remove_all(cacheDirs.back());
            ServerOptions sopts;
            sopts.executors = executors;
            sopts.queueCapacity = 256;
            sopts.sweep.cacheDir = cacheDirs.back();
            servers.push_back(std::make_unique<SimdServer>(sopts));
            servers.back()->start();
            endpoints.push_back(
                "127.0.0.1:" +
                std::to_string(servers.back()->port()));
        }
        ClusterConfig cfg;
        cfg.nodes = endpoints;
        cfg.replication = std::min<u32>(2, nodes);
        for (u32 i = 0; i < nodes; ++i) {
            cfg.self = endpoints[i];
            servers[i]->configureCluster(cfg);
        }
    }

    ~TestCluster()
    {
        for (auto &s : servers)
            s->stop();
        for (const std::string &dir : cacheDirs)
            std::filesystem::remove_all(dir);
    }
};

/**
 * Dispatch the whole manifest through @p coordinator on @p threads
 * concurrent workers; returns wall seconds and fills results.
 */
double
dispatchAll(ClusterCoordinator &coordinator,
            const std::vector<ServiceRequest> &requests, u32 threads,
            std::vector<SweepJobResult> &results)
{
    results.assign(requests.size(), SweepJobResult{});
    std::atomic<size_t> next{0};
    const double t0 = now();
    auto worker = [&]() {
        for (;;) {
            // relaxed: the claim counter only partitions indices;
            // results[i] has one writer, read after the joins.
            const size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= requests.size())
                return;
            std::string error;
            results[i].status =
                coordinator.run(requests[i], results[i], error);
            panicIf(results[i].status != ServiceStatus::kOk,
                    "cluster dispatch failed on " +
                        requests[i].workload + ": " + error);
        }
    };
    std::vector<Thread> pool;
    const u32 n = std::max(1u, threads);
    for (u32 w = 1; w < n; ++w)
        pool.emplace_back(worker);
    worker();
    for (Thread &t : pool)
        t.join();
    return now() - t0;
}

} // namespace

int
main(int argc, char **argv)
{
    u32 sms = 4, rounds = 3, threads = 4, executors = 1, reps = 3;
    std::string out_path = "BENCH_cluster.json";
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg == "--quick")
            rounds = 1;
        else if (arg.rfind("--sms=", 0) == 0)
            ok = parseCanonical(arg.substr(6), sms);
        else if (arg.rfind("--rounds=", 0) == 0)
            ok = parseCanonical(arg.substr(9), rounds);
        else if (arg.rfind("--threads=", 0) == 0)
            ok = parseCanonical(arg.substr(10), threads, kMaxWorkers);
        else if (arg.rfind("--executors=", 0) == 0)
            ok = parseCanonical(arg.substr(12), executors, kMaxWorkers);
        else if (arg.rfind("--reps=", 0) == 0)
            ok = parseCanonical(arg.substr(7), reps);
        else if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else if (arg.rfind("--check=", 0) == 0)
            check_path = arg.substr(8);
        else if (arg == "--help" || arg == "-h") {
            std::cout << "options: --quick --sms=N --rounds=N "
                         "--threads=N --executors=N --reps=N "
                         "--out=FILE --check=FILE\n";
            return 0;
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return 2;
        }
        if (!ok) {
            std::cerr << "unparsable value in " << arg << "\n";
            return 2;
        }
    }
    reps = std::max(1u, reps);

    // The `--default` 48-job manifest, expressed as wire requests (the
    // coordinator resolves configs itself).
    std::vector<ServiceRequest> requests;
    std::vector<SweepJob> manifest;
    for (const ManifestEntry &e : defaultManifest()) {
        ServiceRequest req;
        req.workload = e.workload;
        req.configName = e.configName;
        req.overrides = {{"numSms", std::to_string(sms)},
                         {"roundsPerSm", std::to_string(rounds)}};
        SweepJob job;
        std::string error;
        panicIf(buildJob(req, job, error) != ServiceStatus::kOk,
                "manifest job failed to resolve: " + error);
        requests.push_back(std::move(req));
        manifest.push_back(std::move(job));
    }

    std::cout << "cluster scaling: " << requests.size() << " jobs, "
              << sms << " SMs, " << rounds << " round(s)/SM, "
              << threads << " dispatch thread(s), " << executors
              << " executor(s)/node (" << hardwareConcurrency()
              << " hardware)\n";

    // ---- serial local reference (the bit-identity oracle) --------------
    std::vector<RunOutcome> serial;
    serial.reserve(manifest.size());
    const double serial0 = now();
    for (const SweepJob &job : manifest)
        serial.push_back(Simulator(job.config)
                             .runWorkload(*findWorkload(job.workload)));
    const double serialSeconds = now() - serial0;
    std::cout << "  serial: " << fmtDouble(serialSeconds) << " s\n";

    const auto crossCheck = [&](const std::vector<SweepJobResult> &rs,
                                const char *pass) {
        for (size_t i = 0; i < rs.size(); ++i)
            panicIf(!(rs[i].outcome == serial[i]),
                    std::string(pass) +
                        " outcome diverged from the serial loop on " +
                        manifest[i].workload + "/" +
                        manifest[i].config.label);
    };

    // ---- 1/2/3-node clusters, cold + warm ------------------------------
    double coldSeconds[4] = {0, 0, 0, 0};
    double warmSeconds[4] = {0, 0, 0, 0};
    for (u32 nodes = 1; nodes <= 3; ++nodes) {
        TestCluster cluster(nodes, executors,
                            std::to_string(nodes) + "x");
        CoordinatorOptions co;
        co.nodes = cluster.endpoints;
        ClusterCoordinator coordinator(co);

        std::vector<SweepJobResult> cold, warm;
        coldSeconds[nodes] =
            dispatchAll(coordinator, requests, threads, cold);
        crossCheck(cold, "cold");
        u64 misroutes = 0;
        for (auto &server : cluster.servers) {
            u64 v = 0;
            server->statsMessage().getU64("requests_not_owner", v);
            misroutes += v;
        }
        panicIf(misroutes != 0, "routed dispatch misrouted a job");

        // Warm passes are a few milliseconds of cache-hit RTT;
        // min-of-reps keeps the scaling ratio out of timer noise.
        warmSeconds[nodes] = 1e300;
        for (u32 rep = 0; rep < reps; ++rep) {
            warmSeconds[nodes] = std::min(
                warmSeconds[nodes],
                dispatchAll(coordinator, requests, threads, warm));
            crossCheck(warm, "warm");
            for (size_t i = 0; i < warm.size(); ++i)
                panicIf(!warm[i].fromCache,
                        "warm pass missed the cache on " +
                            manifest[i].workload + "/" +
                            manifest[i].config.label);
        }

        std::cout << "  " << nodes
                  << " node(s): cold " << fmtDouble(coldSeconds[nodes])
                  << " s, warm " << fmtDouble(warmSeconds[nodes])
                  << " s\n";
    }

    const double coldScaling3v1 = coldSeconds[1] / coldSeconds[3];
    const double warmScaling3v1 = warmSeconds[1] / warmSeconds[3];
    std::cout << "  3-node vs 1-node: cold "
              << fmtDouble(coldScaling3v1) << "x, warm "
              << fmtDouble(warmScaling3v1) << "x\n";

    u64 aggregateCycles = 0;
    for (const RunOutcome &out : serial)
        aggregateCycles += out.sim.cycles;

    {
        std::ofstream os(out_path);
        os << "{\n";
        os << "  \"bench\": \"cluster-scaling\",\n";
        os << "  \"simulatorVersion\": \"" << kSimulatorVersion
           << "\",\n";
        os << "  \"numSms\": " << sms << ",\n";
        os << "  \"roundsPerSm\": " << rounds << ",\n";
        os << "  \"threads\": " << threads << ",\n";
        os << "  \"executorsPerNode\": " << executors << ",\n";
        os << "  \"warmReps\": " << reps << ",\n";
        os << "  \"hardwareThreads\": " << hardwareConcurrency()
           << ",\n";
        os << "  \"jobs\": " << requests.size() << ",\n";
        os << "  \"aggregateCycles\": " << aggregateCycles << ",\n";
        os << "  \"serialSeconds\": " << fmtDouble(serialSeconds)
           << ",\n";
        for (u32 nodes = 1; nodes <= 3; ++nodes) {
            os << "  \"cold" << nodes << "Seconds\": "
               << fmtDouble(coldSeconds[nodes]) << ",\n";
            os << "  \"warm" << nodes << "Seconds\": "
               << fmtDouble(warmSeconds[nodes]) << ",\n";
        }
        os << "  \"coldScaling3v1\": " << fmtDouble(coldScaling3v1)
           << ",\n";
        os << "  \"warmScaling3v1\": " << fmtDouble(warmScaling3v1)
           << "\n";
        os << "}\n";
    }
    std::cout << "wrote " << out_path << "\n";

    if (check_path.empty())
        return 0;

    // Regression gate: scaling ratios vs the committed baseline with
    // 15% noise tolerance.  Bit-identity and warm hits were already
    // enforced as hard panics above.
    bool failed = false;
    const struct {
        const char *key;
        double value;
        double tolerance;
    } gates[] = {
        {"coldScaling3v1", coldScaling3v1, 0.85},
        {"warmScaling3v1", warmScaling3v1, 0.60},
    };
    for (const auto &gate : gates) {
        const double baseline = readNumber(check_path, gate.key);
        if (gate.value < baseline * gate.tolerance) {
            std::cerr << "FAIL: " << gate.key << " "
                      << fmtDouble(gate.value) << " regressed beyond "
                      << fmtDouble((1 - gate.tolerance) * 100)
                      << "% tolerance vs baseline "
                      << fmtDouble(baseline) << "\n";
            failed = true;
        }
    }
    if (!failed)
        std::cout << "check passed: no scaling ratio regressed vs "
                  << check_path << "\n";
    return failed ? 1 : 0;
}
