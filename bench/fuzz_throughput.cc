/**
 * @file
 * Generated-scenario throughput: how many seed-derived fuzz kernels
 * per second the sweep machinery sustains, locally (one SweepEngine,
 * multi-threaded dispatch) versus routed over a 3-node loopback
 * cluster — the "fuzz at sweep scale" claim in numbers.
 *
 * Every scenario is addressed purely by its canonical `gen:` name, so
 * the cluster nodes regenerate the kernels independently; each routed
 * outcome is cross-checked for field-wise equality against the local
 * engine's, making the throughput numbers numbers for *identical*
 * results (a node that answered faster by generating differently
 * fails the run).
 *
 * Emits BENCH_fuzz.json.  `--check=FILE` compares against a committed
 * report and fails (exit 1) when the cluster-vs-local throughput
 * ratio regressed beyond 50% — a machine-relative ratio, stable
 * across hardware generations where absolute jobs/sec is not.
 *
 * Usage:
 *   fuzz_throughput [--quick] [--scenarios=N] [--threads=N]
 *                   [--executors=N] [--seed=S] [--out=FILE]
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
#include "gen/fuzz.h"
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

    TestCluster(u32 nodes, u32 executors)
    {
        for (u32 i = 0; i < nodes; ++i) {
            cacheDirs.push_back(
                (std::filesystem::temp_directory_path() /
                 ("rfv-fuzz-bench-n" + std::to_string(i)))
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

} // namespace

int
main(int argc, char **argv)
{
    u32 scenarios = 48, threads = 4, executors = 1;
    u64 seed = 1;
    std::string out_path = "BENCH_fuzz.json";
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg == "--quick")
            scenarios = 12;
        else if (arg.rfind("--scenarios=", 0) == 0)
            ok = parseCanonical(arg.substr(12), scenarios);
        else if (arg.rfind("--threads=", 0) == 0)
            ok = parseCanonical(arg.substr(10), threads, kMaxWorkers);
        else if (arg.rfind("--executors=", 0) == 0)
            ok = parseCanonical(arg.substr(12), executors, kMaxWorkers);
        else if (arg.rfind("--seed=", 0) == 0)
            ok = parseCanonical(arg.substr(7), seed);
        else if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else if (arg.rfind("--check=", 0) == 0)
            check_path = arg.substr(8);
        else if (arg == "--help" || arg == "-h") {
            std::cout << "options: --quick --scenarios=N --threads=N "
                         "--executors=N --seed=S --out=FILE "
                         "--check=FILE\n";
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

    // The manifest: seed-derived scenarios, addressed only by their
    // canonical names — exactly what a distributed fuzz shard sees.
    // Configs resolve through the same named-config path the cluster
    // nodes use, so local and routed runs execute identical jobs.
    std::vector<SweepJob> manifest;
    std::vector<ServiceRequest> requests;
    for (u32 i = 0; i < scenarios; ++i) {
        const FuzzScenario sc = deriveScenario(seed, i, 0);
        ServiceRequest req;
        req.workload = sc.spec.name();
        req.configName = sc.config.virtualize ? "virtualized" : "baseline";
        SweepJob job;
        std::string error;
        panicIf(buildJob(req, job, error) != ServiceStatus::kOk,
                "scenario failed to resolve: " + error);
        manifest.push_back(std::move(job));
        requests.push_back(std::move(req));
    }

    std::cout << "fuzz throughput: " << scenarios
              << " generated scenarios, " << threads
              << " dispatch thread(s), " << executors
              << " executor(s)/node (" << hardwareConcurrency()
              << " hardware)\n";

    // ---- local: one engine, threaded dispatch, no cache ----------------
    SweepOptions localOpts;
    localOpts.useCache = false;
    SweepEngine local(localOpts);
    std::vector<SweepJobResult> localResults(manifest.size());
    std::atomic<size_t> next{0};
    const double local0 = now();
    {
        auto worker = [&]() {
            for (;;) {
                // relaxed: the claim counter only partitions indices;
                // each results slot has one writer, read after joins.
                const size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= manifest.size())
                    return;
                localResults[i] = local.execute(manifest[i]);
                panicIf(!localResults[i].ok(),
                        "local scenario failed: " +
                            manifest[i].workload + ": " +
                            localResults[i].error);
            }
        };
        std::vector<Thread> pool;
        for (u32 w = 1; w < std::max(1u, threads); ++w)
            pool.emplace_back(worker);
        worker();
        for (Thread &t : pool)
            t.join();
    }
    const double localSeconds = now() - local0;
    const double localJobsPerSec = scenarios / localSeconds;
    std::cout << "  local: " << fmtDouble(localSeconds) << " s ("
              << fmtDouble(localJobsPerSec) << " jobs/s)\n";

    // ---- 3-node cluster, cold (every node regenerates from names) ------
    double clusterSeconds = 0;
    {
        TestCluster cluster(3, executors);
        CoordinatorOptions co;
        co.nodes = cluster.endpoints;
        ClusterCoordinator coordinator(co);

        std::vector<SweepJobResult> routed(requests.size());
        std::atomic<size_t> claim{0};
        const double t0 = now();
        auto worker = [&]() {
            for (;;) {
                // relaxed: the claim counter only partitions indices;
                // each routed slot has one writer, read after joins.
                const size_t i =
                    claim.fetch_add(1, std::memory_order_relaxed);
                if (i >= requests.size())
                    return;
                std::string error;
                routed[i].status =
                    coordinator.run(requests[i], routed[i], error);
                panicIf(routed[i].status != ServiceStatus::kOk,
                        "cluster dispatch failed on " +
                            requests[i].workload + ": " + error);
            }
        };
        std::vector<Thread> pool;
        for (u32 w = 1; w < std::max(1u, threads); ++w)
            pool.emplace_back(worker);
        worker();
        for (Thread &t : pool)
            t.join();
        clusterSeconds = now() - t0;

        for (size_t i = 0; i < routed.size(); ++i)
            panicIf(!(routed[i].outcome == localResults[i].outcome),
                    "routed outcome diverged from the local engine on " +
                        requests[i].workload);
    }
    const double clusterJobsPerSec = scenarios / clusterSeconds;
    const double clusterVsLocal = clusterJobsPerSec / localJobsPerSec;
    std::cout << "  3-node cluster: " << fmtDouble(clusterSeconds)
              << " s (" << fmtDouble(clusterJobsPerSec)
              << " jobs/s), " << fmtDouble(clusterVsLocal)
              << "x of local\n";

    {
        std::ofstream os(out_path);
        os << "{\n";
        os << "  \"bench\": \"fuzz-throughput\",\n";
        os << "  \"simulatorVersion\": \"" << kSimulatorVersion
           << "\",\n";
        os << "  \"seed\": " << seed << ",\n";
        os << "  \"scenarios\": " << scenarios << ",\n";
        os << "  \"threads\": " << threads << ",\n";
        os << "  \"executorsPerNode\": " << executors << ",\n";
        os << "  \"hardwareThreads\": " << hardwareConcurrency()
           << ",\n";
        os << "  \"localSeconds\": " << fmtDouble(localSeconds)
           << ",\n";
        os << "  \"localJobsPerSec\": " << fmtDouble(localJobsPerSec)
           << ",\n";
        os << "  \"cluster3Seconds\": " << fmtDouble(clusterSeconds)
           << ",\n";
        os << "  \"cluster3JobsPerSec\": "
           << fmtDouble(clusterJobsPerSec) << ",\n";
        os << "  \"clusterVsLocal\": " << fmtDouble(clusterVsLocal)
           << "\n";
        os << "}\n";
    }
    std::cout << "wrote " << out_path << "\n";

    if (check_path.empty())
        return 0;

    // Machine-relative ratio gate (bit-identity was a hard panic
    // above): loopback RTT + regeneration overhead must not blow up
    // relative to the committed baseline.
    const double baseline = readNumber(check_path, "clusterVsLocal");
    if (clusterVsLocal < baseline * 0.5) {
        std::cerr << "FAIL: clusterVsLocal "
                  << fmtDouble(clusterVsLocal)
                  << " regressed beyond 50% tolerance vs baseline "
                  << fmtDouble(baseline) << "\n";
        return 1;
    }
    std::cout << "check passed: clusterVsLocal "
              << fmtDouble(clusterVsLocal) << " vs baseline "
              << fmtDouble(baseline) << "\n";
    return 0;
}
