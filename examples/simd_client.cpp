/**
 * @file
 * `simd_client` — submit simulation jobs to a running `simd_server`.
 *
 * Usage:
 *   simd_client (--port=N [--host=H] | --cluster=H1:P1,H2:P2,...)
 *               <what> [options]
 *
 * What to run (one of):
 *   --workload=W [--config=C] [--set=key=value]...   one request
 *   --manifest=FILE                                  manifest of jobs
 *   --default              the 16-workload x 3-config default sweep
 *   --stats                only fetch and print the server counters
 *
 * Options:
 *   --cluster=LIST     route each job to its owner node on the
 *                      consistent-hash ring instead of one server;
 *                      handles NOT_OWNER/REDIRECT, node failover and
 *                      ring-epoch refresh (docs/SERVICE.md §cluster)
 *   --jobs=N           concurrent client connections (default 1)
 *   --deadline-ms=N    per-request deadline; with --cluster it is
 *                      cluster-wide (spans failovers and redirects)
 *   --retries=N        max attempts for transient failures (default 5)
 *   --backoff-ms=N     base backoff between retries (default 100)
 *   --sms=N --rounds=N shorthand for numSms / roundsPerSm overrides
 *   --csv=FILE         per-job CSV (- = stdout), identical columns to
 *                      run_sweep so served results can be diffed
 *                      bit-for-bit against local sweeps
 *   --stats            also print STATS counters after the requests
 *   --quiet            suppress the summary
 *
 * Exit status: 0 when every request succeeded, 1 otherwise.
 *
 * Responses are decoded through the same codec the result cache uses,
 * so a served outcome printed here is bit-identical to the same job
 * simulated locally (see tests/test_simd_service.cc and the CI
 * service-smoke job).
 */
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "common/decimal.h"
#include "common/sync.h"
#include "core/report.h"
#include "net/client.h"
#include "net/cluster_coordinator.h"
#include "workloads/workload.h"

using namespace rfv;

namespace {

std::vector<ManifestEntry>
defaultManifest()
{
    std::vector<ManifestEntry> entries;
    for (const char *config : {"baseline", "virtualized", "shrink50"}) {
        for (const auto &w : allWorkloads()) {
            ManifestEntry e;
            e.workload = w->name();
            e.configName = config;
            e.source = "--default";
            entries.push_back(std::move(e));
        }
    }
    return entries;
}

struct JobOutcome {
    SweepJobResult result;
    u32 attempts = 0;
    std::string error;
};

/** Open @p spec ("-" = stdout). */
std::ostream &
openOut(const std::string &spec, std::ofstream &file)
{
    if (spec == "-")
        return std::cout;
    file.open(spec, std::ios::trunc);
    if (!file)
        throw std::runtime_error("cannot write " + spec);
    return file;
}

} // namespace

int
main(int argc, char **argv)
{
    ClientOptions copts;
    std::string cluster;
    std::string workload, config = "baseline", manifestPath, csvOut;
    std::vector<std::pair<std::string, std::string>> overrides;
    bool useDefault = false, wantStats = false, quiet = false;
    i64 deadlineMs = -1;
    u32 jobs = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg.rfind("--host=", 0) == 0)
            copts.host = arg.substr(7);
        else if (arg.rfind("--port=", 0) == 0)
            ok = parseCanonical(arg.substr(7), copts.port);
        else if (arg.rfind("--cluster=", 0) == 0)
            cluster = arg.substr(10);
        else if (arg.rfind("--workload=", 0) == 0)
            workload = arg.substr(11);
        else if (arg.rfind("--config=", 0) == 0)
            config = arg.substr(9);
        else if (arg.rfind("--set=", 0) == 0) {
            const std::string kv = arg.substr(6);
            const size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::cerr << "--set expects key=value, got '" << kv
                          << "'\n";
                return 2;
            }
            overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        } else if (arg.rfind("--manifest=", 0) == 0)
            manifestPath = arg.substr(11);
        else if (arg == "--default")
            useDefault = true;
        else if (arg == "--stats")
            wantStats = true;
        else if (arg.rfind("--jobs=", 0) == 0) {
            ok = parseCanonical(arg.substr(7), jobs);
            jobs = std::max(1u, jobs);
        } else if (arg.rfind("--deadline-ms=", 0) == 0)
            ok = parseCanonical(arg.substr(14), deadlineMs);
        else if (arg.rfind("--retries=", 0) == 0)
            ok = parseCanonical(arg.substr(10), copts.maxAttempts);
        else if (arg.rfind("--backoff-ms=", 0) == 0)
            ok = parseCanonical(arg.substr(13), copts.backoffBaseMs);
        else if (arg.rfind("--sms=", 0) == 0)
            overrides.emplace_back("numSms", arg.substr(6));
        else if (arg.rfind("--rounds=", 0) == 0)
            overrides.emplace_back("roundsPerSm", arg.substr(9));
        else if (arg.rfind("--csv=", 0) == 0)
            csvOut = arg.substr(6);
        else if (arg == "--quiet")
            quiet = true;
        else {
            std::cerr << "unknown option " << arg << "\n";
            return 2;
        }
        if (!ok) {
            std::cerr << "unparsable value in " << arg << "\n";
            return 2;
        }
    }
    if (copts.port == 0 && cluster.empty()) {
        std::cerr << "usage: simd_client (--port=N | "
                     "--cluster=H1:P1,...) (--workload=W | "
                     "--manifest=FILE | --default | --stats) "
                     "[--jobs=N] [--deadline-ms=N] [--csv=FILE]\n";
        return 2;
    }
    const int modes = (!workload.empty() ? 1 : 0) +
                      (!manifestPath.empty() ? 1 : 0) +
                      (useDefault ? 1 : 0);
    if (modes > 1) {
        std::cerr << "pick one of --workload, --manifest, --default\n";
        return 2;
    }
    if (modes == 0 && !wantStats) {
        std::cerr << "nothing to do: no workload, manifest or --stats\n";
        return 2;
    }

    try {
        // ---- assemble the request list ---------------------------------
        std::vector<ManifestEntry> entries;
        if (!workload.empty()) {
            ManifestEntry e;
            e.workload = workload;
            e.configName = config;
            e.overrides = overrides;
            e.source = "--workload";
            entries.push_back(std::move(e));
        } else if (useDefault) {
            entries = defaultManifest();
        } else if (!manifestPath.empty()) {
            std::ifstream in(manifestPath);
            if (!in)
                throw std::runtime_error("cannot open manifest " +
                                         manifestPath);
            entries = parseManifest(in, manifestPath);
        }
        // Global overrides apply to every entry (after its own).
        if (workload.empty())
            for (ManifestEntry &e : entries)
                e.overrides.insert(e.overrides.end(), overrides.begin(),
                                   overrides.end());

        std::vector<JobOutcome> outcomes(entries.size());
        bool anyFailed = false;

        // Manifest lines that failed to parse are reported without
        // ever hitting the wire.
        for (size_t i = 0; i < entries.size(); ++i) {
            if (entries[i].status != ServiceStatus::kOk) {
                outcomes[i].result.status = entries[i].status;
                outcomes[i].error = entries[i].error;
                anyFailed = true;
            }
        }

        // ---- fire the requests on --jobs connections -------------------
        // One routed front door shared by every worker thread, or one
        // direct connection per worker when targeting a single server.
        std::unique_ptr<ClusterCoordinator> coordinator;
        if (!cluster.empty()) {
            CoordinatorOptions co;
            std::vector<RingNode> nodes;
            std::string perr;
            if (!parseEndpointList(cluster, nodes, perr))
                throw std::runtime_error("--cluster: " + perr);
            for (const RingNode &n : nodes)
                co.nodes.push_back(n.endpoint());
            co.client = copts;
            coordinator = std::make_unique<ClusterCoordinator>(co);
            std::string rerr;
            coordinator->refreshRing(rerr); // adopt the live epoch
        }
        std::atomic<size_t> nextIndex{0};
        std::atomic<u64> totalAttempts{0};
        auto worker = [&](u32 workerId) {
            ClientOptions wopts = copts;
            wopts.jitterSeed = copts.jitterSeed + workerId;
            std::optional<SimdClient> direct;
            if (!coordinator)
                direct.emplace(wopts);
            for (;;) {
                // relaxed: the claim counter only partitions indices
                // across workers; outcomes[i] is written by exactly
                // one claimant and read after the joins below.
                const size_t i =
                    nextIndex.fetch_add(1, std::memory_order_relaxed);
                if (i >= entries.size())
                    return;
                if (entries[i].status != ServiceStatus::kOk)
                    continue; // parse error, already reported
                ServiceRequest req;
                req.workload = entries[i].workload;
                req.configName = entries[i].configName;
                req.overrides = entries[i].overrides;
                req.deadlineMs = deadlineMs;
                u32 attempts = 0;
                if (coordinator) {
                    outcomes[i].result.status = coordinator->run(
                        req, outcomes[i].result, outcomes[i].error);
                    attempts = 1;
                } else {
                    outcomes[i].result.status = direct->runWithRetry(
                        req, outcomes[i].result, outcomes[i].error,
                        &attempts);
                }
                outcomes[i].attempts = attempts;
                // relaxed: monotonic statistic, read after the joins.
                totalAttempts.fetch_add(attempts,
                                        std::memory_order_relaxed);
            }
        };
        std::vector<Thread> threads;
        const u32 numWorkers =
            static_cast<u32>(std::min<size_t>(jobs, entries.size()));
        for (u32 w = 1; w < numWorkers; ++w)
            threads.emplace_back(worker, w);
        if (numWorkers > 0)
            worker(0);
        for (Thread &t : threads)
            t.join();

        // ---- report ----------------------------------------------------
        u64 ok = 0, cached = 0, failed = 0;
        for (size_t i = 0; i < entries.size(); ++i) {
            const JobOutcome &jo = outcomes[i];
            if (jo.result.ok()) {
                ++ok;
                if (jo.result.fromCache)
                    ++cached;
            } else {
                ++failed;
                anyFailed = true;
                std::cerr << "FAIL " << entries[i].workload << " "
                          << entries[i].configName << " ["
                          << entries[i].source
                          << "]: " << serviceStatusName(jo.result.status)
                          << " "
                          << (jo.error.empty() ? jo.result.error
                                               : jo.error)
                          << "\n";
            }
        }

        if (!csvOut.empty()) {
            std::ofstream file;
            std::ostream &os = openOut(csvOut, file);
            os << csvHeader() << ",from_cache,seconds\n";
            for (const JobOutcome &jo : outcomes)
                if (jo.result.ok())
                    os << csvRow(jo.result.outcome) << ","
                       << (jo.result.fromCache ? 1 : 0) << ","
                       << jo.result.seconds << "\n";
        }

        if (!quiet && modes > 0)
            std::cerr << "client-summary: total=" << entries.size()
                      << " ok=" << ok << " cached=" << cached
                      << " failed=" << failed
                      << " attempts=" << totalAttempts.load() << "\n";
        if (!quiet && coordinator) {
            const ClusterCoordinator::Stats cs =
                coordinator->statsSnapshot();
            std::cerr << "cluster-summary: dispatches=" << cs.dispatches
                      << " reroutes=" << cs.reroutes
                      << " failovers=" << cs.failovers
                      << " shed_retries=" << cs.shedRetries
                      << " ring_refreshes=" << cs.ringRefreshes
                      << " nodes_marked_down=" << cs.nodesMarkedDown
                      << " epoch=" << coordinator->ringEpoch() << "\n";
        }

        if (wantStats) {
            if (coordinator) {
                // One STATS block per reachable node, endpoint-prefixed
                // so the blocks stay greppable after concatenation.
                const auto all = coordinator->statsAll();
                if (all.empty()) {
                    std::cerr << "STATS failed: no node reachable\n";
                    return 1;
                }
                for (const auto &[endpoint, stats] : all)
                    for (const auto &[key, value] : stats.fields)
                        std::cout << endpoint << " " << key << " "
                                  << value << "\n";
            } else {
                SimdClient client(copts);
                Message stats;
                std::string error;
                ServiceStatus s = client.connect(error);
                if (s == ServiceStatus::kOk)
                    s = client.stats(stats, error);
                if (s != ServiceStatus::kOk) {
                    std::cerr << "STATS failed: " << error << "\n";
                    return 1;
                }
                for (const auto &[key, value] : stats.fields)
                    std::cout << key << " " << value << "\n";
            }
        }

        return anyFailed ? 1 : 0;
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
