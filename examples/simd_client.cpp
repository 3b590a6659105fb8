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
 *   --jobs=N           concurrent client connections (default 1, at
 *                      most 256)
 *   --deadline-ms=N    per-request deadline; with --cluster it is
 *                      cluster-wide (spans failovers and redirects)
 *   --retries=N        max attempts for transient failures (default 5)
 *   --backoff-ms=N     base backoff between retries (default 100)
 *   --sms=N --rounds=N shorthand for numSms / roundsPerSm overrides
 *   --csv=FILE         per-job CSV (- = stdout), identical columns to
 *                      run_sweep so served results can be diffed
 *                      bit-for-bit against local sweeps
 *   --expect-hit-rate=F  exit 1 unless the share of jobs served from a
 *                      cache is >= F, F in [0, 1]
 *   --stats            also print STATS counters after the requests
 *   --quiet            suppress the summary
 *
 * A numeric flag that is not a canonical decimal in range prints
 * `unparsable value in <flag>` and exits 2.  Exit status: 0 when every
 * request succeeded, 1 otherwise.  SIGINT/SIGTERM during the requests
 * stop dispatching: requests in flight finish, pending jobs end as
 * CANCELLED, and the exit status is 130; a second signal ends the
 * process at once, even if a request never returns.
 *
 * Responses are decoded through the same codec the result cache uses,
 * so a served outcome printed here is bit-identical to the same job
 * simulated locally (see tests/test_simd_service.cc and the CI
 * service-smoke job).
 */
#include <atomic>
#include <memory>
#include <vector>

#include "cli.h"
#include "common/thread_pool.h"
#include "net/client.h"
#include "net/cluster_coordinator.h"

using namespace rfv;

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
    double expectHitRate = -1;

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
        else if (arg.rfind("--jobs=", 0) == 0)
            ok = parseCanonical(arg.substr(7), jobs, kMaxWorkers);
        else if (arg.rfind("--deadline-ms=", 0) == 0)
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
        else if (arg.rfind("--expect-hit-rate=", 0) == 0)
            ok = parseHitRate(arg.substr(18), expectHitRate);
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
                     "[--jobs=N] [--deadline-ms=N] [--csv=FILE] "
                     "[--expect-hit-rate=F]\n";
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

        // Manifest lines that failed to parse are reported without
        // ever hitting the wire.
        std::vector<SweepJobResult> results(entries.size());
        for (size_t i = 0; i < entries.size(); ++i) {
            results[i].status = entries[i].status;
            results[i].error = entries[i].error;
        }

        // ---- fire the requests on --jobs pool workers ------------------
        // One routed front door shared by every worker, or one direct
        // connection per worker when targeting a single server.
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
        WorkStealingPool pool(
            static_cast<u32>(std::min<size_t>(jobs, entries.size())));
        std::vector<SimdClient> direct;
        if (!coordinator) {
            direct.reserve(pool.size());
            for (u32 w = 0; w < pool.size(); ++w) {
                ClientOptions wopts = copts;
                wopts.jitterSeed = copts.jitterSeed + w;
                direct.emplace_back(wopts);
            }
        }
        std::atomic<u64> totalAttempts{0};
        installInterruptHandlers(); // only around the dispatch
        // results[i] has exactly one writer (job i) and direct[w] one
        // user (worker w); both are read after run() returns.
        pool.run(static_cast<u32>(entries.size()), [&](u32 i, u32 w) {
            if (entries[i].status != ServiceStatus::kOk)
                return; // parse error, already recorded
            if (gInterrupted.load()) {
                results[i].status = ServiceStatus::kCancelled;
                results[i].error = "interrupted";
                return;
            }
            ServiceRequest req;
            req.workload = entries[i].workload;
            req.configName = entries[i].configName;
            req.overrides = entries[i].overrides;
            req.deadlineMs = deadlineMs;
            u32 attempts = 1;
            std::string error;
            results[i].status =
                coordinator
                    ? coordinator->run(req, results[i], error)
                    : direct[w].runWithRetry(req, results[i], error,
                                             &attempts);
            if (results[i].error.empty())
                results[i].error = error;
            // relaxed: monotonic statistic, read after run() returns.
            totalAttempts.fetch_add(attempts, std::memory_order_relaxed);
        });
        std::signal(SIGINT, SIG_DFL);
        std::signal(SIGTERM, SIG_DFL);

        // ---- report ----------------------------------------------------
        u64 ok = 0, cached = 0, failed = 0, cancelled = 0;
        for (size_t i = 0; i < entries.size(); ++i) {
            const SweepJobResult &r = results[i];
            if (r.ok()) {
                ++ok;
                if (r.fromCache)
                    ++cached;
            } else if (r.status == ServiceStatus::kCancelled) {
                ++cancelled;
            } else {
                ++failed;
                std::cerr << "FAIL " << entries[i].workload << " "
                          << entries[i].configName << " ["
                          << entries[i].source
                          << "]: " << serviceStatusName(r.status) << " "
                          << r.error << "\n";
            }
        }

        if (!csvOut.empty()) {
            std::ofstream file;
            writeSweepCsv(openOut(csvOut, file), results);
        }

        if (!quiet && modes > 0)
            std::cerr << "client-summary: total=" << entries.size()
                      << " ok=" << ok << " cached=" << cached
                      << " failed=" << failed
                      << " attempts=" << totalAttempts.load() << "\n";
        if (!quiet && coordinator) {
            const ClusterCoordinator::Stats cs =
                coordinator->statsSnapshot();
            std::cerr << "cluster-summary:";
            ClusterCoordinator::Stats::fields(
                [&](const char *name, auto field) {
                    std::cerr << " " << name << "=" << cs.*field;
                });
            std::cerr << " epoch=" << coordinator->ringEpoch() << "\n";
        }
        if (gInterrupted.load()) {
            std::cerr << "interrupted: " << ok << "/" << entries.size()
                      << " jobs completed (" << cancelled
                      << " cancelled)\n";
            return 130;
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

        // An interrupted run has returned 130 above, so no cancelled
        // job is in the denominator (as in SweepStats::hitRate).
        const double hitRate =
            entries.empty() ? 0.0
                            : static_cast<double>(cached) /
                                  static_cast<double>(entries.size());
        if (expectHitRate >= 0 && hitRate < expectHitRate) {
            std::cerr << "FAIL: hit rate " << hitRate
                      << " below expected " << expectHitRate << "\n";
            return 1;
        }
        return failed ? 1 : 0;
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
