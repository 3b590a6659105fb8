/**
 * @file
 * `simd_server` — run the simulation daemon.
 *
 * Usage:
 *   simd_server [--port=N] [--executors=N] [--queue=N]
 *               [--max-conns=N] [--idle-timeout-ms=N]
 *               [--cache-dir=DIR] [--no-cache] [--cache-budget-mb=N]
 *               [--quiet]
 *               [--cluster=H1:P1,H2:P2,... --self=H:P]
 *               [--replication=N] [--vnodes=N] [--ring-epoch=N]
 *
 * --port=N            TCP port on 127.0.0.1 (default 0 = ephemeral;
 *                     the bound port is printed on startup).
 * --executors=N       simulation worker threads (default 1, at most
 *                     256).
 * --queue=N           admission-queue capacity; requests beyond it are
 *                     shed with RETRY_LATER (default 16).
 * --max-conns=N       concurrent connection cap (default 64).
 * --idle-timeout-ms=N reap connections idle this long (default 30000).
 * --cache-dir=DIR     persistent result cache (default .rfv-cache).
 * --no-cache          always simulate live.
 * --cache-budget-mb=N memory-tier byte budget; cold results beyond it
 *                     are demoted to disk (0 = unbounded, default
 *                     256) — a daemon meant to survive millions of
 *                     requests must not pin every outcome in RAM.
 * --cluster=LIST      comma-separated host:port membership; the same
 *                     list (same order) must be passed to every node.
 *                     Requires --self.  See docs/SERVICE.md §cluster.
 * --self=H:P          this node's entry in the --cluster list.
 * --replication=N     owners per key (default 2, clamped to cluster
 *                     size).
 * --vnodes=N          virtual nodes per member on the hash ring
 *                     (default 64).
 * --ring-epoch=N      membership-view version (default 1); bump it
 *                     when restarting the cluster with a new list.
 *
 * On startup the daemon prints exactly one line to stdout:
 *
 *   simd_server listening on 127.0.0.1:<port>
 *
 * so scripts can scrape the (possibly ephemeral) port.  SIGINT or
 * SIGTERM triggers a graceful drain: the listener closes, in-flight
 * requests finish and answer, the write-behind publisher flushes the
 * remaining disk publishes (each one atomic: temp file + rename), and
 * the final STATS counters go to stderr before exit.
 */
#include <csignal>
#include <iostream>

#include "cli.h"
#include "net/server.h"

using namespace rfv;

int
main(int argc, char **argv)
{
    ServerOptions opts;
    opts.sweep.cacheDir = ".rfv-cache";
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg.rfind("--port=", 0) == 0)
            ok = parseCanonical(arg.substr(7), opts.port);
        else if (arg.rfind("--executors=", 0) == 0)
            ok = parseCanonical(arg.substr(12), opts.executors, kMaxWorkers);
        else if (arg.rfind("--queue=", 0) == 0)
            ok = parseCanonical(arg.substr(8), opts.queueCapacity);
        else if (arg.rfind("--max-conns=", 0) == 0)
            ok = parseCanonical(arg.substr(12), opts.maxConnections);
        else if (arg.rfind("--idle-timeout-ms=", 0) == 0)
            ok = parseCanonical(arg.substr(18), opts.idleTimeoutMs);
        else if (arg.rfind("--cache-dir=", 0) == 0)
            opts.sweep.cacheDir = arg.substr(12);
        else if (arg == "--no-cache")
            opts.sweep.useCache = false;
        else if (arg.rfind("--cache-budget-mb=", 0) == 0) {
            u64 mb = 0;
            ok = parseCanonical(arg.substr(18), mb, ~0ull >> 20);
            opts.sweep.cacheMemoryBudget = mb << 20;
        } else if (arg.rfind("--cluster=", 0) == 0) {
            std::vector<RingNode> nodes;
            std::string error;
            if (!parseEndpointList(arg.substr(10), nodes, error)) {
                std::cerr << "--cluster: " << error << "\n";
                return 2;
            }
            opts.cluster.nodes.clear();
            for (const RingNode &n : nodes)
                opts.cluster.nodes.push_back(n.endpoint());
        } else if (arg.rfind("--self=", 0) == 0)
            opts.cluster.self = arg.substr(7);
        else if (arg.rfind("--replication=", 0) == 0)
            ok = parseCanonical(arg.substr(14), opts.cluster.replication);
        else if (arg.rfind("--vnodes=", 0) == 0)
            ok = parseCanonical(arg.substr(9), opts.cluster.vnodes);
        else if (arg.rfind("--ring-epoch=", 0) == 0)
            ok = parseCanonical(arg.substr(13), opts.cluster.epoch);
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

    if (opts.cluster.enabled() && opts.cluster.self.empty()) {
        std::cerr << "--cluster requires --self\n";
        return 2;
    }

    // Block the stop signals before any thread exists, so every server
    // thread inherits the mask and main alone takes them in sigwait.
    sigset_t stopSignals;
    sigemptyset(&stopSignals);
    sigaddset(&stopSignals, SIGINT);
    sigaddset(&stopSignals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &stopSignals, nullptr);

    try {
        SimdServer server(opts);
        server.start();
        std::cout << "simd_server listening on 127.0.0.1:"
                  << server.port() << "\n"
                  << std::flush;
        if (!quiet && server.clustered()) {
            const HashRing ring = server.ringSnapshot();
            std::cerr << "simd_server: cluster node "
                      << opts.cluster.self << " of "
                      << ring.nodes().size() << " (epoch "
                      << ring.epoch() << ", replication "
                      << ring.replication() << ")\n";
        }

        int received = 0;
        sigwait(&stopSignals, &received);

        if (!quiet)
            std::cerr << "simd_server: draining...\n";
        server.stop();

        if (!quiet) {
            const SimdServer::Stats s = server.statsSnapshot();
            std::cerr << "simd_server: drained after "
                      << s.uptimeSeconds << " s: " << s.requestsOk
                      << " ok (" << s.servedFromCache << " from cache), "
                      << s.requestsFailed << " failed, "
                      << s.requestsShed << " shed, "
                      << s.requestsTimedOut << " timed out, "
                      << s.badFrames << " bad frames\n";
        }
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return 0;
}
