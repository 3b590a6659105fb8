/**
 * @file
 * The repository benchmark: one command, three workloads.
 *
 *   perfbench --workload paper_sweep|serve_mixed|cluster_gen
 *             --seed N --seconds N --trace 0|1
 *             [--out-dir DIR] [--commit SHA] | --selftest
 *
 * Prints a human-readable report (environment record, notes, every
 * metric with its unit) and, as the last line of standard output, one
 * JSON object: {"correct", "attempted", "failed", "metrics"} — the
 * end-to-end metrics untraced, the per-layer metrics with --trace 1.
 * Exits 1 when any operation failed or any outcome mismatched its
 * reference, 2 on a usage error.  See README.md.
 */
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/sync.h"
#include "selftest.h"
#include "service/version.h"

using namespace rfv;
using namespace rfv::perfbench;

namespace {

struct MetricDef {
    const char *name;
    const char *unit;
};

/** Untraced metrics; BENCHMARK.json's end_to_end lists the same. */
const std::vector<MetricDef> kEndToEnd = {
    {"jobs_per_s", "1/s"},
    {"rpc_p50_ms", "ms"},
    {"rpc_p99_ms", "ms"},
    {"max_rate_rps", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"fig10_alloc_err_pp", "pp"},
    {"fig11a_shrink_err_pp", "pp"},
    {"fig11a_spill_err_pp", "pp"},
    {"fig12_energy_err_pp", "pp"},
};

/** Traced metrics; BENCHMARK.json's per_layer lists the same. */
const std::vector<MetricDef> kPerLayer = {
    {"sim.run_s", "s"},
    {"sim.ns_per_sm_step", "ns"},
    {"sim.skipped_cycle_frac", "frac"},
    {"artifacts.prepare_ms_p50", "ms"},
    {"artifacts.prepare_ms_p99", "ms"},
    {"artifacts.compiles_built", "count"},
    {"artifacts.reuse_frac", "frac"},
    {"cache.hit_us_p50", "us"},
    {"cache.hit_us_p99", "us"},
    {"cache.miss_us", "us"},
    {"cache.store_us", "us"},
    {"cache.drain_ms", "ms"},
    {"cache.hit_frac", "frac"},
    {"cache.write_behind_drops", "count"},
    {"cache.evictions", "count"},
    {"sweep.busy_frac", "frac"},
    {"sweep.tail_ms", "ms"},
    {"sweep.steals", "count"},
    {"sweep.parks", "count"},
    {"codec.encode_us", "us"},
    {"codec.decode_us", "us"},
    {"codec.result_bytes", "bytes"},
    {"rpc.overhead_us_p50", "us"},
    {"rpc.overhead_us_p99", "us"},
    {"rpc.queue_high_water", "count"},
    {"rpc.shed", "count"},
    {"gen.lag_ms_p99", "ms"},
    {"cluster.dispatches_per_job", "count"},
    {"cluster.reroutes", "count"},
    {"cluster.failovers", "count"},
    {"cluster.replication_sent", "count"},
    {"cluster.replication_dropped", "count"},
    {"cluster.node_share_max", "ratio"},
    {"ledger.other_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"failed_frac", "frac"},
};

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload paper_sweep|serve_mixed|"
                 "cluster_gen --seed N --seconds N --trace 0|1 "
                 "[--out-dir DIR] [--commit SHA] | --selftest\n";
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Full-precision number for the JSON result. */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false, selftestOnly = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opts.workload = value();
                haveWorkload = true;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value());
                haveSeed = true;
            } else if (arg == "--seconds") {
                opts.seconds = static_cast<u32>(std::stoul(value()));
                haveSeconds = opts.seconds > 0;
            } else if (arg == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                opts.trace = v == "1";
                haveTrace = true;
            } else if (arg == "--out-dir") {
                opts.outDir = value();
            } else if (arg == "--commit") {
                opts.commit = value();
            } else if (arg == "--selftest") {
                selftestOnly = true;
            } else {
                return usage("unknown argument " + arg);
            }
        } catch (const std::exception &e) {
            return usage(std::string("bad argument: ") + e.what());
        }
    }

    std::string failure;
    if (!runSelfTest(failure)) {
        std::cerr << "perfbench: statistics self-test failed: " << failure
                  << "\n";
        return 1;
    }
    if (selftestOnly) {
        std::cout << "statistics self-test passed\n";
        return 0;
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");

    RunReport rep;
    try {
        std::filesystem::create_directories(opts.outDir);
        if (opts.workload == "paper_sweep")
            rep = runPaperSweep(opts);
        else if (opts.workload == "serve_mixed")
            rep = runServeMixed(opts);
        else if (opts.workload == "cluster_gen")
            rep = runClusterGen(opts);
        else
            return usage("unknown workload " + opts.workload);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload << " aborted: "
                  << e.what() << "\n";
        return 1;
    }
    rep.perLayer["failed_frac"] =
        rep.attempted ? static_cast<double>(rep.failed) /
                            static_cast<double>(rep.attempted)
                      : 1.0;

    // Environment record.
    std::vector<std::pair<std::string, std::string>> env = {
        {"workload", opts.workload},
        {"seed", std::to_string(opts.seed)},
        {"seconds", std::to_string(opts.seconds)},
        {"trace", opts.trace ? "1" : "0"},
        {"hardwareThreads", std::to_string(hardwareConcurrency())},
        {"buildType", RFV_BENCH_BUILD_TYPE},
        {"compiler", RFV_BENCH_COMPILER},
        {"gitCommit", opts.commit},
        {"simulatorVersion", kSimulatorVersion},
    };
    env.insert(env.end(), rep.record.begin(), rep.record.end());
    std::ostringstream envJson;
    envJson << "{";
    for (size_t i = 0; i < env.size(); ++i)
        envJson << (i ? ", " : "") << jsonString(env[i].first) << ": "
                << jsonString(env[i].second);
    envJson << "}";

    std::ostringstream human;
    human << "environment: " << envJson.str() << "\n";
    for (const std::string &line : rep.notes)
        human << line << "\n";
    human << "attempted " << rep.attempted << ", failed " << rep.failed
          << ", failed_frac " << fmt(rep.perLayer["failed_frac"]) << "\n";

    const auto &defs = opts.trace ? kPerLayer : kEndToEnd;
    const auto &values = opts.trace ? rep.perLayer : rep.endToEnd;
    std::ostringstream metrics;
    metrics << "{";
    bool first = true;
    for (const MetricDef &d : defs) {
        const auto it = values.find(d.name);
        const double v = it == values.end() ? 0.0 : it->second;
        human << "  " << d.name << " = " << fmt(v) << " " << d.unit
              << (it == values.end() ? "  (not exercised)" : "") << "\n";
        metrics << (first ? "" : ", ") << jsonString(d.name)
                << ": {\"value\": " << jsonNumber(v)
                << ", \"unit\": " << jsonString(d.unit) << "}";
        first = false;
    }
    metrics << "}";
    std::cout << human.str();

    const std::string reportPath =
        opts.outDir + "/report-" + opts.workload + "-seed" +
        std::to_string(opts.seed) + "-trace" + (opts.trace ? "1" : "0") +
        ".json";
    std::ofstream(reportPath) << "{\"environment\": " << envJson.str()
                              << ", \"metrics\": " << metrics.str()
                              << "}\n";

    std::cout << "{\"correct\": " << (rep.correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted
              << ", \"failed\": " << rep.failed
              << ", \"metrics\": " << metrics.str() << "}" << std::endl;
    return rep.correct ? 0 : 1;
}
