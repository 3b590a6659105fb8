/**
 * @file
 * Batch-engine throughput benchmark: the full 16-workload x 3-config
 * manifest run three ways —
 *
 *   serial  the pre-engine driver loop (one Simulator::runWorkload per
 *           job: recompiles, re-verifies and rebuilds the DecodeCache
 *           every time, single thread)
 *   cold    SweepEngine, empty result cache: shared artifacts + the
 *           work-stealing scheduler
 *   warm    SweepEngine again on the same cache: every job replays
 *
 * Every engine outcome is cross-checked for field-wise equality with
 * the serial loop's, so the speedups are for *identical* results.
 *
 * Emits BENCH_sweep.json.  `--check=FILE` compares against a committed
 * report and fails (exit 1) when the cold or warm speedup regressed by
 * more than 15% relative to it, or the warm pass's hit rate fell below
 * 90%.  Speedups are serial/engine wall-time ratios measured in one
 * process on one host, so the gate is stable across machine
 * generations; the committed baseline records its hardware thread
 * count for context.
 *
 * Usage:
 *   sweep_throughput [--quick] [--sms=N] [--rounds=N] [--threads=N]
 *                    [--out=FILE] [--check=FILE]
 */
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/error.h"
#include "common/sync.h"
#include "examples/cli.h"
#include "core/simulator.h"
#include "service/sweep.h"
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

} // namespace

int
main(int argc, char **argv)
{
    u32 sms = 4, rounds = 3, threads = 8;
    std::string out_path = "BENCH_sweep.json";
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
        else if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else if (arg.rfind("--check=", 0) == 0)
            check_path = arg.substr(8);
        else if (arg == "--help" || arg == "-h") {
            std::cout << "options: --quick --sms=N --rounds=N "
                         "--threads=N --out=FILE --check=FILE\n";
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

    std::vector<RunConfig> configs{RunConfig::baseline(),
                                   RunConfig::virtualized(),
                                   RunConfig::gpuShrink(50)};
    std::vector<SweepJob> manifest;
    for (RunConfig &cfg : configs) {
        cfg.numSms = sms;
        cfg.roundsPerSm = rounds;
        for (const auto &w : allWorkloads())
            manifest.push_back({w->name(), cfg});
    }

    std::cout << "sweep throughput: " << manifest.size() << " jobs, "
              << sms << " SMs, " << rounds << " round(s)/SM, "
              << threads << " threads ("
              << hardwareConcurrency()
              << " hardware)\n";

    // ---- serial: the pre-engine driver loop ----------------------------
    std::vector<RunOutcome> serial;
    serial.reserve(manifest.size());
    const double serial0 = now();
    for (const SweepJob &job : manifest)
        serial.push_back(Simulator(job.config)
                             .runWorkload(*findWorkload(job.workload)));
    const double serialSeconds = now() - serial0;
    std::cout << "  serial: " << fmtDouble(serialSeconds) << " s\n";

    // ---- cold + warm engine sweeps -------------------------------------
    const std::string cacheDir =
        (std::filesystem::temp_directory_path() / "rfv-sweep-bench")
            .string();
    std::filesystem::remove_all(cacheDir);

    SweepOptions opts;
    opts.jobs = threads;
    opts.cacheDir = cacheDir;

    SweepEngine cold(opts);
    const std::vector<SweepJobResult> coldResults = cold.run(manifest);
    const double coldSeconds = cold.stats().wallSeconds;
    const u64 steals = cold.stats().steals;
    std::cout << "  cold:   " << fmtDouble(coldSeconds) << " s ("
              << steals << " steals)\n";

    for (size_t i = 0; i < manifest.size(); ++i)
        panicIf(!(coldResults[i].outcome == serial[i]),
                "engine outcome diverged from serial loop on " +
                    manifest[i].workload + "/" +
                    manifest[i].config.label);

    SweepEngine warm(opts);
    const std::vector<SweepJobResult> warmResults = warm.run(manifest);
    const double warmSeconds = warm.stats().wallSeconds;
    const double hitRate = warm.stats().hitRate();
    std::cout << "  warm:   " << fmtDouble(warmSeconds) << " s (hit rate "
              << fmtDouble(hitRate * 100) << "%)\n";

    for (size_t i = 0; i < manifest.size(); ++i)
        panicIf(!(warmResults[i].outcome == serial[i]),
                "cached replay diverged from serial loop on " +
                    manifest[i].workload + "/" +
                    manifest[i].config.label);
    std::filesystem::remove_all(cacheDir);

    const double coldSpeedup = serialSeconds / coldSeconds;
    const double warmSpeedup = serialSeconds / warmSeconds;
    std::cout << "  cold speedup " << fmtDouble(coldSpeedup)
              << "x, warm speedup " << fmtDouble(warmSpeedup) << "x\n";

    u64 aggregateCycles = 0;
    for (const RunOutcome &out : serial)
        aggregateCycles += out.sim.cycles;

    {
        std::ofstream os(out_path);
        os << "{\n";
        os << "  \"bench\": \"sweep-throughput\",\n";
        os << "  \"simulatorVersion\": \"" << kSimulatorVersion
           << "\",\n";
        os << "  \"numSms\": " << sms << ",\n";
        os << "  \"roundsPerSm\": " << rounds << ",\n";
        os << "  \"threads\": " << threads << ",\n";
        os << "  \"hardwareThreads\": "
           << hardwareConcurrency() << ",\n";
        os << "  \"jobs\": " << manifest.size() << ",\n";
        os << "  \"aggregateCycles\": " << aggregateCycles << ",\n";
        os << "  \"serialSeconds\": " << fmtDouble(serialSeconds)
           << ",\n";
        os << "  \"coldSeconds\": " << fmtDouble(coldSeconds) << ",\n";
        os << "  \"warmSeconds\": " << fmtDouble(warmSeconds) << ",\n";
        os << "  \"coldSpeedup\": " << fmtDouble(coldSpeedup) << ",\n";
        os << "  \"warmSpeedup\": " << fmtDouble(warmSpeedup) << ",\n";
        os << "  \"warmHitRate\": " << fmtDouble(hitRate) << ",\n";
        os << "  \"steals\": " << steals << "\n";
        os << "}\n";
    }
    std::cout << "wrote " << out_path << "\n";

    if (check_path.empty())
        return 0;

    // Regression gate: ratios vs the committed baseline (15% noise
    // tolerance), plus the absolute warm-cache contract — memoized
    // replay must keep >= 90% hits and stay clearly faster than
    // re-simulating.
    bool failed = false;
    if (hitRate < 0.9) {
        std::cerr << "FAIL: warm hit rate " << fmtDouble(hitRate)
                  << " below 0.9\n";
        failed = true;
    }
    const double baseCold = readNumber(check_path, "coldSpeedup");
    const double baseWarm = readNumber(check_path, "warmSpeedup");
    if (coldSpeedup < 0.85 * baseCold) {
        std::cerr << "FAIL: cold speedup " << fmtDouble(coldSpeedup)
                  << "x regressed >15% vs baseline "
                  << fmtDouble(baseCold) << "x\n";
        failed = true;
    }
    if (warmSpeedup < 0.85 * baseWarm) {
        std::cerr << "FAIL: warm speedup " << fmtDouble(warmSpeedup)
                  << "x regressed >15% vs baseline "
                  << fmtDouble(baseWarm) << "x\n";
        failed = true;
    }
    if (failed)
        return 1;
    std::cout << "check passed vs " << check_path << "\n";
    return 0;
}
