/**
 * @file
 * Simulation-loop benchmark trajectory: wall-clocks the full 16-workload
 * suite under the three regfile configurations the paper's evaluation
 * uses, with the naive step-every-cycle loop and the event-driven loop,
 * and emits a machine-readable BENCH_simloop.json.
 *
 * The committed bench/BENCH_simloop.json is the perf baseline for CI:
 * `trajectory --quick --check=bench/BENCH_simloop.json` re-measures and
 * fails if any workload's event-vs-naive speedup RATIO regressed by
 * more than 15% relative to the committed run (ratios are host-speed
 * independent, so the gate is stable across CI machine generations),
 * or if any workload's event loop became slower than its naive loop.
 *
 * Usage:
 *   trajectory [--quick] [--sms=N] [--rounds=N] [--reps=N]
 *              [--out=FILE] [--check=FILE] [--before=FILE] [--profile]
 *
 *   --quick    1 round per SM instead of 3 (CI smoke scale)
 *   --reps     timing repetitions; best-of-N is reported (default 3)
 *   --out      write the JSON report (default BENCH_simloop.json)
 *   --check    compare against a committed report and exit 1 on
 *              regression
 *   --before   JSON map of pre-PR cycles/sec measurements (emitted by
 *              a build of the parent commit); rows gain beforeMcps and
 *              speedupVsBefore so the report carries before/after
 *              numbers
 *   --profile  per-row fetch/schedule/execute/commit breakdown of the
 *              event loop's stepped cycles (adds two clock reads per
 *              step to the timed region, so don't combine its numbers
 *              with a --check gate or a committed baseline)
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "common/decimal.h"
#include "core/simulator.h"
#include "service/sweep.h"
#include "sim/gpu.h"
#include "sim/loop_profiler.h"

using namespace rfv;

namespace {

// ---- host instruction counter (perf_event, optional) -------------------

/**
 * Retired-instruction counter for the calling thread via
 * perf_event_open.  Returns 0 everywhere the counter is unavailable
 * (non-Linux, perf_event_paranoid too strict, containers without the
 * syscall) — the JSON then records hostInstructions: 0 and consumers
 * fall back to wall-clock.
 */
class HostInstructionCounter {
  public:
    HostInstructionCounter()
    {
#if defined(__linux__)
        perf_event_attr attr{};
        attr.type = PERF_TYPE_HARDWARE;
        attr.size = sizeof(attr);
        attr.config = PERF_COUNT_HW_INSTRUCTIONS;
        attr.disabled = 1;
        attr.exclude_kernel = 1;
        attr.exclude_hv = 1;
        fd_ = static_cast<int>(syscall(SYS_perf_event_open, &attr, 0,
                                       -1, -1, 0));
#endif
    }
    ~HostInstructionCounter()
    {
#if defined(__linux__)
        if (fd_ >= 0)
            close(fd_);
#endif
    }
    void
    start()
    {
#if defined(__linux__)
        if (fd_ >= 0) {
            ioctl(fd_, PERF_EVENT_IOC_RESET, 0);
            ioctl(fd_, PERF_EVENT_IOC_ENABLE, 0);
        }
#endif
    }
    u64
    stop()
    {
#if defined(__linux__)
        if (fd_ >= 0) {
            ioctl(fd_, PERF_EVENT_IOC_DISABLE, 0);
            u64 count = 0;
            if (read(fd_, &count, sizeof(count)) == sizeof(count))
                return count;
        }
#endif
        return 0;
    }

  private:
    int fd_ = -1;
};

// ---- measurement -------------------------------------------------------

struct Row {
    std::string workload;
    std::string config;
    u64 cycles = 0;
    double naiveSeconds = 0;
    double eventSeconds = 0;
    double naiveMcps = 0;   //!< simulated Mcycles per wall-second
    double eventMcps = 0;
    double speedup = 0;     //!< eventMcps / naiveMcps
    u64 skippedCycles = 0;
    u64 smStepsElided = 0;
    u64 hostInstructionsNaive = 0;
    u64 hostInstructionsEvent = 0;
    double beforeMcps = 0;      //!< pre-PR loop, 0 when not supplied
    double speedupVsBefore = 0; //!< eventMcps / beforeMcps
};

struct Timed {
    double seconds = 0;
    u64 hostInstructions = 0;
    SimResult sim;
    LoopStats loop;
};

/**
 * Wall-clock Gpu::run() alone — compile, memory setup and result
 * verification are identical between the two loops and would only
 * dilute the measurement if included.  Shared artifacts (assembled
 * program, compiled kernel, DecodeCache) come from the engine's
 * content-addressed store, so repetitions and the naive/event pair
 * reuse one build instead of recompiling per run.
 */
Timed
timedRun(SweepEngine &engine, const RunConfig &cfg, const Workload &w,
         bool event_driven, HostInstructionCounter &ctr,
         LoopProfile *profile = nullptr)
{
    const PreparedJob p = engine.prepare({w.name(), cfg});
    GpuConfig gpu = p.gpu;
    gpu.eventDriven = event_driven;

    GlobalMemory mem(w.memoryBytes(p.launch));
    w.setup(mem, p.launch);

    TraceHooks hooks;
    hooks.loopProfile = profile;
    Gpu machine(gpu, p.compiled->kernel.program, p.launch, mem,
                std::move(hooks), &p.decode->cache);
    ctr.start();
    const auto t0 = std::chrono::steady_clock::now();
    Timed r;
    r.sim = machine.run();
    const auto t1 = std::chrono::steady_clock::now();
    r.hostInstructions = ctr.stop();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.loop = machine.loopStats();
    w.verify(mem, p.launch);
    return r;
}

/**
 * Best-of-N: simulated behaviour is deterministic across reps, so the
 * minimum wall time is the least-noisy estimate of the loop's cost
 * (scheduler preemption and cold caches only ever add time).
 */
Timed
bestOf(SweepEngine &engine, u32 reps, const RunConfig &cfg,
       const Workload &w, bool event_driven, HostInstructionCounter &ctr,
       LoopProfile *profile = nullptr)
{
    Timed best = timedRun(engine, cfg, w, event_driven, ctr, profile);
    for (u32 i = 1; i < reps; ++i) {
        Timed r = timedRun(engine, cfg, w, event_driven, ctr, profile);
        panicIf(!(r.sim == best.sim),
                "nondeterministic SimResult across benchmark reps");
        if (r.seconds < best.seconds)
            best = std::move(r);
    }
    return best;
}

// ---- minimal JSON writer / reader --------------------------------------
//
// The schema is flat and fully under our control, so a hand-rolled
// writer and a string-scanning reader keep the bench dependency-free.

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

void
writeReport(std::ostream &os, const std::vector<Row> &rows, u32 sms,
            u32 rounds)
{
    os << "{\n";
    os << "  \"bench\": \"simloop-trajectory\",\n";
    os << "  \"numSms\": " << sms << ",\n";
    os << "  \"roundsPerSm\": " << rounds << ",\n";
    os << "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        os << "    {\"workload\": \"" << jsonEscape(r.workload)
           << "\", \"config\": \"" << jsonEscape(r.config)
           << "\", \"cycles\": " << r.cycles
           << ", \"naiveSeconds\": " << fmtDouble(r.naiveSeconds)
           << ", \"eventSeconds\": " << fmtDouble(r.eventSeconds)
           << ", \"naiveMcps\": " << fmtDouble(r.naiveMcps)
           << ", \"eventMcps\": " << fmtDouble(r.eventMcps)
           << ", \"speedup\": " << fmtDouble(r.speedup)
           << ", \"skippedCycles\": " << r.skippedCycles
           << ", \"smStepsElided\": " << r.smStepsElided
           << ", \"hostInstructionsNaive\": " << r.hostInstructionsNaive
           << ", \"hostInstructionsEvent\": " << r.hostInstructionsEvent
           << ", \"beforeMcps\": " << fmtDouble(r.beforeMcps)
           << ", \"speedupVsBefore\": " << fmtDouble(r.speedupVsBefore)
           << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

/**
 * Pull `"workload"/"config" -> <number_key>` pairs out of a report
 * written by writeReport (or the seed-measurement script, which uses
 * the same row shape).  Scans for the known key strings rather than
 * parsing generally; exits with a diagnostic on malformed input.
 */
std::map<std::string, double>
readRowNumbers(const std::string &path, const char *number_key)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open baseline report " << path << "\n";
        std::exit(2);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    const auto fieldString = [&](size_t row_at, const char *key) {
        const std::string needle = std::string("\"") + key + "\": \"";
        const size_t at = text.find(needle, row_at);
        panicIf(at == std::string::npos, "missing key in report");
        const size_t start = at + needle.size();
        return text.substr(start, text.find('"', start) - start);
    };
    const auto fieldNumber = [&](size_t row_at, const char *key) {
        const std::string needle = std::string("\"") + key + "\": ";
        const size_t at = text.find(needle, row_at);
        panicIf(at == std::string::npos, "missing key in report");
        return std::stod(text.substr(at + needle.size()));
    };

    std::map<std::string, double> numbers;
    size_t at = text.find("{\"workload\"");
    while (at != std::string::npos) {
        const std::string key = fieldString(at, "workload") + "/" +
                                fieldString(at, "config");
        numbers[key] = fieldNumber(at, number_key);
        at = text.find("{\"workload\"", at + 1);
    }
    panicIf(numbers.empty(), "no rows found in baseline report");
    return numbers;
}

} // namespace

int
main(int argc, char **argv)
{
    u32 sms = 4, rounds = 3, reps = 3;
    bool profile = false;
    std::string out_path = "BENCH_simloop.json";
    std::string check_path, before_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg == "--quick")
            rounds = 1;
        else if (arg.rfind("--sms=", 0) == 0)
            ok = parseCanonical(arg.substr(6), sms);
        else if (arg.rfind("--rounds=", 0) == 0)
            ok = parseCanonical(arg.substr(9), rounds);
        else if (arg.rfind("--reps=", 0) == 0)
            ok = parseCanonical(arg.substr(7), reps);
        else if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else if (arg.rfind("--check=", 0) == 0)
            check_path = arg.substr(8);
        else if (arg.rfind("--before=", 0) == 0)
            before_path = arg.substr(9);
        else if (arg == "--profile")
            profile = true;
        else if (arg == "--help" || arg == "-h") {
            std::cout << "options: --quick --sms=N --rounds=N --reps=N "
                         "--out=FILE --check=FILE --before=FILE "
                         "--profile\n";
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

    // The three regfile configurations of the paper's evaluation.
    std::vector<RunConfig> configs{RunConfig::baseline(),
                                   RunConfig::virtualized(),
                                   RunConfig::gpuShrink(50)};
    for (RunConfig &cfg : configs) {
        cfg.numSms = sms;
        cfg.roundsPerSm = rounds;
    }

    std::map<std::string, double> before;
    if (!before_path.empty())
        before = readRowNumbers(before_path, "mcps");

    HostInstructionCounter ctr;
    // No result cache: every run must execute to be timed.  The engine
    // is used purely for its shared artifact store.
    SweepEngine engine({.jobs = 1, .cacheDir = "", .useCache = false});
    std::vector<Row> rows;
    std::cout << "simloop trajectory: " << sms << " SMs, " << rounds
              << " round(s)/SM, best of " << reps
              << ", naive vs event-driven loop\n\n";
    std::printf("%-12s %-22s %10s %9s %9s %8s %7s %7s\n", "workload",
                "config", "cycles", "naive s", "event s", "ev Mc/s",
                "speedup", "vs-pre");
    for (const RunConfig &base_cfg : configs) {
        for (const auto &w : allWorkloads()) {
            const RunConfig &cfg = base_cfg;
            LoopProfile event_prof;
            const Timed naive = bestOf(engine, reps, cfg, *w, false, ctr);
            const Timed event =
                bestOf(engine, reps, cfg, *w, true, ctr,
                       profile ? &event_prof : nullptr);
            panicIf(!(naive.sim == event.sim),
                    "event loop diverged from naive loop on " +
                        w->name() + "/" + cfg.label);

            Row r;
            r.workload = w->name();
            r.config = cfg.label;
            r.cycles = event.sim.cycles;
            r.naiveSeconds = naive.seconds;
            r.eventSeconds = event.seconds;
            r.naiveMcps =
                static_cast<double>(r.cycles) / naive.seconds / 1e6;
            r.eventMcps =
                static_cast<double>(r.cycles) / event.seconds / 1e6;
            r.speedup = r.eventMcps / r.naiveMcps;
            r.skippedCycles = event.loop.skippedCycles;
            r.smStepsElided = event.loop.smStepsElided;
            r.hostInstructionsNaive = naive.hostInstructions;
            r.hostInstructionsEvent = event.hostInstructions;
            const auto pre = before.find(r.workload + "/" + r.config);
            if (pre != before.end() && pre->second > 0) {
                r.beforeMcps = pre->second;
                r.speedupVsBefore = r.eventMcps / r.beforeMcps;
            }
            rows.push_back(r);

            std::printf(
                "%-12s %-22s %10llu %9.3f %9.3f %8.2f %6.2fx %6.2fx\n",
                r.workload.c_str(), r.config.c_str(),
                static_cast<unsigned long long>(r.cycles),
                r.naiveSeconds, r.eventSeconds, r.eventMcps, r.speedup,
                r.speedupVsBefore);
            if (profile) {
                // Buckets accumulate over all reps; ns/step averages
                // normalize by the step count, so reps cancel out.
                std::fputs(formatLoopProfile(event_prof).c_str(),
                           stdout);
            }
        }
    }

    std::ofstream out(out_path);
    writeReport(out, rows, sms, rounds);
    std::cout << "\nwrote " << out_path << " (" << rows.size()
              << " rows)\n";

    if (check_path.empty())
        return 0;

    // Regression gate: compare speedup RATIOS against the committed
    // baseline.  Ratios divide out the host's absolute speed, so the
    // gate holds across CI machine generations; 0.85 tolerates run-to-
    // run noise while catching the optimization being disabled or
    // pessimized (which shows up as the ratio collapsing toward 1.0
    // or below).
    const auto baseline = readRowNumbers(check_path, "speedup");
    bool failed = false;
    for (const Row &r : rows) {
        const std::string key = r.workload + "/" + r.config;
        const auto it = baseline.find(key);
        if (it == baseline.end()) {
            std::cerr << "NOTE: " << key
                      << " not in baseline report, skipping\n";
            continue;
        }
        // Sub-5k-cycle runs finish in well under a millisecond, where
        // timer granularity and scheduler jitter swamp the loop cost;
        // gating them would make CI flaky without guarding anything.
        if (r.cycles < 5000)
            continue;
        if (r.speedup < 0.95) {
            std::cerr << "FAIL: " << key << " event loop slower than "
                      << "naive (" << fmtDouble(r.speedup) << "x)\n";
            failed = true;
        }
        if (r.speedup < 0.85 * it->second) {
            std::cerr << "FAIL: " << key << " speedup "
                      << fmtDouble(r.speedup) << "x regressed >15% vs "
                      << "baseline " << fmtDouble(it->second) << "x\n";
            failed = true;
        }
    }
    if (failed)
        return 1;
    std::cout << "check passed: no speedup regressed >15% vs "
              << check_path << "\n";
    return 0;
}
