/**
 * @file
 * Workload runner: execute any registered Table-1 benchmark under any
 * named register-file configuration and print a summary or a CSV row —
 * the everyday driver a downstream user scripts sweeps with.
 *
 * Usage:
 *   run_workload <workload|all> [--config=NAME] [--sms=N] [--rounds=N]
 *                [--csv] [--verify] [--loop=event|naive] [--progress]
 *                [--profile]
 *
 * --config names an entry of the shared config table (runConfigByName;
 * default virtualized): baseline, virtualized, virtualized-gating,
 * shrink25, shrink50, shrink50-gating, spill50, hwonly, hwonly-gating.
 * The `-gating` names add power gating.  --sms and --rounds must be
 * canonical decimals; anything else prints `unparsable value in
 * <flag>` and exits 2.
 *
 * --verify runs the static release-flag soundness verifier on each
 * compiled kernel and enables the runtime register-lifecycle lint;
 * diagnostics print with the report and a verification error fails
 * the run (exit 1).
 *
 * --loop selects the cycle loop (event-driven fast-forward is the
 * default; naive steps every cycle and is the equivalence oracle).
 * --progress prints, per run, how many cycles the loop actually
 * stepped vs. fast-forwarded and how many per-SM steps were elided.
 * --profile prints a per-phase wall-clock breakdown of the stepped
 * cycles (fetch/schedule/execute/commit, ns per step and % of step
 * time) so loop-speed changes are attributable to a phase.
 *
 * Examples:
 *   run_workload MatrixMul --config=shrink50-gating
 *   run_workload all --config=virtualized --csv > sweep.csv
 *   run_workload all --config=virtualized --verify
 *   run_workload BFS --config=baseline --progress
 */
#include <iostream>

#include "common/decimal.h"
#include "core/report.h"
#include "service/request.h"
#include "sim/loop_profiler.h"

using namespace rfv;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: run_workload <workload|all> "
                     "[--config=...] [--sms=N] [--rounds=N] "
                     "[--csv]\n       workloads:";
        for (const auto &w : allWorkloads())
            std::cerr << " " << w->name();
        std::cerr << "\n";
        return 2;
    }
    const std::string target = argv[1];
    std::string configName = "virtualized";
    std::string loopName = "event";
    u32 sms = 4, rounds = 3;
    bool csv = false, verify = false, progress = false, profile = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg.rfind("--config=", 0) == 0)
            configName = arg.substr(9);
        else if (arg.rfind("--sms=", 0) == 0)
            ok = parseCanonical(arg.substr(6), sms);
        else if (arg.rfind("--rounds=", 0) == 0)
            ok = parseCanonical(arg.substr(9), rounds);
        else if (arg.rfind("--loop=", 0) == 0)
            loopName = arg.substr(7);
        else if (arg == "--csv")
            csv = true;
        else if (arg == "--verify")
            verify = true;
        else if (arg == "--progress")
            progress = true;
        else if (arg == "--profile")
            profile = true;
        else {
            std::cerr << "unknown option " << arg << "\n";
            return 2;
        }
        if (!ok) {
            std::cerr << "unparsable value in " << arg << "\n";
            return 2;
        }
    }
    if (loopName != "event" && loopName != "naive") {
        std::cerr << "unknown loop " << loopName
                  << " (expected event or naive)\n";
        return 2;
    }

    RunConfig cfg;
    if (!runConfigByName(configName, cfg)) {
        std::cerr << "unknown config " << configName << "\n";
        return 2;
    }
    cfg.numSms = sms;
    cfg.roundsPerSm = rounds;
    cfg.verifyReleases = verify;
    cfg.eventDriven = loopName == "event";

    bool verifyFailed = false;
    try {
        const std::vector<std::shared_ptr<Workload>> targets =
            target == "all" ? allWorkloads()
                            : std::vector{findWorkload(target)};
        Simulator sim(cfg);
        if (csv)
            std::cout << csvHeader() << "\n";
        for (const auto &w : targets) {
            LoopProfile prof;
            TraceHooks hooks;
            if (profile)
                hooks.loopProfile = &prof;
            const RunOutcome out = sim.runWorkload(*w, std::move(hooks));
            if (csv)
                std::cout << csvRow(out) << "\n";
            else
                std::cout << summarize(out) << "\n";
            if (profile) {
                std::cout << "  [profile] " << prof.steps
                          << " stepped SM-cycles\n"
                          << formatLoopProfile(prof);
            }
            if (progress) {
                const double skipped_pct =
                    out.sim.cycles
                        ? 100.0 *
                              static_cast<double>(out.loop.skippedCycles) /
                              static_cast<double>(out.sim.cycles)
                        : 0.0;
                std::cout << "  [loop] simulated " << out.loop.steppedCycles
                          << " cycles, fast-forwarded "
                          << out.loop.skippedCycles << " ("
                          << skipped_pct << "% of " << out.sim.cycles
                          << "), elided " << out.loop.smStepsElided
                          << " per-SM steps\n";
            }
            verifyFailed |= out.verified && !out.verify.ok();
        }
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return verifyFailed ? 1 : 0;
}
