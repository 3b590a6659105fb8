/**
 * @file
 * Shared command-line handling for the figure/table reproduction
 * binaries.
 *
 * Every bench accepts:
 *   --sms=N      number of simulated SMs (default 4; paper used 16)
 *   --rounds=N   waves of full occupancy per SM to cap the grid
 *                (default 3; keeps laptop runtimes in seconds)
 *   --full       run the full Table-1 grids (slow, closest to paper)
 */
#ifndef RFV_BENCH_BENCH_COMMON_H
#define RFV_BENCH_BENCH_COMMON_H

#include <cstring>
#include <iostream>
#include <string>

#include "common/decimal.h"
#include "core/simulator.h"

namespace rfv {

struct BenchArgs {
    u32 numSms = 4;
    u32 rounds = 3;

    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs args;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            bool ok = true;
            if (arg.rfind("--sms=", 0) == 0) {
                ok = parseCanonical(arg.substr(6), args.numSms);
            } else if (arg.rfind("--rounds=", 0) == 0) {
                ok = parseCanonical(arg.substr(9), args.rounds);
            } else if (arg == "--full") {
                args.rounds = 0;
            } else if (arg == "--help" || arg == "-h") {
                std::cout << "options: --sms=N --rounds=N --full\n";
                std::exit(0);
            } else {
                std::cerr << "unknown option: " << arg << "\n";
                std::exit(2);
            }
            if (!ok) {
                std::cerr << "unparsable value in " << arg << "\n";
                std::exit(2);
            }
        }
        return args;
    }

    RunConfig
    apply(RunConfig cfg) const
    {
        cfg.numSms = numSms;
        cfg.roundsPerSm = rounds;
        return cfg;
    }
};

/** Run one workload under one config (setup + verify included). */
inline RunOutcome
runOne(const BenchArgs &args, const RunConfig &cfg, const Workload &w)
{
    Simulator sim(args.apply(cfg));
    return sim.runWorkload(w);
}

} // namespace rfv

#endif // RFV_BENCH_BENCH_COMMON_H
