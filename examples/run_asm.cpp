/**
 * @file
 * Kernel runner: assemble a kernel from a .asm file and execute it
 * under any register-file configuration — a harness for experimenting
 * with the ISA and the virtualization machinery without writing C++.
 *
 * Usage:
 *   run_asm <kernel.asm> [--config=NAME] [--ctas=N] [--threads=N]
 *           [--sms=N] [--dump-memory=N]
 *
 * --config names an entry of the shared config table (runConfigByName;
 * default virtualized): baseline, virtualized, virtualized-gating,
 * shrink25, shrink50, shrink50-gating, spill50, hwonly, hwonly-gating.
 * The `-gating` names add power gating.  Numeric flags must be
 * canonical decimals; anything else prints `unparsable value in
 * <flag>` and exits 2.
 *
 * The kernel gets 1 MB of zero-initialized global memory; use
 * --dump-memory=N to print the first N words after the run.
 */
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/decimal.h"
#include "common/table.h"
#include "core/simulator.h"
#include "isa/assembler.h"
#include "service/request.h"

using namespace rfv;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: run_asm <kernel.asm> [--config=...] "
                     "[--ctas=N] [--threads=N] [--sms=N] "
                     "[--dump-memory=N]\n";
        return 2;
    }
    std::string configName = "virtualized";
    u32 ctas = 4, threads = 128, sms = 1, dumpWords = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg.rfind("--config=", 0) == 0)
            configName = arg.substr(9);
        else if (arg.rfind("--ctas=", 0) == 0)
            ok = parseCanonical(arg.substr(7), ctas);
        else if (arg.rfind("--threads=", 0) == 0)
            ok = parseCanonical(arg.substr(10), threads);
        else if (arg.rfind("--sms=", 0) == 0)
            ok = parseCanonical(arg.substr(6), sms);
        else if (arg.rfind("--dump-memory=", 0) == 0)
            ok = parseCanonical(arg.substr(14), dumpWords);
        else {
            std::cerr << "unknown option " << arg << "\n";
            return 2;
        }
        if (!ok) {
            std::cerr << "unparsable value in " << arg << "\n";
            return 2;
        }
    }

    std::ifstream in(argv[1]);
    if (!in) {
        std::cerr << "cannot open " << argv[1] << "\n";
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();

    RunConfig cfg;
    if (!runConfigByName(configName, cfg)) {
        std::cerr << "unknown config " << configName << "\n";
        return 2;
    }
    cfg.numSms = sms;

    try {
        const Program prog = assemble(ss.str());
        std::cout << "Assembled " << prog.code.size()
                  << " instructions, " << prog.numRegs
                  << " registers per thread\n\n";

        LaunchParams launch;
        launch.gridCtas = ctas;
        launch.threadsPerCta = threads;
        GlobalMemory mem(1024 * 1024);

        Simulator sim(cfg);
        const RunOutcome out = sim.runProgram(prog, launch, mem);

        Table t({"Metric", "Value"});
        t.addRow({"configuration", cfg.label});
        t.addRow({"cycles", std::to_string(out.sim.cycles)});
        t.addRow({"warp instructions",
                  std::to_string(out.sim.issuedInstrs)});
        t.addRow({"thread instructions",
                  std::to_string(out.sim.threadInstrs)});
        t.addRow({"metadata decoded",
                  std::to_string(out.sim.metaDecoded)});
        t.addRow({"peak physical registers",
                  std::to_string(out.sim.rf.allocWatermark)});
        t.addRow({"allocation reduction (%)",
                  Table::num(out.sim.allocationReductionPct(), 1)});
        t.addRow({"DRAM transactions",
                  std::to_string(out.sim.dram.transactions)});
        t.addRow({"RF energy (uJ)",
                  Table::num(out.energy.totalJ() * 1e6, 3)});
        std::cout << t.str();

        if (dumpWords) {
            std::cout << "\nmemory[0.." << dumpWords - 1 << "]:";
            for (u32 w = 0; w < dumpWords; ++w)
                std::cout << (w % 8 == 0 ? "\n  " : " ")
                          << mem.word(w);
            std::cout << "\n";
        }
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return 0;
}
