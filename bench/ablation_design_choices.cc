/**
 * @file
 * Ablation harness for the design choices DESIGN.md calls out, averaged
 * over all 16 workloads at the half-size (GPU-shrink-50) operating
 * point where they matter most:
 *   - bank-restricted vs. unrestricted renaming,
 *   - conservative (paper) vs. aggressive divergence releases,
 *   - renaming pipeline latency (0 / 1 / 2 cycles),
 *   - flag-miss fetch bubble on/off.
 */
#include "bench/bench_common.h"
#include "common/table.h"

using namespace rfv;

namespace {

struct Variant {
    std::string label;
    RunConfig cfg;
    u32 renamingLatency = 1;
    bool flagMissBubble = true;
};

double
meanCycles(const BenchArgs &args, const Variant &v,
           const std::vector<double> &baseline, double &stallSum)
{
    double ratioSum = 0;
    u32 i = 0;
    stallSum = 0;
    for (const auto &w : allWorkloads()) {
        Simulator sim(args.apply(v.cfg));
        GpuConfig gpu = sim.gpuConfig();
        gpu.renamingLatency = v.renamingLatency;
        gpu.flagMissBubble = v.flagMissBubble;
        const auto launch = w->scaledLaunch(args.numSms, args.rounds);
        GlobalMemory mem(w->memoryBytes(launch));
        w->setup(mem, launch);
        CompileOptions copts =
            sim.compileOptions(sim.residentWarps(launch));
        const auto ck = compileKernel(w->buildKernel(), copts);
        Gpu machine(gpu, ck.program, launch, mem);
        const auto res = machine.run();
        w->verify(mem, launch);
        ratioSum += static_cast<double>(res.cycles) / baseline[i];
        stallSum += static_cast<double>(res.allocStallEvents);
        ++i;
    }
    return ratioSum / static_cast<double>(allWorkloads().size());
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = BenchArgs::parse(argc, argv);

    // Baseline cycles per workload (128 KB, classic allocation).
    std::vector<double> baseline;
    for (const auto &w : allWorkloads()) {
        const auto out = runOne(args, RunConfig::baseline(), *w);
        baseline.push_back(static_cast<double>(out.sim.cycles));
    }

    std::vector<Variant> variants;
    variants.push_back({"shrink50 (paper design)",
                        RunConfig::gpuShrink(50), 1, true});
    {
        RunConfig c = RunConfig::gpuShrink(50);
        c.bankRestricted = false;
        variants.push_back({"shrink50, unrestricted banks", c, 1,
                            true});
    }
    {
        RunConfig c = RunConfig::gpuShrink(50);
        c.aggressiveDiverged = true;
        variants.push_back({"shrink50, aggressive releases", c, 1,
                            true});
    }
    variants.push_back({"shrink50, 0-cycle rename",
                        RunConfig::gpuShrink(50), 0, true});
    variants.push_back({"shrink50, 2-cycle rename",
                        RunConfig::gpuShrink(50), 2, true});
    variants.push_back({"shrink50, no flag-miss bubble",
                        RunConfig::gpuShrink(50), 1, false});

    std::cout << "Ablation: design choices at the 64KB (GPU-shrink-50) "
                 "operating point\n(cycles normalized to the 128KB "
                 "baseline, averaged over all 16 workloads)\n\n";
    Table t({"Variant", "Mean norm. cycles", "Alloc-stall events"});
    for (const auto &v : variants) {
        double stalls = 0;
        const double mean = meanCycles(args, v, baseline, stalls);
        t.addRow({v.label, Table::num(mean, 4), Table::num(stalls, 0)});
    }
    std::cout << t.str();
    std::cout << "\nBank-unrestricted renaming trades the compiler's "
                 "bank-conflict guarantees for fewer allocation "
                 "stalls; the paper keeps the restriction (Sec. 7.1).\n";
    return 0;
}
