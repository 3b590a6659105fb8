#include "core/simulator.h"

#include "common/bit_utils.h"

namespace rfv {

Simulator::Simulator(RunConfig cfg) : cfg_(std::move(cfg)) {}

GpuConfig
Simulator::gpuConfig() const
{
    GpuConfig gpu;
    gpu.numSms = cfg_.numSms;
    gpu.eventDriven = cfg_.eventDriven;
    gpu.regFile.mode = cfg_.mode;
    gpu.regFile.sizeBytes = cfg_.rfSizeBytes;
    gpu.regFile.powerGating = cfg_.powerGating;
    gpu.regFile.wakeupLatency = cfg_.wakeupLatency;
    gpu.regFile.flagCacheEntries = cfg_.flagCacheEntries;
    gpu.regFile.bankRestrictedRenaming = cfg_.bankRestricted;
    gpu.regFile.lifecycleLint = cfg_.verifyReleases;
    gpu.validate();
    return gpu;
}

CompileOptions
Simulator::compileOptions(u32 resident_warps) const
{
    CompileOptions opts;
    opts.virtualize = cfg_.virtualize;
    opts.aggressiveDiverged = cfg_.aggressiveDiverged;
    opts.renamingTableBytes = cfg_.renamingTableBytes;
    opts.residentWarps = resident_warps;
    const GpuConfig gpu = gpuConfig();
    opts.tableEntryBits = 1;
    while ((1u << opts.tableEntryBits) < gpu.regFile.physRegs())
        ++opts.tableEntryBits;
    return opts;
}

u32
Simulator::residentWarps(const LaunchParams &launch) const
{
    return launch.warpsPerCta() *
           std::min(launch.concCtasPerSm, gpuConfig().maxCtasPerSm);
}

u32
Simulator::spillBudget(u32 kernel_regs, const LaunchParams &launch) const
{
    const GpuConfig gpu = gpuConfig();
    const u32 per_bank = gpu.regFile.regsPerBank();
    const u32 warps = residentWarps(launch);
    // Largest R with warps * ceil(R/banks) <= regsPerBank.
    for (u32 r = kernel_regs; r >= 4; --r) {
        const u32 per_bank_need =
            static_cast<u32>(ceilDiv(r, gpu.regFile.numBanks)) * warps;
        if (per_bank_need <= per_bank)
            return r == kernel_regs ? 0 : r;
    }
    return 4;
}

RunOutcome
Simulator::runProgram(const Program &input, const LaunchParams &launch,
                      GlobalMemory &mem, TraceHooks hooks) const
{
    const GpuConfig gpu = gpuConfig();
    CompileOptions copts = compileOptions(residentWarps(launch));
    if (cfg_.compilerSpill)
        copts.spillRegBudget = spillBudget(input.numRegs, launch);

    CompiledKernel ck = compileKernel(input, copts);

    RunOutcome out;
    out.workload = input.name;
    out.configLabel = cfg_.label;
    out.launch = launch;
    out.compile = ck.stats;

    if (cfg_.verifyReleases) {
        // Static soundness pass over the compiled program.  The run
        // proceeds even on errors: the runtime lifecycle lint (enabled
        // alongside) then pinpoints the dynamic manifestation.
        out.verified = true;
        out.verify = verifyReleaseSoundness(ck.program);
    }

    Gpu machine(gpu, ck.program, launch, mem, std::move(hooks));
    out.sim = machine.run();
    out.loop = machine.loopStats();

    EnergyParams ep;
    ep.clockGhz = gpu.clockGhz;
    out.energy = computeEnergy(out.sim, gpu, ep);
    return out;
}

RunOutcome
Simulator::runWorkload(const Workload &workload, TraceHooks hooks) const
{
    const LaunchParams launch =
        workload.scaledLaunch(cfg_.numSms, cfg_.roundsPerSm);
    GlobalMemory mem(workload.memoryBytes(launch));
    workload.setup(mem, launch);
    RunOutcome out = runProgram(workload.buildKernel(), launch, mem,
                                std::move(hooks));
    out.workload = workload.name();
    workload.verify(mem, launch);
    return out;
}

} // namespace rfv
