/**
 * @file
 * Naive-vs-event-driven loop equivalence: the cycle-skipping loop
 * (GpuConfig::eventDriven) must be architecturally invisible.  For
 * every Table-1 workload, in every register-file mode and at 2 and 4
 * SMs (8 for a memory- and atomic-heavy subset), the event-driven loop
 * must produce a bit-identical SimResult (every counter, including
 * reconstructed per-cycle stats like idle/throttle/sampling cycles)
 * and final memory image — the naive step-every-cycle loop is the
 * oracle.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "compiler/pipeline.h"
#include "sim/gpu.h"
#include "workloads/workload.h"

namespace rfv {
namespace {

struct Case {
    std::string workload;
    RegFileMode mode;
    bool virtualize;
    u32 rfBytes;
    u32 numSms;
};

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    std::string mode;
    switch (info.param.mode) {
      case RegFileMode::kBaseline: mode = "Baseline"; break;
      case RegFileMode::kVirtualized:
        mode = info.param.rfBytes < 128 * 1024 ? "Shrink" : "Virtual";
        break;
      case RegFileMode::kHardwareOnly: mode = "HwOnly"; break;
    }
    return info.param.workload + "_" + mode + "_" +
           std::to_string(info.param.numSms) + "sm";
}

struct RunOutput {
    SimResult sim;
    LoopStats loop;
    std::vector<u32> memory;
};

RunOutput
runCase(const Case &c, bool event_driven)
{
    const auto workload = findWorkload(c.workload);

    CompileOptions copts;
    copts.virtualize = c.virtualize;
    copts.renamingTableBytes = 1024;
    copts.residentWarps = 48;
    const auto ck = compileKernel(workload->buildKernel(), copts);

    GpuConfig cfg;
    cfg.numSms = c.numSms;
    cfg.eventDriven = event_driven;
    cfg.regFile.mode = c.mode;
    cfg.regFile.sizeBytes = c.rfBytes;

    const LaunchParams launch = workload->scaledLaunch(cfg.numSms, 1);
    GlobalMemory mem(workload->memoryBytes(launch));
    workload->setup(mem, launch);

    Gpu gpu(cfg, ck.program, launch, mem);
    RunOutput out;
    out.sim = gpu.run();
    out.loop = gpu.loopStats();
    workload->verify(mem, launch);
    out.memory.resize(mem.sizeBytes() / 4);
    for (u32 w = 0; w < out.memory.size(); ++w)
        out.memory[w] = mem.word(w);
    return out;
}

/** Human-readable diff of the counters that diverged. */
std::string
diffResults(const SimResult &a, const SimResult &b)
{
    std::ostringstream os;
    const auto field = [&os](const char *name, u64 x, u64 y) {
        if (x != y)
            os << "  " << name << ": " << x << " vs " << y << "\n";
    };
    field("cycles", a.cycles, b.cycles);
    field("issuedInstrs", a.issuedInstrs, b.issuedInstrs);
    field("threadInstrs", a.threadInstrs, b.threadInstrs);
    field("metaEncounters", a.metaEncounters, b.metaEncounters);
    field("metaDecoded", a.metaDecoded, b.metaDecoded);
    field("flagCacheHits", a.flagCacheHits, b.flagCacheHits);
    field("flagCacheMisses", a.flagCacheMisses, b.flagCacheMisses);
    field("scoreboardStalls", a.scoreboardStalls, b.scoreboardStalls);
    field("allocStallEvents", a.allocStallEvents, b.allocStallEvents);
    field("throttleActiveCycles", a.throttleActiveCycles,
          b.throttleActiveCycles);
    field("bankConflictCycles", a.bankConflictCycles,
          b.bankConflictCycles);
    field("spillEvents", a.spillEvents, b.spillEvents);
    field("spilledRegs", a.spilledRegs, b.spilledRegs);
    field("refilledRegs", a.refilledRegs, b.refilledRegs);
    field("wakeStallEvents", a.wakeStallEvents, b.wakeStallEvents);
    field("icacheHits", a.icacheHits, b.icacheHits);
    field("icacheMisses", a.icacheMisses, b.icacheMisses);
    field("dcacheHits", a.dcacheHits, b.dcacheHits);
    field("dcacheMisses", a.dcacheMisses, b.dcacheMisses);
    field("peakResidentWarps", a.peakResidentWarps, b.peakResidentWarps);
    field("completedCtas", a.completedCtas, b.completedCtas);
    field("dram.requests", a.dram.requests, b.dram.requests);
    field("dram.transactions", a.dram.transactions, b.dram.transactions);
    field("dram.queueCycles", a.dram.queueCycles, b.dram.queueCycles);
    field("rf.allocations", a.rf.allocations, b.rf.allocations);
    field("rf.releases", a.rf.releases, b.rf.releases);
    field("rf.wakeEvents", a.rf.wakeEvents, b.rf.wakeEvents);
    field("rf.activeSubarrayCycles", a.rf.activeSubarrayCycles,
          b.rf.activeSubarrayCycles);
    field("rf.sampledCycles", a.rf.sampledCycles, b.rf.sampledCycles);
    field("rf.allocWatermark", a.rf.allocWatermark, b.rf.allocWatermark);
    field("rf.touchedCount", a.rf.touchedCount, b.rf.touchedCount);
    field("rename.lookups", a.rename.lookups, b.rename.lookups);
    field("rename.updates", a.rename.updates, b.rename.updates);
    field("rename.mappedRegCycles", a.rename.mappedRegCycles,
          b.rename.mappedRegCycles);
    field("rename.sampledCycles", a.rename.sampledCycles,
          b.rename.sampledCycles);
    return os.str();
}

class EventEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(EventEquivalence, BitIdenticalToNaiveLoop)
{
    const Case &c = GetParam();
    const RunOutput naive = runCase(c, false);
    const RunOutput event = runCase(c, true);
    EXPECT_TRUE(naive.sim == event.sim)
        << "SimResult diverged:\n" << diffResults(naive.sim, event.sim);
    EXPECT_EQ(naive.memory, event.memory)
        << "final memory image diverged";
    // The naive loop must execute every cycle; the event loop must
    // account for every cycle one way or the other.
    EXPECT_EQ(naive.loop.skippedCycles, 0u);
    EXPECT_EQ(naive.loop.steppedCycles, naive.sim.cycles);
    EXPECT_EQ(event.loop.steppedCycles + event.loop.skippedCycles,
              event.sim.cycles);
}

std::vector<Case>
allCases()
{
    // Every workload in the three regfile configurations the paper's
    // evaluation uses (baseline, virtualized, GPU-shrink to a 64 KB
    // file) at 2 SMs, plus a 4-SM shrink variant so per-SM step
    // elision is checked while SMs contend for CTAs; and an 8-SM
    // shrink subset (atomics, irregular memory) for wider fleets.
    std::vector<Case> cases;
    for (const auto &w : allWorkloads()) {
        cases.push_back({w->name(), RegFileMode::kBaseline, false,
                         128 * 1024, 2});
        cases.push_back({w->name(), RegFileMode::kVirtualized, true,
                         128 * 1024, 2});
        cases.push_back({w->name(), RegFileMode::kVirtualized, true,
                         64 * 1024, 2});
        cases.push_back({w->name(), RegFileMode::kVirtualized, true,
                         64 * 1024, 4});
    }
    for (const char *name : {"MatrixMul", "Reduction", "MUM", "BFS"})
        cases.push_back({name, RegFileMode::kVirtualized, true,
                         64 * 1024, 8});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EventEquivalence,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(EventEquivalence, EventLoopActuallySkipsCycles)
{
    // Guard against the optimization silently degrading into
    // step-every-cycle: a memory-latency-dominated workload must
    // fast-forward a significant share of its cycles.  MUM's long
    // DRAM-bound phases make whole-fleet quiescence common even at
    // this small scale (~66% of cycles skipped when written).
    const Case c{"MUM", RegFileMode::kBaseline, false, 128 * 1024, 2};
    const RunOutput event = runCase(c, true);
    EXPECT_GT(event.loop.skippedCycles, event.sim.cycles / 4)
        << "event-driven loop skipped almost nothing";
}

TEST(EventEquivalence, TraceHooksFallBackToNaiveLoop)
{
    // Per-cycle hooks must observe every cycle, so the event loop
    // auto-falls back; results are identical either way.
    const auto workload = findWorkload("Reduction");
    CompileOptions copts;
    copts.virtualize = true;
    copts.renamingTableBytes = 1024;
    copts.residentWarps = 48;
    const auto ck = compileKernel(workload->buildKernel(), copts);

    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.eventDriven = true;
    cfg.regFile.mode = RegFileMode::kVirtualized;

    const LaunchParams launch = workload->scaledLaunch(cfg.numSms, 1);
    GlobalMemory mem(workload->memoryBytes(launch));
    workload->setup(mem, launch);

    u64 samples = 0;
    TraceHooks hooks;
    hooks.samplePeriod = 100;
    hooks.liveSample = [&](Cycle, u32, u32) { ++samples; };

    Gpu gpu(cfg, ck.program, launch, mem, hooks);
    const SimResult res = gpu.run();
    EXPECT_EQ(gpu.loopStats().skippedCycles, 0u);
    EXPECT_EQ(gpu.loopStats().steppedCycles, res.cycles);
    EXPECT_GE(samples, res.cycles / 100);
}

} // namespace
} // namespace rfv
