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

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "compiler/pipeline.h"
#include "service/result_cache.h"
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

/**
 * The lines that differ between the two results' cache texts, so the
 * diagnostic names every field the codec walk names.
 */
std::string
diffResults(const SimResult &a, const SimResult &b)
{
    const auto lines = [](const SimResult &sim) {
        RunOutcome outcome;
        outcome.sim = sim;
        std::ostringstream os;
        ResultCache::serialize(os, outcome);
        std::istringstream is(os.str());
        std::vector<std::string> out;
        for (std::string line; std::getline(is, line);)
            out.push_back(line);
        return out;
    };
    const std::vector<std::string> x = lines(a), y = lines(b);
    std::ostringstream os;
    for (size_t i = 0; i < std::max(x.size(), y.size()); ++i) {
        const std::string l = i < x.size() ? x[i] : "(none)";
        const std::string r = i < y.size() ? y[i] : "(none)";
        if (l != r)
            os << "  " << l << " vs " << r << "\n";
    }
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

struct HookedRun {
    SimResult sim;
    LoopStats loop;
    std::vector<std::tuple<Cycle, u32, u32>> samples;
    std::vector<std::tuple<Cycle, u32, u32, u32, RegEvent>> events;
};

HookedRun
runHooked(bool event_driven)
{
    const auto workload = findWorkload("MUM");
    CompileOptions copts;
    copts.virtualize = true;
    copts.renamingTableBytes = 1024;
    copts.residentWarps = 48;
    const auto ck = compileKernel(workload->buildKernel(), copts);

    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.eventDriven = event_driven;
    cfg.regFile.mode = RegFileMode::kVirtualized;

    const LaunchParams launch = workload->scaledLaunch(cfg.numSms, 1);
    GlobalMemory mem(workload->memoryBytes(launch));
    workload->setup(mem, launch);

    HookedRun out;
    TraceHooks hooks;
    hooks.samplePeriod = 37;
    hooks.liveSample = [&](Cycle c, u32 mapped, u32 reserved) {
        out.samples.emplace_back(c, mapped, reserved);
    };
    hooks.regEvent = [&](Cycle c, u32 sm, u32 warp, u32 reg, RegEvent e) {
        out.events.emplace_back(c, sm, warp, reg, e);
    };

    Gpu gpu(cfg, ck.program, launch, mem, hooks);
    out.sim = gpu.run();
    out.loop = gpu.loopStats();
    workload->verify(mem, launch);
    return out;
}

TEST(EventEquivalence, TraceHooksSeeTheSameStreamOnBothLoops)
{
    // Trace hooks run on the event-driven loop: register events fire
    // only inside a step, which elided cycles never contain, and the
    // sampled SM is woken on every sample cycle.  Both loops must hand
    // the hooks the same streams.
    const HookedRun naive = runHooked(false);
    const HookedRun event = runHooked(true);
    EXPECT_TRUE(naive.sim == event.sim) << diffResults(naive.sim, event.sim);
    EXPECT_EQ(naive.samples.size(), (naive.sim.cycles - 1) / 37 + 1);
    EXPECT_TRUE(naive.samples == event.samples)
        << naive.samples.size() << " vs " << event.samples.size()
        << " samples";
    EXPECT_FALSE(naive.events.empty());
    EXPECT_TRUE(naive.events == event.events)
        << naive.events.size() << " vs " << event.events.size()
        << " register events";
    EXPECT_EQ(naive.loop.skippedCycles, 0u);
    EXPECT_GT(event.loop.skippedCycles, 0u)
        << "hooked runs must still fast-forward";
}

} // namespace
} // namespace rfv
