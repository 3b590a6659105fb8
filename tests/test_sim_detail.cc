/**
 * @file
 * Second wave of simulator tests: memory-system limits (MSHRs, DRAM
 * contention), the renaming pipeline-latency model, partial warps,
 * trace hooks, stats invariants, and the CSV report.
 */
#include <gtest/gtest.h>

#include "compiler/pipeline.h"
#include "core/report.h"
#include "isa/builder.h"
#include "sim/gpu.h"
#include "sim/icache.h"

namespace rfv {
namespace {

/** Streams loads: every thread loads kLoads words and sums them. */
Program
loadStormKernel(u32 numLoads)
{
    KernelBuilder b("loadstorm");
    const u32 tid = b.reg(), cta = b.reg(), n = b.reg(),
              addr = b.reg(), acc = b.reg(), v = b.reg(), k = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.s2r(cta, SpecialReg::kCtaId);
    b.s2r(n, SpecialReg::kNTid);
    b.imad(addr, R(cta), R(n), R(tid));
    b.shl(addr, R(addr), I(2));
    b.mov(acc, I(0));
    b.mov(k, I(0));
    b.label("top");
    b.ldg(v, addr, 0);
    b.iadd(acc, R(acc), R(v));
    b.iadd(k, R(k), I(1));
    b.setp(0, CmpOp::kLt, R(k), I(numLoads));
    b.guard(0).bra("top");
    b.stg(addr, 1 << 18, acc);
    b.exit();
    return b.build();
}

SimResult
runStorm(GpuConfig cfg, u32 numLoads = 8, u32 ctas = 8)
{
    CompileOptions copts;
    copts.virtualize = cfg.regFile.mode == RegFileMode::kVirtualized;
    const auto ck = compileKernel(loadStormKernel(numLoads), copts);
    GlobalMemory mem(1 << 20);
    LaunchParams launch;
    launch.gridCtas = ctas;
    launch.threadsPerCta = 128;
    Gpu gpu(cfg, ck.program, launch, mem);
    return gpu.run();
}

TEST(MemorySystem, MshrLimitThrottlesLoads)
{
    GpuConfig few;
    few.numSms = 1;
    few.mshrsPerSm = 2;
    GpuConfig many;
    many.numSms = 1;
    many.mshrsPerSm = 64;
    const auto slow = runStorm(few);
    const auto fast = runStorm(many);
    EXPECT_GT(slow.cycles, fast.cycles)
        << "fewer MSHRs must reduce memory-level parallelism";
}

TEST(MemorySystem, DramBandwidthMatters)
{
    GpuConfig narrow;
    narrow.numSms = 1;
    narrow.dramCyclesPerTransaction = 16;
    GpuConfig wide;
    wide.numSms = 1;
    wide.dramCyclesPerTransaction = 1;
    const auto slow = runStorm(narrow);
    const auto fast = runStorm(wide);
    EXPECT_GT(slow.cycles, fast.cycles);
    EXPECT_GT(slow.dram.queueCycles, fast.dram.queueCycles);
}

TEST(MemorySystem, BaseLatencyMatters)
{
    GpuConfig lat100;
    lat100.numSms = 1;
    lat100.globalLatency = 100;
    GpuConfig lat500;
    lat500.numSms = 1;
    lat500.globalLatency = 500;
    // A single warp cannot hide latency at all.
    const auto fast = runStorm(lat100, 8, 1);
    const auto slow = runStorm(lat500, 8, 1);
    EXPECT_GT(slow.cycles, fast.cycles + 1000);
}

TEST(RenamingLatency, AddsDependentLatency)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFile.mode = RegFileMode::kVirtualized;
    cfg.renamingLatency = 0;
    const auto zero = runStorm(cfg, 4, 1);
    cfg.renamingLatency = 8; // exaggerated to be visible
    const auto eight = runStorm(cfg, 4, 1);
    EXPECT_GT(eight.cycles, zero.cycles);
}

TEST(PartialWarps, OddThreadCountsExecuteCorrectly)
{
    // 41 threads: one full warp + 9 active lanes in the second.
    KernelBuilder b("odd");
    const u32 tid = b.reg(), addr = b.reg(), v = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shl(addr, R(tid), I(2));
    b.imul(v, R(tid), I(3));
    b.stg(addr, 0, v);
    b.exit();
    CompileOptions copts;
    const auto ck = compileKernel(b.build(), copts);

    GlobalMemory mem(4096);
    // Poison the area beyond the last thread to detect stray lanes.
    for (u32 i = 41; i < 64; ++i)
        mem.setWord(i, 0xabcdef01u);
    LaunchParams launch;
    launch.gridCtas = 1;
    launch.threadsPerCta = 41;
    GpuConfig cfg;
    cfg.numSms = 1;
    Gpu gpu(cfg, ck.program, launch, mem);
    const auto res = gpu.run();
    EXPECT_EQ(res.threadInstrs % 41, 0u)
        << "every instruction executes exactly 41 lanes";
    for (u32 i = 0; i < 41; ++i)
        EXPECT_EQ(mem.word(i), i * 3);
    for (u32 i = 41; i < 64; ++i)
        EXPECT_EQ(mem.word(i), 0xabcdef01u) << "inactive lane wrote";
}

TEST(TraceHooks, LiveSampleFires)
{
    CompileOptions copts;
    copts.virtualize = true;
    const auto ck = compileKernel(loadStormKernel(4), copts);
    GlobalMemory mem(1 << 20);
    LaunchParams launch;
    launch.gridCtas = 2;
    launch.threadsPerCta = 64;
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFile.mode = RegFileMode::kVirtualized;

    u32 samples = 0;
    u32 maxMapped = 0;
    TraceHooks hooks;
    hooks.samplePeriod = 50;
    hooks.liveSample = [&](Cycle, u32 mapped, u32 reserved) {
        ++samples;
        maxMapped = std::max(maxMapped, mapped);
        EXPECT_LE(mapped, reserved);
    };
    Gpu gpu(cfg, ck.program, launch, mem, hooks);
    gpu.run();
    EXPECT_GT(samples, 2u);
    EXPECT_GT(maxMapped, 0u);
}

TEST(TraceHooks, RegisterEventsBalance)
{
    CompileOptions copts;
    copts.virtualize = true;
    const auto ck = compileKernel(loadStormKernel(4), copts);
    GlobalMemory mem(1 << 20);
    LaunchParams launch;
    launch.gridCtas = 1;
    launch.threadsPerCta = 32;
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFile.mode = RegFileMode::kVirtualized;

    u64 defs = 0, releases = 0;
    TraceHooks hooks;
    hooks.regEvent = [&](Cycle, u32, u32, u32, RegEvent kind) {
        if (kind == RegEvent::kDef)
            ++defs;
        else
            ++releases;
    };
    Gpu gpu(cfg, ck.program, launch, mem, hooks);
    gpu.run();
    EXPECT_GT(defs, 0u);
    EXPECT_GT(releases, 0u);
    EXPECT_GE(defs, releases)
        << "a release event needs a preceding definition";
}

TEST(StatsInvariants, CountersAreConsistent)
{
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.regFile.mode = RegFileMode::kVirtualized;
    CompileOptions copts;
    copts.virtualize = true;
    const auto ck = compileKernel(loadStormKernel(6), copts);
    GlobalMemory mem(1 << 20);
    LaunchParams launch;
    launch.gridCtas = 6;
    launch.threadsPerCta = 128;
    Gpu gpu(cfg, ck.program, launch, mem);
    const auto res = gpu.run();

    EXPECT_EQ(res.completedCtas, launch.gridCtas);
    EXPECT_EQ(res.rf.allocations, res.rf.releases)
        << "every allocation is released by kernel end";
    // Only pir encounters probe the flag cache; pbr are always decoded.
    EXPECT_LE(res.flagCacheHits + res.flagCacheMisses,
              res.metaEncounters);
    EXPECT_GT(res.flagCacheHits + res.flagCacheMisses, 0u);
    EXPECT_LE(res.rf.allocWatermark,
              cfg.regFile.physRegs() * cfg.numSms);
    EXPECT_GE(res.threadInstrs, res.issuedInstrs)
        << "at least one lane per issued instruction";
}

TEST(ICache, DirectMappedLineBehavior)
{
    ICache ic(16, 8); // 2 lines of 8 instructions
    EXPECT_FALSE(ic.access(0));
    EXPECT_TRUE(ic.access(7));  // same line
    EXPECT_FALSE(ic.access(8)); // second line
    EXPECT_TRUE(ic.access(0));  // still resident
    EXPECT_FALSE(ic.access(16)); // evicts line 0
    EXPECT_FALSE(ic.access(0));
}

TEST(ICache, DisabledAlwaysHits)
{
    ICache ic(0, 8);
    EXPECT_TRUE(ic.access(12345));
    EXPECT_TRUE(ic.access(12345 + 8));
}

TEST(ICache, NonPowerOfTwoGeometryIsAConfigError)
{
    GpuConfig lines;
    lines.icacheLineInstrs = 6;
    EXPECT_THROW(lines.validate(), ConfigError);
    GpuConfig capacity;
    capacity.icacheInstrs = 1000;
    EXPECT_THROW(capacity.validate(), ConfigError);
    GpuConfig disabled;
    disabled.icacheInstrs = 0;
    EXPECT_NO_THROW(disabled.validate());
    EXPECT_THROW(runStorm(capacity), ConfigError);
}

TEST(ICache, TinyCacheSlowsLargeKernels)
{
    // A kernel body longer than the cache thrashes it.
    GpuConfig big;
    big.numSms = 1;
    GpuConfig tiny;
    tiny.numSms = 1;
    tiny.icacheInstrs = 8;
    tiny.icacheLineInstrs = 4;
    const auto fast = runStorm(big);
    const auto slow = runStorm(tiny);
    EXPECT_GT(slow.icacheMisses, fast.icacheMisses);
    EXPECT_GT(slow.cycles, fast.cycles);
}

TEST(Scheduler, RoundRobinPolicyRunsCorrectly)
{
    GpuConfig rr;
    rr.numSms = 1;
    rr.scheduler = SchedulerPolicy::kRoundRobin;
    const auto res = runStorm(rr);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_EQ(res.completedCtas, 8u);
}

TEST(Scheduler, TwoLevelHidesLatencyAtLeastAsWell)
{
    GpuConfig two;
    two.numSms = 1;
    GpuConfig rr;
    rr.numSms = 1;
    rr.scheduler = SchedulerPolicy::kRoundRobin;
    const auto twoRes = runStorm(two);
    const auto rrRes = runStorm(rr);
    // Both complete the same work; the ratio stays within 2x either
    // way (they schedule differently, not incorrectly).
    EXPECT_LT(twoRes.cycles, rrRes.cycles * 2);
    EXPECT_LT(rrRes.cycles, twoRes.cycles * 2);
}

TEST(Report, CsvRowMatchesHeader)
{
    RunConfig cfg = RunConfig::virtualized();
    cfg.numSms = 1;
    cfg.roundsPerSm = 1;
    Simulator sim(cfg);
    const auto out = sim.runWorkload(*findWorkload("VectorAdd"));

    const std::string header = csvHeader();
    const std::string row = csvRow(out);
    const auto count = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count(header), count(row));
    EXPECT_NE(row.find("VectorAdd"), std::string::npos);
    EXPECT_NE(row.find("virtualized-128KB"), std::string::npos);

    const std::string text = summarize(out);
    EXPECT_NE(text.find("cycles"), std::string::npos);
    EXPECT_NE(text.find("register-file energy"), std::string::npos);
}

} // namespace
} // namespace rfv
