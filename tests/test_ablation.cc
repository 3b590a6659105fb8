/**
 * @file
 * Ablation studies of the design choices DESIGN.md calls out:
 *  - bank-restricted vs. unrestricted renaming,
 *  - conservative (paper) vs. aggressive divergence releases,
 *  - release-flag-cache size sensitivity,
 *  - two-level scheduling (ready-queue size) sensitivity,
 *  - renaming-table budget sweep,
 * plus regression tests for the two SIMT-specific soundness hazards
 * found during development (branch-to-reconvergence merging and
 * divergent-loop releases).
 */
#include <gtest/gtest.h>

#include "compiler/pipeline.h"
#include "core/simulator.h"
#include "gen/gen_spec.h"
#include "isa/builder.h"

namespace rfv {
namespace {

RunOutcome
run(RunConfig cfg, const std::string &workload)
{
    cfg.numSms = 2;
    cfg.roundsPerSm = 2;
    Simulator sim(cfg);
    return sim.runWorkload(*findWorkload(workload));
}

TEST(Ablation, UnrestrictedRenamingRelievesBankPressure)
{
    // Under a half-size file, letting renaming borrow registers from
    // any bank eliminates bank-exhaustion allocation stalls (at the
    // cost of losing compiler bank-conflict guarantees, which is why
    // the paper keeps the restriction).
    RunConfig restricted = RunConfig::gpuShrink(50);
    RunConfig unrestricted = RunConfig::gpuShrink(50);
    unrestricted.bankRestricted = false;

    const auto r = run(restricted, "ScalarProd");
    const auto u = run(unrestricted, "ScalarProd");
    EXPECT_LT(u.sim.allocStallEvents, r.sim.allocStallEvents / 2 + 1);
    EXPECT_LE(u.sim.cycles, r.sim.cycles);
    // The restricted run never produced a physical bank conflict
    // pattern worse than the compiler intended; the unrestricted one
    // may (statistically) add conflicts.
    EXPECT_GE(u.sim.bankConflictCycles + 1000,
              r.sim.bankConflictCycles);
}

TEST(Ablation, AggressiveDivergenceReleasesMoreViaPir)
{
    // Aggressive mode turns some reconvergence (pbr) releases into
    // point (pir) releases; total release opportunities do not shrink.
    const Program p = findWorkload("HotSpot")->buildKernel();
    CompileOptions conservative;
    conservative.virtualize = true;
    CompileOptions aggressive = conservative;
    aggressive.aggressiveDiverged = true;

    const auto ckC = compileKernel(p, conservative);
    const auto ckA = compileKernel(p, aggressive);
    EXPECT_GE(ckA.stats.numPirBits, ckC.stats.numPirBits);
    EXPECT_LE(ckA.stats.numPbrRegs, ckC.stats.numPbrRegs);
}

TEST(Ablation, AggressiveModeNeverHurtsWatermark)
{
    RunConfig conservative = RunConfig::virtualized();
    RunConfig aggressive = RunConfig::virtualized();
    aggressive.aggressiveDiverged = true;
    for (const char *name : {"HotSpot", "BFS"}) {
        const auto c = run(conservative, name);
        const auto a = run(aggressive, name);
        // Earlier releases can only reduce (or match) peak usage.
        EXPECT_LE(a.sim.rf.allocWatermark,
                  c.sim.rf.allocWatermark + 8)
            << name;
    }
}

TEST(Ablation, FlagCacheSizeSweepIsMonotone)
{
    u64 prevDecoded = ~0ull;
    for (u32 entries : {0u, 2u, 10u, 32u}) {
        RunConfig cfg = RunConfig::virtualized();
        cfg.flagCacheEntries = entries;
        const auto out = run(cfg, "Reduction");
        EXPECT_LE(out.sim.metaDecoded, prevDecoded)
            << entries << " entries";
        prevDecoded = out.sim.metaDecoded;
    }
}

TEST(Ablation, RenamingTableBudgetSweep)
{
    // Shrinking the table budget exempts progressively more registers
    // and never breaks execution.
    const auto w = findWorkload("Heartwall");
    u32 prevExempt = 0;
    for (u32 budget : {4096u, 1024u, 512u, 256u, 64u}) {
        RunConfig cfg = RunConfig::virtualized();
        cfg.renamingTableBytes = budget;
        cfg.numSms = 1;
        cfg.roundsPerSm = 1;
        Simulator sim(cfg);
        const auto out = sim.runWorkload(*w);
        EXPECT_GE(out.compile.numExempt, prevExempt)
            << budget << "B budget";
        prevExempt = out.compile.numExempt;
        EXPECT_LE(out.compile.constrainedTableBytes, budget);
    }
    EXPECT_GT(prevExempt, 0u) << "64B must exempt some registers";
}

TEST(Ablation, TwoLevelSchedulerReadyQueueSensitivity)
{
    // A single-warp ready queue strangles latency hiding; the paper's
    // 6-warp queue performs much better.
    const auto w = findWorkload("MatrixMul");
    auto runWithQueue = [&](u32 size) {
        RunConfig rc = RunConfig::baseline();
        rc.numSms = 1;
        rc.roundsPerSm = 1;
        Simulator sim(rc);
        GpuConfig gpu = sim.gpuConfig();
        gpu.readyQueueSize = size;
        const auto launch = w->scaledLaunch(1, 1);
        GlobalMemory mem(w->memoryBytes(launch));
        w->setup(mem, launch);
        CompileOptions copts;
        const auto ck = compileKernel(w->buildKernel(), copts);
        Gpu machine(gpu, ck.program, launch, mem);
        return machine.run().cycles;
    };
    const Cycle narrow = runWithQueue(1);
    const Cycle paper = runWithQueue(6);
    EXPECT_LT(paper, narrow);
}

TEST(Ablation, L1DataCacheSoftensSpillPenalty)
{
    // The paper's spill baseline pays DRAM for every fill.  With a
    // Fermi-style 48KB L1 the per-iteration fills mostly hit, so the
    // penalty shrinks dramatically — evidence that Fig. 11(a)'s spill
    // numbers are tied to the memory system the spills land in.
    auto spillCycles = [&](u32 dcacheLines) {
        RunConfig rc = RunConfig::compilerSpillShrink(50);
        rc.numSms = 2;
        rc.roundsPerSm = 2;
        Simulator sim(rc);
        GpuConfig gpu = sim.gpuConfig();
        gpu.dcacheLines = dcacheLines;
        const auto w = findWorkload("ScalarProd");
        const auto launch = w->scaledLaunch(rc.numSms, rc.roundsPerSm);
        GlobalMemory mem(w->memoryBytes(launch));
        w->setup(mem, launch);
        CompileOptions copts = sim.compileOptions(48);
        copts.spillRegBudget = sim.spillBudget(
            w->config().regsPerKernel, launch);
        const auto ck = compileKernel(w->buildKernel(), copts);
        Gpu machine(gpu, ck.program, launch, mem);
        const auto res = machine.run();
        w->verify(mem, launch);
        return res;
    };
    const auto noCache = spillCycles(0);
    const auto withCache = spillCycles(384); // 48KB of 128B lines
    EXPECT_GT(withCache.dcacheHits, withCache.dcacheMisses);
    EXPECT_LT(withCache.cycles, noCache.cycles * 3 / 4);
}

// ---- Regression tests for SIMT soundness hazards -----------------------

/**
 * Hazard 1: a divergent branch whose taken target *is* the
 * reconvergence point must merge before executing the join (else the
 * join's pbr releases fire with a partial mask while the other side
 * still needs the registers).
 */
TEST(Regression, BranchStraightToReconvergence)
{
    KernelBuilder b("br2join");
    const u32 tid = b.reg(), v = b.reg(), addr = b.reg(),
              t = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shl(addr, R(tid), I(2));
    b.mov(v, I(5));
    b.setp(0, CmpOp::kLt, R(tid), I(7));
    b.guard(0, true).bra("join"); // @!p0 jumps straight to the join
    b.iadd(t, R(v), I(1));        // then-side only
    b.mov(v, R(t));
    b.label("join");
    b.stg(addr, 0, v); // both sides read v at the join
    b.exit();
    const Program p = b.build();

    CompileOptions copts;
    copts.virtualize = true;
    const auto ck = compileKernel(p, copts);

    GlobalMemory mem(4096);
    LaunchParams launch;
    launch.gridCtas = 1;
    launch.threadsPerCta = 32;
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFile.mode = RegFileMode::kVirtualized;
    cfg.regFile.poisonOnRelease = true;
    Gpu gpu(cfg, ck.program, launch, mem);
    gpu.run();
    for (u32 i = 0; i < 32; ++i)
        EXPECT_EQ(mem.word(i), i < 7 ? 6u : 5u) << "lane " << i;
}

/**
 * Hazard 2: a register redefined every loop iteration but also read
 * after the loop must not be released inside the loop — lanes that
 * exited a divergent loop still hold their final value in the same
 * warp-wide register.
 */
TEST(Regression, DivergentLoopLiveAtExit)
{
    KernelBuilder b("looplive");
    const u32 tid = b.reg(), v = b.reg(), k = b.reg(), lim = b.reg(),
              addr = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shl(addr, R(tid), I(2));
    b.and_(lim, R(tid), I(3)); // data-dependent trips: 1..4
    b.mov(k, I(0));
    b.mov(v, I(0));
    b.label("top");
    b.imad(v, R(k), I(10), R(tid)); // v redefined every iteration
    b.iadd(k, R(k), I(1));
    b.setp(0, CmpOp::kLe, R(k), R(lim));
    b.guard(0).bra("top");
    b.stg(addr, 0, v); // v read after the loop by every lane
    b.exit();
    const Program p = b.build();

    // The compiler must not emit any release of v inside the loop.
    {
        const Cfg cfg(p);
        const Liveness live = computeLiveness(p, cfg);
        const auto info = analyzeReleases(p, cfg, live, {});
        const u32 vBit = v;
        for (u32 pc = 5; pc <= 8; ++pc) { // loop body span
            for (u32 s = 0; s < 3; ++s) {
                if ((info.pirMask[pc] >> s) & 1) {
                    EXPECT_NE(p.code[pc].src[s].value, vBit)
                        << "pir releases v inside the loop";
                }
            }
        }
        const u32 headBlock = cfg.blockOf(5);
        for (u32 r : info.pbrAtBlock[headBlock])
            EXPECT_NE(r, vBit) << "pbr releases v at the loop head";
    }

    CompileOptions copts;
    copts.virtualize = true;
    const auto ck = compileKernel(p, copts);
    GlobalMemory mem(4096);
    LaunchParams launch;
    launch.gridCtas = 1;
    launch.threadsPerCta = 32;
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFile.mode = RegFileMode::kVirtualized;
    cfg.regFile.poisonOnRelease = true;
    Gpu gpu(cfg, ck.program, launch, mem);
    gpu.run();
    for (u32 i = 0; i < 32; ++i)
        EXPECT_EQ(mem.word(i), (i & 3) * 10 + i) << "lane " << i;
}

/**
 * Hazard 3: aggressive mode must not release a register inside one
 * side of a diamond when the *other* side redefines it and the value
 * is read after the join — the sibling's partial-mask writes live in
 * the same mapping and would be destroyed.
 */
TEST(Regression, AggressiveSiblingRedefinition)
{
    KernelBuilder b("sibling");
    const u32 tid = b.reg(), v = b.reg(), t = b.reg(),
              addr = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shl(addr, R(tid), I(2));
    b.mov(v, I(100));
    b.setp(0, CmpOp::kLt, R(tid), I(16));
    b.guard(0, true).bra("else_");
    // then-side: read v (dies here), then redefine it.
    b.iadd(t, R(v), I(1)); // old v's last read on this side
    b.mov(v, R(t));
    b.bra("join");
    b.label("else_");
    // else-side: redefine v without reading it.
    b.imul(v, R(tid), I(7));
    b.label("join");
    b.stg(addr, 0, v); // v live at the join
    b.exit();
    const Program p = b.build();

    CompileOptions copts;
    copts.virtualize = true;
    copts.aggressiveDiverged = true;
    const auto ck = compileKernel(p, copts);

    GlobalMemory mem(4096);
    LaunchParams launch;
    launch.gridCtas = 1;
    launch.threadsPerCta = 32;
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFile.mode = RegFileMode::kVirtualized;
    cfg.regFile.poisonOnRelease = true;
    Gpu gpu(cfg, ck.program, launch, mem);
    gpu.run();
    for (u32 i = 0; i < 32; ++i)
        EXPECT_EQ(mem.word(i), i < 16 ? 101u : i * 7) << "lane " << i;
}

/** Deeper generated nesting with every mode matching the reference. */
TEST(Regression, DeepNestingEquivalence)
{
    RunConfig tiny = RunConfig::virtualized();
    tiny.label = "virtualized-16KB";
    tiny.rfSizeBytes = 16 * 1024;
    for (u64 seed : {101ull, 202ull, 303ull}) {
        GenSpec spec;
        spec.seed = seed;
        spec.depth = 3;
        spec.blocks = 8;
        spec.regs = 22;
        spec.ctas = 2;
        spec.concCtasPerSm = 2;
        for (RunConfig cfg :
             {RunConfig::baseline(), RunConfig::virtualized(), tiny}) {
            // runWorkload checks the output image against the host
            // reference; the lint traps any unsafe release.
            cfg.verifyReleases = true;
            const RunOutcome out = run(cfg, spec.name());
            EXPECT_EQ(out.sim.completedCtas, spec.ctas)
                << cfg.label << " seed " << seed;
            EXPECT_TRUE(out.verify.ok())
                << cfg.label << ":\n" << out.verify.str();
        }
    }
}

} // namespace
} // namespace rfv
