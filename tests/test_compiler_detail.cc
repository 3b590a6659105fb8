/**
 * @file
 * Second wave of compiler tests: nested-divergence deferral, bank
 * balancing, spill-transform functional equivalence, dominator
 * corner cases, and lifetime statistics ordering.
 */
#include <set>

#include <gtest/gtest.h>

#include "common/bit_utils.h"
#include "compiler/dominators.h"
#include "compiler/exempt.h"
#include "compiler/pipeline.h"
#include "compiler/spill.h"
#include "core/simulator.h"
#include "isa/builder.h"
#include "sim/gpu.h"
#include "workloads/gen_workload.h"
#include "workloads/workload.h"

namespace rfv {
namespace {

/** Nested diamonds: register read in the inner region only. */
Program
nestedDiamond()
{
    KernelBuilder b("nested");
    const u32 tid = b.reg(), r0 = b.reg(), r1 = b.reg();
    b.s2r(tid, SpecialReg::kTid);             // 0
    b.mov(r0, I(9));                          // 1
    b.setp(0, CmpOp::kLt, R(tid), I(16));     // 2
    b.guard(0, true).bra("outer_else");       // 3
    b.setp(1, CmpOp::kLt, R(tid), I(8));      // 4
    b.guard(1, true).bra("inner_join");       // 5
    b.iadd(r1, R(r0), I(1));                  // 6: read r0 (inner then)
    b.label("inner_join");
    b.mov(r1, I(3));                          // 7
    b.bra("outer_join");                      // 8
    b.label("outer_else");
    b.mov(r1, I(4));                          // 9
    b.label("outer_join");
    b.shl(tid, R(tid), I(2));                 // 10
    b.stg(tid, 0, r1);                        // 11
    b.exit();                                 // 12
    return b.build();
}

TEST(NestedDivergence, DeferralLeavesInnerRegionsClean)
{
    const Program p = nestedDiamond();
    const Cfg cfg(p);
    const Liveness live = computeLiveness(p, cfg);
    const auto info = analyzeReleases(p, cfg, live, {});
    // r0's read at pc 6 is inside both regions; no pir there.
    EXPECT_EQ(info.pirMask[6], 0u);
    // The release lands at some block outside every divergent region;
    // r0 (reg id 1) must appear in exactly one pbr list.
    u32 count = 0;
    i32 releaseBlock = -1;
    for (u32 blk = 0; blk < cfg.numBlocks(); ++blk) {
        for (u32 r : info.pbrAtBlock[blk]) {
            if (r == 1) {
                ++count;
                releaseBlock = static_cast<i32>(blk);
            }
        }
    }
    EXPECT_EQ(count, 1u);
    // That block starts at or after the outer join (pc 10).
    ASSERT_GE(releaseBlock, 0);
    EXPECT_GE(cfg.block(static_cast<u32>(releaseBlock)).first, 10u);
}

TEST(Dominators, LoopBranchReconvergesAtExit)
{
    KernelBuilder b("loop");
    const u32 i = b.reg();
    b.mov(i, I(0));               // 0
    b.label("top");
    b.iadd(i, R(i), I(1));        // 1
    b.setp(0, CmpOp::kLt, R(i), I(4)); // 2
    b.guard(0).bra("top");        // 3
    b.mov(i, I(0));               // 4 (exit block)
    b.exit();                     // 5
    const Program p = b.build();
    const Cfg cfg(p);
    const auto ipdom = immediatePostDominators(cfg);
    const u32 loopBlock = cfg.blockOf(3);
    const u32 exitBlock = cfg.blockOf(4);
    EXPECT_EQ(ipdom[loopBlock], static_cast<i32>(exitBlock));
}

TEST(Dominators, BranchWithBothSidesExitingHasNoReconvergence)
{
    KernelBuilder b("split");
    const u32 tid = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.setp(0, CmpOp::kLt, R(tid), I(16));
    b.guard(0).bra("other");
    b.exit();
    b.label("other");
    b.exit();
    const Program p = b.build();
    const Cfg cfg(p);
    const auto ipdom = immediatePostDominators(cfg);
    EXPECT_EQ(ipdom[cfg.blockOf(2)], -1);

    // The SIMT machinery must still run it to completion.
    CompileOptions copts;
    copts.virtualize = true;
    const auto ck = compileKernel(p, copts);
    GlobalMemory mem(256);
    LaunchParams launch;
    launch.gridCtas = 1;
    launch.threadsPerCta = 32;
    GpuConfig cfg2;
    cfg2.numSms = 1;
    cfg2.regFile.mode = RegFileMode::kVirtualized;
    Gpu gpu(cfg2, ck.program, launch, mem);
    const auto res = gpu.run();
    EXPECT_EQ(res.completedCtas, 1u);
}

TEST(BankBalance, HotRegistersSpreadAcrossBanks)
{
    // Build a kernel where registers 0..3 are long-lived and 4..7 are
    // one-shot; after exemption renumbering (with no exemptions) the
    // four longest-lived registers must land in four different banks.
    KernelBuilder b("banks");
    const u32 hot = b.regs(4), cold = b.regs(4), sink = b.reg();
    for (u32 i = 0; i < 4; ++i)
        b.mov(hot + i, I(i + 1));
    for (u32 i = 0; i < 4; ++i) {
        b.mov(cold + i, I(i));
        b.iadd(sink, R(cold + i), I(1));
    }
    // Long chain keeping hot registers alive.
    for (u32 rep = 0; rep < 10; ++rep)
        for (u32 i = 0; i < 4; ++i)
            b.iadd(sink, R(hot + i), R(sink));
    b.shl(sink, R(sink), I(0));
    b.exit();
    const Program p = b.build();

    const Cfg cfg(p);
    const Liveness live = computeLiveness(p, cfg);
    const auto info = analyzeReleases(p, cfg, live, {});
    const auto res = selectRenamingExemptions(p, info.regStats, 0, 10,
                                              8);
    // The four hot registers must map to four distinct banks.
    std::set<u32> banks;
    for (u32 i = 0; i < 4; ++i)
        banks.insert(res.permutation[hot + i] % kNumRegBanks);
    EXPECT_EQ(banks.size(), 4u);
}

TEST(Spill, TransformedProgramsComputeTheSameResults)
{
    // Property test: for generated kernels, spilling to (pressure - 2)
    // registers must not change the kernel's results.
    RunConfig rc;
    rc.verifyReleases = true;
    rc.numSms = 1;
    rc.roundsPerSm = 0;
    const Simulator sim(rc);
    u32 demoted = 0;
    for (u64 seed = 50; seed < 58; ++seed) {
        GenSpec spec;
        spec.seed = seed;
        spec.regs = 14;
        spec.ctas = 2;
        spec.concCtasPerSm = 2;
        const auto w = makeGenWorkload(spec);
        const Program prog = w->buildKernel();

        // Measure pressure to pick a budget that forces demotion.
        const Cfg cfg(prog);
        const Liveness live = computeLiveness(prog, cfg);
        const auto after = computeLiveAfter(prog, cfg, live);
        u32 press = 0;
        for (u32 pc = 0; pc < prog.code.size(); ++pc)
            press = std::max(press, popcount64(after[pc]));
        const u32 budget = std::max(4u, press > 2 ? press - 2 : 4u);

        const SpillResult spilled = spillToBudget(prog, budget);
        EXPECT_LE(spilled.program.numRegs, budget) << "seed " << seed;
        demoted += spilled.demotedRegs;

        // The spilled program must still match the host reference.
        const LaunchParams launch = w->scaledLaunch(rc.numSms, rc.roundsPerSm);
        GlobalMemory mem(w->memoryBytes(launch));
        w->setup(mem, launch);
        sim.runProgram(spilled.program, launch, mem);
        w->verify(mem, launch);
    }
    // Coverage guard: the budgets must actually demote something.
    EXPECT_GT(demoted, 0u);
}

TEST(Lifetime, AvgLifetimeRanksLongLivedLast)
{
    KernelBuilder b("ranks");
    const u32 longLived = b.reg(), shortLived = b.reg(),
              sink = b.reg();
    b.mov(longLived, I(1));
    for (u32 i = 0; i < 10; ++i) {
        b.mov(shortLived, I(i));
        b.iadd(sink, R(shortLived), I(1));
    }
    b.iadd(sink, R(longLived), R(sink));
    b.shl(sink, R(sink), I(0));
    b.exit();
    const Program p = b.build();
    const Cfg cfg(p);
    const Liveness live = computeLiveness(p, cfg);
    const auto info = analyzeReleases(p, cfg, live, {});
    EXPECT_GT(info.regStats[longLived].avgLifetime(),
              info.regStats[shortLived].avgLifetime());
    EXPECT_EQ(info.regStats[shortLived].defs, 10u);
}

TEST(MetadataInsert, PirPayloadsMatchInstructionFlags)
{
    // Round-trip invariant across all workload kernels: the in-stream
    // pir payloads must agree with the authoritative pirMask bits
    // (Program::validate checks this; make it explicit here).
    for (const auto &w : allWorkloads()) {
        CompileOptions copts;
        copts.virtualize = true;
        const auto ck = compileKernel(w->buildKernel(), copts);
        EXPECT_NO_THROW(ck.program.validate()) << w->name();
        EXPECT_TRUE(ck.program.hasReleaseMetadata) << w->name();
    }
}

} // namespace
} // namespace rfv
