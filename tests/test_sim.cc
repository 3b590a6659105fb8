/**
 * @file
 * Simulator tests: SIMT stack semantics, memory coalescing, and
 * end-to-end kernel runs in every register-file mode — results are
 * checked functionally, so an unsafe register release shows up as a
 * wrong answer or a panic, not just a bad counter.
 */
#include <gtest/gtest.h>

#include "compiler/pipeline.h"
#include "isa/builder.h"
#include "sim/gpu.h"
#include "sim/sleeper_set.h"

namespace rfv {
namespace {

// ---- SIMT stack -----------------------------------------------------------

TEST(SimtStack, UniformFlow)
{
    SimtStack st;
    st.reset(0xffffffffu);
    EXPECT_EQ(st.pc(), 0u);
    st.advance(1);
    EXPECT_EQ(st.pc(), 1u);
    EXPECT_EQ(st.activeMask(), 0xffffffffu);
    EXPECT_EQ(st.depth(), 1u);
}

TEST(SimtStack, DivergeAndReconverge)
{
    SimtStack st;
    st.reset(0xffffffffu);
    st.advance(3);
    // Branch at pc 3: lanes 0..15 taken to 10, others fall to 4,
    // reconverge at 20.
    st.branch(10, 4, 0x0000ffffu, 20);
    EXPECT_EQ(st.depth(), 3u);
    EXPECT_EQ(st.pc(), 10u);
    EXPECT_EQ(st.activeMask(), 0x0000ffffu);
    // Taken side runs to the reconvergence point.
    st.advance(20);
    EXPECT_EQ(st.pc(), 4u);
    EXPECT_EQ(st.activeMask(), 0xffff0000u);
    st.advance(20);
    EXPECT_EQ(st.pc(), 20u);
    EXPECT_EQ(st.activeMask(), 0xffffffffu);
    EXPECT_EQ(st.depth(), 1u);
}

TEST(SimtStack, UniformBranchDoesNotPush)
{
    SimtStack st;
    st.reset(0xffu);
    st.branch(7, 1, 0xffu, 9); // all lanes take
    EXPECT_EQ(st.depth(), 1u);
    EXPECT_EQ(st.pc(), 7u);
    st.branch(3, 8, 0x0u, 9); // no lane takes
    EXPECT_EQ(st.pc(), 8u);
}

TEST(SimtStack, PartialExit)
{
    SimtStack st;
    st.reset(0xfu);
    st.exitLanes(0x3u);
    EXPECT_FALSE(st.done());
    EXPECT_EQ(st.activeMask(), 0xcu);
    st.exitLanes(0xcu);
    EXPECT_TRUE(st.done());
}

TEST(SimtStack, NestedDivergence)
{
    SimtStack st;
    st.reset(0xffffffffu);
    st.branch(10, 2, 0x0000ffffu, 30);   // outer
    EXPECT_EQ(st.pc(), 10u);
    st.branch(15, 11, 0x000000ffu, 25);  // inner, within taken side
    EXPECT_EQ(st.pc(), 15u);
    EXPECT_EQ(st.activeMask(), 0x000000ffu);
    st.advance(25);
    EXPECT_EQ(st.pc(), 11u);
    EXPECT_EQ(st.activeMask(), 0x0000ff00u);
    st.advance(25); // inner reconvergence
    EXPECT_EQ(st.pc(), 25u);
    EXPECT_EQ(st.activeMask(), 0x0000ffffu);
    st.advance(30); // outer taken side done
    EXPECT_EQ(st.pc(), 2u);
    EXPECT_EQ(st.activeMask(), 0xffff0000u);
    st.advance(30);
    EXPECT_EQ(st.activeMask(), 0xffffffffu);
}

// ---- Memory ---------------------------------------------------------------

TEST(Memory, CoalescingCountsSegments)
{
    std::vector<u32> seq;
    for (u32 l = 0; l < 32; ++l)
        seq.push_back(l * 4); // 128 consecutive bytes
    EXPECT_EQ(coalescedTransactions(seq), 1u);

    std::vector<u32> strided;
    for (u32 l = 0; l < 32; ++l)
        strided.push_back(l * 128);
    EXPECT_EQ(coalescedTransactions(strided), 32u);
    EXPECT_EQ(coalescedTransactions({}), 0u);
}

TEST(Memory, DramQueueingDelaysBursts)
{
    DramModel dram(100, 2);
    const Cycle first = dram.access(0, 1);
    EXPECT_EQ(first, 102u);
    // A burst at the same cycle queues behind the first request.
    const Cycle second = dram.access(0, 1);
    EXPECT_GT(second, first);
    EXPECT_GT(dram.stats().queueCycles, 0u);
}

TEST(Memory, CoalescingCountsWideSpansAndRepeats)
{
    // Repeated segments within a 64-segment window count once.
    EXPECT_EQ(coalescedTransactions({0, 4, 128, 132, 63 * 128, 0}), 3u);
    // Segments further apart than the bitmask window still count
    // exactly.
    EXPECT_EQ(coalescedTransactions(
                  {0, 64 * 128, 64 * 128 + 8, 4096 * 128, 0xfffffff0u}),
              4u);
}

TEST(Memory, OutOfBoundsPanics)
{
    GlobalMemory mem(64);
    EXPECT_THROW(mem.load(64), InternalError);
    EXPECT_THROW(mem.store(1000, 1), InternalError);
    EXPECT_THROW(mem.load(2), InternalError); // unaligned
    EXPECT_THROW(mem.store(6, 1), InternalError); // unaligned
    EXPECT_THROW(mem.word(16), std::exception);
    EXPECT_THROW(mem.setWord(16, 1), std::exception);
}

TEST(Memory, LazilyZeroedMemoryReadsZeroAtBothEnds)
{
    const u32 bytes = 16u << 20;
    GlobalMemory mem(bytes);
    EXPECT_EQ(mem.sizeBytes(), bytes);
    const u32 last = bytes / 4 - 1;
    EXPECT_EQ(mem.word(0), 0u);
    EXPECT_EQ(mem.word(last), 0u);
    EXPECT_EQ(mem.load(0), 0u);
    EXPECT_EQ(mem.load(bytes - 4), 0u);
    mem.setWord(last, 7);
    EXPECT_EQ(mem.load(bytes - 4), 7u);
    EXPECT_EQ(mem.word(last - 1), 0u);
}

// ---- Sleeper set ----------------------------------------------------------

TEST(SleeperSet, SameCycleSleepersWakeInWarpOrder)
{
    SleeperSet s;
    s.reset(70);
    std::vector<Cycle> blocked(70, 0);
    // Fall asleep out of order, across both mask words.
    for (u32 w : {65u, 3u, 40u}) {
        blocked[w] = 100;
        s.sleep(w, 100);
    }
    blocked[7] = 120;
    s.sleep(7, 120);
    EXPECT_EQ(s.nextWake(), 100u);
    EXPECT_EQ(s.size(), 4u);

    std::vector<u32> woke;
    const auto wake = [&](u32 w) { woke.push_back(w); };
    s.wakeDue(99, blocked.data(), wake);
    EXPECT_TRUE(woke.empty());
    s.wakeDue(100, blocked.data(), wake);
    EXPECT_EQ(woke, (std::vector<u32>{3, 40, 65}));
    EXPECT_EQ(s.nextWake(), 120u);
    EXPECT_EQ(s.size(), 1u);
}

TEST(SleeperSet, OverdueKeysWakeInKeyThenWarpOrder)
{
    SleeperSet s;
    s.reset(8);
    std::vector<Cycle> blocked(8, 0);
    s.sleep(1, 50);
    s.sleep(5, 40);
    s.sleep(2, 50);
    std::vector<u32> woke;
    s.wakeDue(60, blocked.data(), [&](u32 w) { woke.push_back(w); });
    EXPECT_EQ(woke, (std::vector<u32>{5, 1, 2}));
    EXPECT_EQ(s.nextWake(), ~0ull);
}

TEST(SleeperSet, ExtendedSleeperWakesAtItsNewCycle)
{
    SleeperSet s;
    s.reset(4);
    std::vector<Cycle> blocked(4, 0);
    blocked[2] = 100;
    s.sleep(2, 100);
    blocked[2] = 180; // a spill extends the stall while asleep

    std::vector<u32> woke;
    const auto wake = [&](u32 w) { woke.push_back(w); };
    // The old key still comes due, but the warp sleeps on.
    EXPECT_EQ(s.nextWake(), 100u);
    s.wakeDue(100, blocked.data(), wake);
    EXPECT_TRUE(woke.empty());
    EXPECT_EQ(s.nextWake(), 180u);
    s.wakeDue(179, blocked.data(), wake);
    EXPECT_TRUE(woke.empty());
    s.wakeDue(180, blocked.data(), wake);
    EXPECT_EQ(woke, (std::vector<u32>{2}));
    EXPECT_EQ(s.size(), 0u);
}

// ---- End-to-end kernels ----------------------------------------------------

/** out[i] = a[i] + b[i] over one CTA of 64 threads. */
Program
vecAddKernel()
{
    KernelBuilder b("vecadd");
    const u32 tid = b.reg(), addr = b.reg(), va = b.reg(), vb = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shl(addr, R(tid), I(2));
    b.ldg(va, addr, 0);       // a[] at byte 0
    b.ldg(vb, addr, 256);     // b[] at byte 256
    b.iadd(va, R(va), R(vb));
    b.stg(addr, 512, va);     // out[] at byte 512
    b.exit();
    return b.build();
}

GpuConfig
testConfig(RegFileMode mode, u32 rfBytes = 128 * 1024)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFile.mode = mode;
    cfg.regFile.sizeBytes = rfBytes;
    cfg.regFile.poisonOnRelease = true;
    cfg.maxCycles = 2'000'000;
    return cfg;
}

SimResult
runKernel(const Program &compiled, const LaunchParams &launch,
          GlobalMemory &mem, const GpuConfig &cfg)
{
    Gpu gpu(cfg, compiled, launch, mem);
    return gpu.run();
}

void
checkVecAdd(RegFileMode mode, bool virtualize, u32 rfBytes = 128 * 1024)
{
    CompileOptions copts;
    copts.virtualize = virtualize;
    copts.renamingTableBytes = 0;
    const auto ck = compileKernel(vecAddKernel(), copts);

    GlobalMemory mem(4096);
    for (u32 i = 0; i < 64; ++i) {
        mem.setWord(i, i * 3);
        mem.setWord(64 + i, 1000 + i);
    }
    LaunchParams launch;
    launch.gridCtas = 1;
    launch.threadsPerCta = 64;
    launch.concCtasPerSm = 4;

    const auto res =
        runKernel(ck.program, launch, mem, testConfig(mode, rfBytes));
    EXPECT_GT(res.cycles, 0u);
    EXPECT_EQ(res.completedCtas, 1u);
    for (u32 i = 0; i < 64; ++i)
        EXPECT_EQ(mem.word(128 + i), i * 3 + 1000 + i) << "i=" << i;
}

TEST(EndToEnd, VecAddBaseline)
{
    checkVecAdd(RegFileMode::kBaseline, false);
}

TEST(EndToEnd, VecAddVirtualized)
{
    checkVecAdd(RegFileMode::kVirtualized, true);
}

TEST(EndToEnd, VecAddHardwareOnly)
{
    checkVecAdd(RegFileMode::kHardwareOnly, false);
}

TEST(EndToEnd, VecAddVirtualizedTinyRegisterFile)
{
    // 2 KB = 16 physical registers; the kernel uses 4 per warp and the
    // CTA has 2 warps: exercises allocation pressure paths.
    checkVecAdd(RegFileMode::kVirtualized, true, 2 * 1024);
}

/** Divergent kernel: out[tid] = tid < 16 ? a[tid]*2 : a[tid]+7. */
Program
divergeKernel()
{
    KernelBuilder b("diverge");
    const u32 tid = b.reg(), addr = b.reg(), v = b.reg(), t = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shl(addr, R(tid), I(2));
    b.ldg(v, addr, 0);
    b.setp(0, CmpOp::kLt, R(tid), I(16));
    b.guard(0, true).bra("else_");
    b.imul(t, R(v), I(2));
    b.bra("join");
    b.label("else_");
    b.iadd(t, R(v), I(7));
    b.label("join");
    b.stg(addr, 256, t);
    b.exit();
    return b.build();
}

void
checkDiverge(RegFileMode mode, bool virtualize)
{
    CompileOptions copts;
    copts.virtualize = virtualize;
    copts.renamingTableBytes = 0;
    const auto ck = compileKernel(divergeKernel(), copts);

    GlobalMemory mem(2048);
    for (u32 i = 0; i < 32; ++i)
        mem.setWord(i, 10 + i);
    LaunchParams launch;
    launch.gridCtas = 1;
    launch.threadsPerCta = 32;

    runKernel(ck.program, launch, mem, testConfig(mode));
    for (u32 i = 0; i < 32; ++i) {
        const u32 expect = i < 16 ? (10 + i) * 2 : (10 + i) + 7;
        EXPECT_EQ(mem.word(64 + i), expect) << "i=" << i;
    }
}

TEST(EndToEnd, DivergenceBaseline)
{
    checkDiverge(RegFileMode::kBaseline, false);
}

TEST(EndToEnd, DivergenceVirtualized)
{
    checkDiverge(RegFileMode::kVirtualized, true);
}

/** Loop kernel: out[tid] = sum_{k=0}^{tid%8} (tid + k). */
Program
loopKernel()
{
    KernelBuilder b("loop");
    const u32 tid = b.reg(), addr = b.reg(), acc = b.reg(), k = b.reg(),
              lim = b.reg(), t = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shl(addr, R(tid), I(2));
    b.and_(lim, R(tid), I(7));
    b.mov(acc, I(0));
    b.mov(k, I(0));
    b.label("top");
    b.iadd(t, R(tid), R(k));
    b.iadd(acc, R(acc), R(t));
    b.iadd(k, R(k), I(1));
    b.setp(0, CmpOp::kLe, R(k), R(lim));
    b.guard(0).bra("top");
    b.stg(addr, 0, acc);
    b.exit();
    return b.build();
}

void
checkLoop(RegFileMode mode, bool virtualize)
{
    CompileOptions copts;
    copts.virtualize = virtualize;
    copts.renamingTableBytes = 0;
    const auto ck = compileKernel(loopKernel(), copts);

    GlobalMemory mem(1024);
    LaunchParams launch;
    launch.gridCtas = 2;
    launch.threadsPerCta = 64;

    GpuConfig cfg = testConfig(mode);
    runKernel(ck.program, launch, mem, cfg);
    for (u32 cta = 0; cta < 2; ++cta) {
        for (u32 i = 0; i < 64; ++i) {
            const u32 tid = i; // per-CTA thread id; both CTAs write the
                               // same addresses, last writer wins — use
                               // one CTA's expected value.
            u32 expect = 0;
            for (u32 kk = 0; kk <= (tid & 7); ++kk)
                expect += tid + kk;
            EXPECT_EQ(mem.word(tid), expect) << "tid=" << tid;
        }
    }
}

TEST(EndToEnd, LoopWithDivergentTripCounts)
{
    checkLoop(RegFileMode::kBaseline, false);
    checkLoop(RegFileMode::kVirtualized, true);
}

/** Shared-memory reduction with barriers: out[cta] = sum(a[0..63]). */
Program
reduceKernel()
{
    KernelBuilder b("reduce");
    b.setSharedMem(64 * 4);
    const u32 tid = b.reg(), addr = b.reg(), v = b.reg(), saddr = b.reg(),
              stride = b.reg(), other = b.reg(), cta = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.s2r(cta, SpecialReg::kCtaId);
    b.shl(addr, R(tid), I(2));
    b.ldg(v, addr, 0);
    b.shl(saddr, R(tid), I(2));
    b.sts(saddr, 0, v);
    b.bar();
    b.mov(stride, I(32));
    b.label("top");
    b.setp(0, CmpOp::kLt, R(tid), R(stride));
    // other = shared[tid + stride]
    b.iadd(other, R(tid), R(stride));
    b.shl(other, R(other), I(2));
    b.guard(0);
    b.lds(other, other, 0);
    b.guard(0);
    b.lds(v, saddr, 0);
    b.guard(0);
    b.iadd(v, R(v), R(other));
    b.guard(0);
    b.sts(saddr, 0, v);
    b.bar();
    b.shr(stride, R(stride), I(1));
    b.setp(1, CmpOp::kGe, R(stride), I(1));
    b.guard(1).bra("top");
    // thread 0 stores the result
    b.setp(2, CmpOp::kEq, R(tid), I(0));
    b.shl(cta, R(cta), I(2));
    b.guard(2);
    b.stg(cta, 512, v);
    b.exit();
    return b.build();
}

void
checkReduce(RegFileMode mode, bool virtualize)
{
    CompileOptions copts;
    copts.virtualize = virtualize;
    copts.renamingTableBytes = 0;
    const auto ck = compileKernel(reduceKernel(), copts);

    GlobalMemory mem(2048);
    u32 expect = 0;
    for (u32 i = 0; i < 64; ++i) {
        mem.setWord(i, i + 1);
        expect += i + 1;
    }
    LaunchParams launch;
    launch.gridCtas = 1;
    launch.threadsPerCta = 64;

    runKernel(ck.program, launch, mem, testConfig(mode));
    EXPECT_EQ(mem.word(128), expect);
}

TEST(EndToEnd, SharedMemoryReductionWithBarriers)
{
    checkReduce(RegFileMode::kBaseline, false);
    checkReduce(RegFileMode::kVirtualized, true);
}

TEST(EndToEnd, MultiCtaMultiSm)
{
    CompileOptions copts;
    const auto ck = compileKernel(vecAddKernel(), copts);

    GlobalMemory mem(4096);
    for (u32 i = 0; i < 64; ++i) {
        mem.setWord(i, i);
        mem.setWord(64 + i, 7);
    }
    LaunchParams launch;
    launch.gridCtas = 12; // all CTAs redundantly compute the same thing
    launch.threadsPerCta = 64;
    launch.concCtasPerSm = 2;

    GpuConfig cfg = testConfig(RegFileMode::kBaseline);
    cfg.numSms = 4;
    const auto res = runKernel(ck.program, launch, mem, cfg);
    EXPECT_EQ(res.completedCtas, 12u);
    for (u32 i = 0; i < 64; ++i)
        EXPECT_EQ(mem.word(128 + i), i + 7);
}

TEST(EndToEnd, VirtualizedReducesWatermark)
{
    // A kernel with a short-lived temporary: virtualization's watermark
    // must be below baseline's full reservation.
    KernelBuilder b("short_lived");
    const u32 tid = b.reg(), addr = b.reg(), t0 = b.reg(), t1 = b.reg(),
              t2 = b.reg(), acc = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shl(addr, R(tid), I(2));
    b.mov(acc, I(0));
    for (u32 i = 0; i < 6; ++i) {
        b.iadd(t0, R(tid), I(i));      // t0 born
        b.imul(t1, R(t0), I(3));       // t0 dies, t1 born
        b.iadd(t2, R(t1), I(1));       // t1 dies, t2 born
        b.iadd(acc, R(acc), R(t2));    // t2 dies
    }
    b.stg(addr, 0, acc);
    b.exit();
    const Program base = b.build();

    LaunchParams launch;
    launch.gridCtas = 8;
    launch.threadsPerCta = 128;
    launch.concCtasPerSm = 8;

    CompileOptions baseOpts;
    const auto baseCk = compileKernel(base, baseOpts);
    GlobalMemory mem1(8192);
    const auto baseRes = runKernel(baseCk.program, launch, mem1,
                                   testConfig(RegFileMode::kBaseline));

    CompileOptions virtOpts;
    virtOpts.virtualize = true;
    virtOpts.renamingTableBytes = 0;
    const auto virtCk = compileKernel(base, virtOpts);
    GlobalMemory mem2(8192);
    const auto virtRes =
        runKernel(virtCk.program, launch, mem2,
                  testConfig(RegFileMode::kVirtualized));

    EXPECT_LT(virtRes.rf.allocWatermark, baseRes.rf.allocWatermark);
    EXPECT_GT(virtRes.allocationReductionPct(), 10.0);
    // Both computed identical results.
    for (u32 i = 0; i < 128; ++i)
        EXPECT_EQ(mem1.word(i), mem2.word(i));
}

TEST(EndToEnd, FlagCacheAbsorbsMetadata)
{
    CompileOptions copts;
    copts.virtualize = true;
    copts.renamingTableBytes = 0;
    const auto ck = compileKernel(loopKernel(), copts);

    LaunchParams launch;
    launch.gridCtas = 4;
    launch.threadsPerCta = 64;

    GlobalMemory mem1(1024);
    GpuConfig with = testConfig(RegFileMode::kVirtualized);
    with.regFile.flagCacheEntries = 10;
    const auto r1 = runKernel(ck.program, launch, mem1, with);

    GlobalMemory mem2(1024);
    GpuConfig without = testConfig(RegFileMode::kVirtualized);
    without.regFile.flagCacheEntries = 0;
    const auto r2 = runKernel(ck.program, launch, mem2, without);

    EXPECT_GT(r1.flagCacheHits, 0u);
    EXPECT_LT(r1.metaDecoded, r2.metaDecoded);
    EXPECT_LT(r1.dynamicCodeIncreasePct(),
              r2.dynamicCodeIncreasePct());
}

TEST(EndToEnd, GuardedEarlyExit)
{
    // Lanes with tid < 12 exit early; the rest keep computing.  The
    // SIMT stack must retire lanes from every frame and the remaining
    // lanes must produce correct results under virtualization.
    KernelBuilder b("earlyexit");
    const u32 tid = b.reg(), addr = b.reg(), v = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shl(addr, R(tid), I(2));
    b.mov(v, I(7));
    b.stg(addr, 0, v); // everyone writes 7 first
    b.setp(0, CmpOp::kLt, R(tid), I(12));
    b.guard(0);
    b.exit(); // early exit for lanes 0..11
    b.imul(v, R(tid), I(5));
    b.stg(addr, 0, v); // survivors overwrite with tid*5
    b.exit();
    const Program p = b.build();

    for (bool virtualize : {false, true}) {
        CompileOptions copts;
        copts.virtualize = virtualize;
        const auto ck = compileKernel(p, copts);
        GlobalMemory mem(4096);
        LaunchParams launch;
        launch.gridCtas = 1;
        launch.threadsPerCta = 32;
        GpuConfig cfg = testConfig(virtualize
                                       ? RegFileMode::kVirtualized
                                       : RegFileMode::kBaseline);
        Gpu gpu(cfg, ck.program, launch, mem);
        const auto res = gpu.run();
        EXPECT_EQ(res.completedCtas, 1u);
        for (u32 i = 0; i < 32; ++i)
            EXPECT_EQ(mem.word(i), i < 12 ? 7u : i * 5)
                << "lane " << i << " virt " << virtualize;
    }
}

TEST(EndToEnd, SpillAtMinimumBudget)
{
    // A fat kernel compiled down to the 4-register minimum must still
    // compute correctly (fills/spills around every access).
    KernelBuilder b("fat");
    const u32 base = b.reg();
    b.s2r(base, SpecialReg::kTid);
    std::vector<u32> regs;
    for (u32 i = 0; i < 9; ++i) {
        const u32 r = b.reg();
        regs.push_back(r);
        b.imad(r, R(base), I(i + 2), I(i));
    }
    const u32 shifted = b.reg();
    b.shl(shifted, R(base), I(2));
    for (u32 i = 0; i < 9; ++i)
        b.stg(shifted, 4 * 32 * i, regs[i]);
    b.exit();

    CompileOptions copts;
    copts.spillRegBudget = 4;
    const auto ck = compileKernel(b.build(), copts);
    EXPECT_LE(ck.program.numRegs, 4u);
    EXPECT_GT(ck.stats.demotedRegs, 0u);

    GlobalMemory mem(4 * 32 * 9 + 256);
    LaunchParams launch;
    launch.gridCtas = 1;
    launch.threadsPerCta = 32;
    Gpu gpu(testConfig(RegFileMode::kBaseline), ck.program, launch,
            mem);
    gpu.run();
    for (u32 i = 0; i < 9; ++i)
        for (u32 t = 0; t < 32; ++t)
            EXPECT_EQ(mem.word(32 * i + t), t * (i + 2) + i)
                << "slot " << i << " lane " << t;
}

TEST(EndToEnd, WatchdogFiresOnInfiniteLoop)
{
    KernelBuilder b("hang");
    b.label("top");
    b.bra("top");
    b.exit();
    const Program p = b.build();

    GlobalMemory mem(64);
    LaunchParams launch;
    GpuConfig cfg = testConfig(RegFileMode::kBaseline);
    cfg.maxCycles = 5000;
    CompileOptions copts;
    const auto ck = compileKernel(p, copts);
    Gpu gpu(cfg, ck.program, launch, mem);
    EXPECT_THROW(gpu.run(), InternalError);
}

} // namespace
} // namespace rfv
