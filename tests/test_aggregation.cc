/**
 * @file
 * Cross-SM statistics aggregation: additive counters sum over SMs,
 * while peak counters must be maxima (not sums) across SMs.
 */
#include <gtest/gtest.h>

#include <numeric>

#include "compiler/pipeline.h"
#include "isa/builder.h"
#include "sim/gpu.h"

namespace rfv {
namespace {

/**
 * A CTA-independent kernel: every thread stores a value derived from
 * its global id to its own word, so per-SM timing, occupancy and
 * register pressure are identical no matter which CTA lands where.
 */
Program
uniformKernel()
{
    KernelBuilder b("uniform");
    const u32 tid = b.reg(), cta = b.reg(), n = b.reg(), idx = b.reg(),
              addr = b.reg(), t0 = b.reg(), t1 = b.reg(), acc = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.s2r(cta, SpecialReg::kCtaId);
    b.s2r(n, SpecialReg::kNTid);
    b.imad(idx, R(cta), R(n), R(tid));
    b.shl(addr, R(idx), I(2));
    b.mov(acc, I(0));
    for (u32 i = 0; i < 4; ++i) {
        b.iadd(t0, R(idx), I(i));
        b.imul(t1, R(t0), I(3));
        b.iadd(acc, R(acc), R(t1));
    }
    b.stg(addr, 0, acc);
    b.exit();
    return b.build();
}

SimResult
runUniform(u32 num_sms, u32 grid_ctas, RegFileMode mode)
{
    CompileOptions copts;
    copts.virtualize = mode == RegFileMode::kVirtualized;
    const auto ck = compileKernel(uniformKernel(), copts);
    GlobalMemory mem(1 << 16);
    LaunchParams launch;
    launch.gridCtas = grid_ctas;
    launch.threadsPerCta = 64;
    GpuConfig cfg;
    cfg.numSms = num_sms;
    cfg.regFile.mode = mode;
    Gpu gpu(cfg, ck.program, launch, mem);
    return gpu.run();
}

TEST(Aggregation, PeakResidentWarpsIsMaxAcrossSms)
{
    // One CTA per SM with identical kernels: every SM peaks at the
    // same warp count, so the GPU-wide peak equals the single-SM
    // peak.  The old sum aggregation reported 4x.
    const SimResult one = runUniform(1, 1, RegFileMode::kBaseline);
    const SimResult four = runUniform(4, 4, RegFileMode::kBaseline);
    EXPECT_EQ(four.completedCtas, 4u);
    EXPECT_GT(one.peakResidentWarps, 0u);
    EXPECT_EQ(four.peakResidentWarps, one.peakResidentWarps)
        << "peak resident warps must not scale with SM count";
    // Additive counters do scale: four SMs issue 4x the instructions.
    EXPECT_EQ(four.issuedInstrs, 4 * one.issuedInstrs);
}

TEST(Aggregation, AllocWatermarkIsMaxAcrossSms)
{
    for (RegFileMode mode :
         {RegFileMode::kBaseline, RegFileMode::kVirtualized}) {
        const SimResult one = runUniform(1, 1, mode);
        const SimResult four = runUniform(4, 4, mode);
        EXPECT_GT(one.rf.allocWatermark, 0u);
        EXPECT_EQ(four.rf.allocWatermark, one.rf.allocWatermark)
            << "a high-water mark summed across SMs overstates peak "
               "RF pressure (mode " << static_cast<int>(mode) << ")";
    }
}

TEST(Aggregation, AllocationReductionUsesPerSmPeaks)
{
    // The occupancy-derived reservation (peakResidentWarps *
    // regsPerWarp) must be a per-SM quantity: the reduction for N
    // identical SMs equals the single-SM reduction.
    const SimResult one = runUniform(1, 1, RegFileMode::kVirtualized);
    const SimResult four = runUniform(4, 4, RegFileMode::kVirtualized);
    EXPECT_DOUBLE_EQ(four.allocationReductionPct(),
                     one.allocationReductionPct());
}

} // namespace
} // namespace rfv
