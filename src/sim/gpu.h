/**
 * @file
 * Multi-SM GPU driver: CTA dispatch, the cycle loop, and result
 * aggregation.
 */
#ifndef RFV_SIM_GPU_H
#define RFV_SIM_GPU_H

#include <memory>

#include "sim/sm.h"

namespace rfv {

/**
 * Aggregated outcome of one kernel run.
 *
 * Counter-aggregation rules (see aggregateResults): most fields are
 * *additive* — per-SM event counts that sum to a GPU-wide total.
 * Fields documented as *peak* are per-SM high-water marks and are
 * aggregated with max() across SMs: summing a high-water mark over
 * SMs would overstate GPU pressure by up to the SM count.  The peak
 * fields are peakResidentWarps and PhysRegFileStats::allocWatermark.
 */
struct SimResult {
    Cycle cycles = 0;
    u64 issuedInstrs = 0;
    u64 threadInstrs = 0;
    u64 metaEncounters = 0;
    u64 metaDecoded = 0;
    u64 flagCacheHits = 0;
    u64 flagCacheMisses = 0;
    u64 scoreboardStalls = 0;
    u64 allocStallEvents = 0;
    u64 throttleActiveCycles = 0;
    u64 bankConflictCycles = 0;
    u64 spillEvents = 0;
    u64 spilledRegs = 0;
    u64 refilledRegs = 0;
    u64 wakeStallEvents = 0;
    u64 icacheHits = 0;
    u64 icacheMisses = 0;
    u64 dcacheHits = 0;
    u64 dcacheMisses = 0;
    /** Peak: max over SMs of each SM's resident-warp high-water mark. */
    u32 peakResidentWarps = 0;
    u32 completedCtas = 0;

    PhysRegFileStats rf;     //!< summed over SMs (allocWatermark: max)
    RenameStats rename;      //!< summed over SMs
    DramStats dram;          //!< summed over per-SM channels

    /** Kernel footprint, for allocation-reduction metrics. */
    u32 regsPerWarp = 0;

    /** Field-wise equality (the naive-vs-event equivalence oracle). */
    bool operator==(const SimResult &) const = default;

    /**
     * Dynamic code increase from metadata in percent:
     * decoded metadata / issued regular instructions.
     */
    double
    dynamicCodeIncreasePct() const
    {
        return issuedInstrs
                   ? 100.0 * static_cast<double>(metaDecoded) /
                         static_cast<double>(issuedInstrs)
                   : 0.0;
    }

    /**
     * Register allocation reduction vs. the compiler reservation at
     * peak residency (paper Fig. 10): 1 - watermark/reserved.  Both
     * sides are per-SM peaks (max over SMs), so this is the reduction
     * on the most-occupied SM — for the homogeneous SMs modeled here
     * that matches the paper's per-core figure.
     */
    double
    allocationReductionPct() const
    {
        const double reserved =
            static_cast<double>(peakResidentWarps) * regsPerWarp;
        if (reserved <= 0)
            return 0.0;
        const double pct =
            100.0 * (1.0 - static_cast<double>(rf.allocWatermark) /
                               reserved);
        return pct > 0 ? pct : 0.0;
    }
};

/**
 * Cycle-loop accounting for the event-driven fast-forward.  Kept out
 * of SimResult on purpose: SimResult::operator== is the
 * naive-vs-event equivalence oracle and must compare architectural
 * results only, while these counters describe how much work the loop
 * itself avoided.
 */
struct LoopStats {
    /** Loop iterations that actually stepped at least one SM. */
    u64 steppedCycles = 0;
    /** Cycles fast-forwarded fleet-wide (no SM could progress). */
    u64 skippedCycles = 0;
    /** Per-SM step() calls replaced by skipCycles(1) on quiet SMs. */
    u64 smStepsElided = 0;

    bool operator==(const LoopStats &) const = default;
};

/**
 * One GPU instance bound to a compiled kernel and its memory.
 *
 * The cycle loop steps every SM once per cycle, in SM-id order.
 * DRAM is sharded one channel per SM, global-memory atomics commit at
 * the end of the cycle in SM-id order, and CTAs are dispatched after
 * that (docs/ARCHITECTURE.md §3.4).
 *
 * With GpuConfig::eventDriven (the default) the loop additionally
 * skips cycles no SM can use: each SM reports the earliest cycle its
 * state can change (Sm::nextEventCycle), quiet SMs elide their step,
 * and when every SM is quiet the clock jumps straight to the
 * fleet-wide minimum with per-cycle counters reconstructed by
 * Sm::skipCycles.  Results stay bit-identical to the naive loop
 * (enforced by tests/test_event_equivalence.cc), and TraceHooks see
 * the same streams on both loops: the sampled SM wakes on every
 * sample cycle.
 */
class Gpu {
  public:
    /**
     * @p sharedDecode lets batch drivers reuse one immutable
     * DecodeCache across many Gpu instances (it must have been built
     * for the same program under a decode-equivalent GpuConfig); null
     * builds a private one, as one-shot runs always did.
     */
    Gpu(const GpuConfig &cfg, const Program &prog,
        const LaunchParams &launch, GlobalMemory &gmem,
        TraceHooks hooks = {}, const DecodeCache *sharedDecode = nullptr);

    /** Run the kernel to completion; throws on watchdog expiry. */
    SimResult run();

    /** SMs (read-only access for tests). */
    const Sm &sm(u32 i) const { return *sms_[i]; }

    /** Cycle-loop accounting of the last run(). */
    const LoopStats &loopStats() const { return loopStats_; }

  private:
    GpuConfig cfg_;
    const Program &prog_;
    LaunchParams launch_;
    GlobalMemory &gmem_;
    TraceHooks hooks_;
    std::unique_ptr<DecodeCache> ownedDecode_; //!< built when none shared
    const DecodeCache &decode_; //!< shared read-only by every SM
    std::vector<DramModel> drams_; //!< one channel per SM (sharded)
    std::vector<std::unique_ptr<Sm>> sms_;
    LoopStats loopStats_;
};

/**
 * Aggregate SM/DRAM statistics into a SimResult (shared by Gpu::run
 * and tests).  Additive counters are summed over SMs and channels;
 * peak counters (peakResidentWarps, rf.allocWatermark) take the max
 * over SMs — see the SimResult field documentation.
 */
SimResult aggregateResults(const std::vector<std::unique_ptr<Sm>> &sms,
                           const std::vector<DramModel> &drams,
                           Cycle cycles, u32 regsPerWarp);

} // namespace rfv

#endif // RFV_SIM_GPU_H
