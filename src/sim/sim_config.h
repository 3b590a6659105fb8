/**
 * @file
 * Simulator configuration, launch geometry, and trace hooks.
 */
#ifndef RFV_SIM_SIM_CONFIG_H
#define RFV_SIM_SIM_CONFIG_H

#include <functional>

#include "common/bit_utils.h"
#include "regfile/config.h"

namespace rfv {

/** Warp scheduler policy. */
enum class SchedulerPolicy : u8 {
    kTwoLevel,   //!< paper baseline: small ready queue + pending queue
    kRoundRobin, //!< loose round-robin over all resident warps
};

/** GPU-wide microarchitectural parameters (Fermi-like defaults). */
struct GpuConfig {
    u32 numSms = 4;          //!< SM count (paper: 16; scaled runs use 4)
    u32 maxCtasPerSm = 8;    //!< concurrent CTA slot limit
    u32 maxWarpsPerSm = 48;  //!< warp context limit
    u32 issuePerCycle = 2;   //!< dual schedulers, one instr each
    u32 readyQueueSize = 6;  //!< two-level scheduler active set
    SchedulerPolicy scheduler = SchedulerPolicy::kTwoLevel;

    // Instruction cache (per SM).  Metadata instructions occupy lines,
    // so pir/pbr code growth costs real fetch misses.  Both sizes must
    // be powers of two (validate()); a 0 capacity disables the cache.
    u32 icacheInstrs = 1024;    //!< capacity (8 KB of 64-bit words)
    u32 icacheLineInstrs = 8;   //!< 64 B lines
    u32 icacheMissLatency = 80; //!< refill stall in cycles

    // Optional L1 data cache (timing-only; 0 lines = disabled, the
    // paper-faithful configuration where spills pay DRAM latency).
    u32 dcacheLines = 0;
    u32 dcacheLineBytes = 128;
    u32 dcacheHitLatency = 30;

    // Execution latencies (cycles).
    u32 aluLatency = 4;
    u32 mulLatency = 6;
    u32 fpuLatency = 6;
    u32 sfuLatency = 16;
    u32 sharedLatency = 24;
    u32 globalLatency = 250; //!< DRAM base latency

    // Memory system.
    u32 mshrsPerSm = 48;             //!< in-flight loads per SM
    u32 dramCyclesPerTransaction = 2; //!< GPU-wide service interval
    double clockGhz = 0.7;           //!< Fermi-like core clock

    /** Extra dependent-instruction latency for the renaming lookup. */
    u32 renamingLatency = 1;

    /** One-cycle fetch bubble when a pir misses the flag cache. */
    bool flagMissBubble = true;

    /** Cycles a freshly refilled warp is protected from re-spilling. */
    u32 spillCooldown = 200;

    /** Watchdog: abort if a kernel exceeds this many cycles. */
    Cycle maxCycles = 50'000'000;

    /**
     * Event-driven cycle loop (default): each SM reports the earliest
     * cycle at which its state can change, quiescent SMs elide their
     * per-cycle step, and when no SM can make progress the clock
     * fast-forwards to the fleet-wide minimum with per-cycle stats
     * (idle/throttle/sampling counters, LRR rotation) reconstructed
     * arithmetically.  Results are bit-identical to the naive
     * step-every-cycle loop, which is kept as the equivalence oracle
     * (tests/test_event_equivalence.cc).  TraceHooks run on either
     * loop.
     */
    bool eventDriven = true;

    RegFileConfig regFile;

    void
    validate() const
    {
        fatalIf(numSms == 0, "need at least one SM");
        fatalIf(issuePerCycle == 0, "need issue bandwidth");
        fatalIf(readyQueueSize == 0, "ready queue cannot be empty");
        fatalIf(maxWarpsPerSm == 0 || maxCtasPerSm == 0,
                "need warp and CTA slots");
        fatalIf(!isPow2(icacheLineInstrs) ||
                    (icacheInstrs != 0 && !isPow2(icacheInstrs)),
                "icache capacity and line size must be powers of two");
        regFile.validate();
    }
};

/** Kernel launch geometry. */
struct LaunchParams {
    u32 gridCtas = 1;       //!< CTAs in the grid
    u32 threadsPerCta = 32; //!< threads per CTA (any positive count)
    u32 concCtasPerSm = 8;  //!< Table-1 "Conc. CTAs/Core" occupancy cap

    u32
    warpsPerCta() const
    {
        return (threadsPerCta + kWarpSize - 1) / kWarpSize;
    }

    bool operator==(const LaunchParams &) const = default;
};

/** Register definition/release event kinds (Fig. 2 traces). */
enum class RegEvent : u8 { kDef, kRelease };

struct LoopProfile;

/** Optional instrumentation hooks; leave empty for fast runs. */
struct TraceHooks {
    /**
     * Periodic live-register sample:
     * (cycle, mappedRegs, allocatedBaselineEquivalent).
     */
    std::function<void(Cycle, u32, u32)> liveSample;
    /** Sampling period in cycles (0 disables). */
    Cycle samplePeriod = 0;

    /**
     * Per-register event: (cycle, smId, warpSlot, archReg, event).
     * Fired on every definition (first write of a value instance) and
     * release.
     */
    std::function<void(Cycle, u32, u32, u32, RegEvent)> regEvent;

    /**
     * When non-null, one in kLoopProfileSampleEvery Sm::step() calls
     * attributes its wall-clock time to per-phase buckets
     * (fetch/schedule/execute/commit) and Gpu::run() sums every SM's
     * buckets into this profile when the run ends.
     * The event-driven loop is profiled as it actually runs (elided
     * cycles cost no time and appear in no bucket).
     */
    LoopProfile *loopProfile = nullptr;
};

} // namespace rfv

#endif // RFV_SIM_SIM_CONFIG_H
