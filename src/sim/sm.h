/**
 * @file
 * One streaming multiprocessor: SoA warp table, two-level scheduler,
 * scoreboard, functional SIMT execution, register management, CTA
 * throttling (GPU-shrink) and the scheduler-issued spill engine.
 *
 * Warp state lives in a structure-of-arrays WarpTable (see
 * sim/warp_table.h and docs/ARCHITECTURE.md §3.6): the per-cycle
 * sweeps — issuable-mask computation, barrier release, scoreboard
 * clears — operate on packed arrays and bitmasks instead of hopping
 * across per-warp objects.
 */
#ifndef RFV_SIM_SM_H
#define RFV_SIM_SM_H

#include <array>

#include "common/ring_queue.h"
#include "isa/program.h"
#include "regfile/register_manager.h"
#include "regfile/release_flag_cache.h"
#include "sim/dcache.h"
#include "sim/decode_cache.h"
#include "sim/icache.h"
#include "sim/loop_profiler.h"
#include "sim/memory.h"
#include "sim/sim_config.h"
#include "sim/sleeper_set.h"
#include "sim/warp_table.h"

namespace rfv {

/** "No event pending": the SM cannot change state on its own. */
inline constexpr Cycle kNoEventCycle = ~0ull;

/** Per-SM counters. */
struct SmStats {
    u64 issuedInstrs = 0;  //!< regular warp instructions issued
    u64 threadInstrs = 0;  //!< lane-level instruction count
    u64 metaEncounters = 0; //!< pir/pbr reached by any warp
    u64 metaDecoded = 0;    //!< pir flag-cache misses + all pbr
    u64 scoreboardStalls = 0;
    u64 allocStallEvents = 0;
    u64 throttleSkips = 0;
    u64 throttleActiveCycles = 0;
    u64 bankConflictCycles = 0;
    u64 spillEvents = 0;   //!< warp spills performed
    u64 spilledRegs = 0;
    u64 refilledRegs = 0;
    u64 idleCycles = 0;    //!< cycles with zero issues
    u64 wakeStallEvents = 0;
    u64 icacheHits = 0;
    u64 icacheMisses = 0;
    u64 dcacheHits = 0;
    u64 dcacheMisses = 0;
    u32 peakResidentWarps = 0;
};

/** One SM. */
class Sm {
  public:
    Sm(u32 smId, const GpuConfig &cfg, const Program &prog,
       const DecodeCache &decode, const LaunchParams &launch,
       GlobalMemory &gmem, DramModel &dram, const TraceHooks &hooks);

    /** Try to make CTA @p globalCtaId resident; false if no room. */
    bool tryLaunchCta(u32 globalCtaId, Cycle now);

    /** True while any CTA is resident. */
    bool busy() const { return residentCtas_ > 0; }

    u32 completedCtas() const { return completedCtas_; }

    /** Advance one cycle. */
    void step(Cycle now);

    /**
     * Earliest cycle strictly after @p now at which this SM's state
     * can change on its own, or kNoEventCycle if it cannot (idle, or
     * every warp is parked on an external condition).  Valid only
     * right after step()/commitAtomics() for cycle @p now (or after a
     * CTA launch at @p now): the minimum over every ready warp's
     * wakeup cycle and the smallest sleeper wake key.  Cycles before
     * the returned value are provable no-ops — every ready warp is
     * blocked past them, sleepers wake later, pending warps cannot
     * enter the full ready set, throttle/dispatch inputs are frozen,
     * and deferred completions only become visible to attempts at the
     * next executed step (which drains them first).
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Account @p k elided no-op cycles: reconstructs exactly what k
     * step() calls would have recorded over a window where
     * nextEventCycle() proved no state change — idle/throttle cycle
     * counters, the LRR cursor rotation, and the per-cycle power
     * sampling integrals.  Bit-identical to stepping (enforced by
     * tests/test_event_equivalence.cc).
     */
    void skipCycles(u64 k);

    /**
     * Commit global-memory atomics issued during step(@p now).
     *
     * Atomic read-modify-writes are the one place SMs intentionally
     * touch shared memory words, so their side effects are deferred
     * and committed by the Gpu at the end of the cycle in SM-id
     * order, after every SM's plain stores of that cycle.  The
     * destination register is scoreboarded until the (much later)
     * DRAM completion, so the deferral is architecturally invisible.
     * Callers stepping an Sm directly must invoke this after each
     * step().
     */
    void
    commitAtomics(Cycle now)
    {
        if (!pendingAtomics_.empty())
            commitAtomicsWork(now);
    }

    const SmStats &stats() const { return stats_; }
    RegisterManager &regs() { return mgr_; }
    const RegisterManager &regs() const { return mgr_; }
    const ReleaseFlagCache &flagCache() const { return flagCache_; }

    /** Per-phase wall-clock profile (populated when profiling is on). */
    const LoopProfile &loopProfile() const { return prof_; }

    /** Resident (valid) warps right now. */
    u32 residentWarps() const;

  private:
    struct CtaSlot {
        bool active = false;
        u32 globalId = 0;
        u32 numWarps = 0;
        u32 warpsFinished = 0;
        u32 barrierArrived = 0;
    };

    /**
     * One in-flight writeback, packed to 24 bytes (three 8-byte
     * lines' worth instead of the unpacked 32): the warp index and
     * the load flag share one u32, since warp indices are bounded by
     * the SM's warp-slot count (far below 2^31).  Completions are the
     * densest hot-path traffic — heap sifts, wheel pushes and drains
     * all move them by value — so the 25% size cut is measurable.
     */
    struct Completion {
        Cycle time;
        u64 regMask;
        u32 predMask;
        u32 warpLoad; //!< warp index in bits 0-30, isLoad in bit 31

        static constexpr u32 kLoadBit = 0x80000000u;

        Completion() = default;
        Completion(Cycle t, u32 w, u64 regs, u32 preds, bool is_load)
            : time(t), regMask(regs), predMask(preds),
              warpLoad(w | (is_load ? kLoadBit : 0))
        {
        }

        u32 warp() const { return warpLoad & ~kLoadBit; }
        bool isLoad() const { return (warpLoad & kLoadBit) != 0; }

        bool
        operator>(const Completion &o) const
        {
            return time > o.time;
        }
    };
    static_assert(sizeof(Completion) == 24,
                  "Completion must stay packed to 24 bytes");

    enum class IssueOutcome : u8 { kIssued, kSkipped, kDemoted, kParked };

    /** One atomic op awaiting the end-of-cycle commit. */
    struct PendingAtomic {
        u32 warpIdx;
        u32 dst;
        u32 execMask;
        u32 offset;
        WarpValue addr; //!< per-lane base addresses
        WarpValue val;  //!< per-lane addends
    };

    // The per-cycle phases below split into an inline guard (the
    // common nothing-due case, a compare or two on this SM's own
    // state) and an out-of-line body, so quiet cycles pay no call.
    void
    drainCompletions(Cycle now)
    {
        if (wheelOccupied_ != 0 ||
            (!completions_.empty() && completions_.front().time <= now))
            drainCompletionsWork(now);
    }
    void drainCompletionsWork(Cycle now);
    void
    wakeSleepers(Cycle now)
    {
        // A sleeper is always live: only an issuing warp can finish.
        if (sleepers_.nextWake() <= now)
            sleepers_.wakeDue(now, wt_.blockedUntil.data(),
                              [this](u32 wi) { pendWarp(wi); });
    }
    void
    evaluateThrottle()
    {
        // Pure function of the manager's allocation state (free pool,
        // resident-CTA set, per-CTA held counts): an unchanged epoch
        // means an identical decision and no signature change.
        if (mgr_.allocEpoch() != throttleEpoch_)
            evaluateThrottleWork();
    }
    void evaluateThrottleWork();
    void commitAtomicsWork(Cycle now);
    void unparkThrottled();
    IssueOutcome attemptIssue(u32 warpIdx, Cycle now);
    bool processMetadata(u32 warpIdx, Cycle now);
    void execute(u32 warpIdx, const Instr &ins, const StaticDecode &dec,
                 u32 execMask, Cycle now);
    void finishWarp(u32 warpIdx, Cycle now);
    void releaseBarrier(u32 ctaSlot);
    void tryRefill(u32 warpIdx, Cycle now);
    i32 spillPriorityWarp() const;
    void attemptSpill(u32 stalledWarp, u32 needBank, Cycle now);
    void demoteWarp(u32 warpIdx);
    void pendWarp(u32 warpIdx);
    void sleepWarp(u32 warpIdx);
    void removeFromReady(u32 warpIdx);
    void
    refillReadyQueue()
    {
        if (readyQueue_.size() < effectiveReadyQueue_ &&
            !pendingQueue_.empty())
            refillReadyQueueWork();
    }
    void refillReadyQueueWork();
    void normalizeReadyQueue(Cycle now);
    void pushCompletion(const Completion &c);
    Cycle scoreboardWake(u32 warpIdx, u64 needRegs, u32 needPreds,
                         Cycle now) const;
    Cycle mshrWake(Cycle now) const;
    std::pair<Cycle, bool> dramLoadTiming(
        const std::vector<u32> &byteAddrs, Cycle now);
    u32 firstWarpSlot(u32 ctaSlot) const { return ctaSlot * warpsPerCta_; }

    // Value plumbing.  Returns the register file's lane array directly
    // for register operands (no per-operand copy); immediates are
    // splatted into the caller-provided scratch.
    const WarpValue &readOperand(u32 warpIdx, const Operand &op,
                                 WarpValue &scratch);
    void writeDest(u32 warpIdx, u32 reg, const WarpValue &value,
                   u32 execMask, Cycle now);

    u32 smId_;
    const GpuConfig &cfg_;
    const Program &prog_;
    const DecodeCache &decode_;
    LaunchParams launch_;
    GlobalMemory &gmem_;
    DramModel &dram_;
    const TraceHooks &hooks_;

    u32 warpsPerCta_;
    u32 maxConcCtas_;
    u32 residentCtas_ = 0;
    u32 completedCtas_ = 0;

    RegisterManager mgr_;
    ReleaseFlagCache flagCache_;
    ICache icache_;
    DCache dcache_;
    u32 effectiveReadyQueue_;
    bool twoLevel_;

    /** SoA warp state: hot packed arrays + flag masks + cold stacks. */
    WarpTable wt_;
    std::vector<CtaSlot> ctaSlots_;
    std::vector<std::vector<u32>> sharedMem_; //!< per CTA slot, words
    std::vector<std::vector<WarpValue>> localMem_; //!< [warpSlot][slot]

    std::vector<u32> readyQueue_;
    /** Smallest blockedUntil in readyQueue_ for nextEventCycle():
     *  set by normalizeReadyQueue(), lowered by later refills. */
    Cycle readyWake_ = kNoEventCycle;
    RingQueue<u32> pendingQueue_;
    u32 lrrCursor_ = 0;

    /**
     * Ready warps blocked at least this far in the future fall asleep
     * (sleepers_) instead of spinning in the active set.  Short ALU
     * stalls (4-6 cycles) stay ready — preserving the two-level
     * scheduler's character — and are covered by nextEventCycle()'s
     * min-over-ready term, so quiescent windows remain skippable.
     */
    static constexpr Cycle kSleepThresholdCycles = 8;

    /**
     * Completion min-heap (std::push_heap/pop_heap with
     * std::greater).  The exact-wakeup queries no longer scan it:
     * scoreboardWake walks the warp table's per-register ready-time
     * index and mshrWake reads the load-time heap below.  Holds load
     * completions (whose drain order must stay globally time-sorted
     * to mirror the load-time heap) and the rare non-load completion
     * further than the wheel below reaches.
     */
    std::vector<Completion> completions_;
    u32 inFlightLoads_ = 0;

    /**
     * Timing wheel for short-latency non-load completions (the bulk:
     * ALU/store writebacks a few cycles out).  Slot t % kWheelSlots
     * holds the completions retiring at absolute cycle t; pushes and
     * drains are O(1) slot operations instead of heap sifts.  Every
     * resident entry's time lies in (wheelPos_, wheelPos_ + 64), so
     * residues map to absolute cycles uniquely and a drain at cycle
     * `now` empties exactly the slots of cycles in (wheelPos_, now].
     * Order between wheel and heap entries of equal time is
     * irrelevant: non-load completion effects are commutative
     * scoreboard-mask clears.
     */
    static constexpr u32 kWheelSlots = 64;
    std::array<std::vector<Completion>, kWheelSlots> wheel_;
    u64 wheelOccupied_ = 0; //!< bit s set while wheel_[s] is non-empty
    Cycle wheelPos_ = 0;    //!< cycles <= wheelPos_ are fully drained

    /**
     * Min-heap of in-flight DRAM-load completion times, maintained
     * alongside completions_ (pushed per load issue, popped when the
     * load drains — loads drain in time order, so the fronts agree).
     * Makes mshrWake O(1) instead of a scan over every completion on
     * each MSHR-full issue attempt.
     */
    std::vector<Cycle> loadHeap_;

    /** Long-blocked warps (WarpLoc::kSleeping). */
    SleeperSet sleepers_;

    /** Warps parked by the CTA throttle until its signature changes. */
    std::vector<u32> throttleParked_;

    // Reusable per-step scratch (hot path stays allocation-free).
    std::vector<u32> issueOrder_; //!< LRR snapshot (readyQueue_ cap)
    std::vector<u32> addrScratch_; //!< per-lane byte addresses
    std::vector<u32> segScratch_;  //!< coalescing segment ids

    std::vector<PendingAtomic> pendingAtomics_;

    u32 currentPc_ = 0; //!< diagnostic: pc of the instruction being issued

    bool throttleActive_ = false;
    u32 throttleCta_ = 0;
    /** mgr_ allocation epoch at the last throttle evaluation (the
     *  initial ~0 forces the first call to compute). */
    u64 throttleEpoch_ = ~0ull;
    /** mgr_ allocation epoch at the last failed CTA-launch attempt
     *  (the initial ~0 lets the first attempt through). */
    u64 launchFailEpoch_ = ~0ull;

    /**
     * Operand-collector port usage in the current cycle: reads issued
     * to each bank by all instructions issued this cycle.  Each bank
     * serves one warp-wide operand per cycle, so the n-th reader of a
     * bank waits n extra cycles (paper Sec. 7.1: renaming preserves the
     * compiler's bank assignment precisely to keep this small).
     */
    std::vector<u32> bankPortUse_;

    SmStats stats_;

    /** Per-phase wall-clock buckets; accumulated only when profiling_. */
    LoopProfile prof_;
    bool profiling_ = false;
    bool profStep_ = false; //!< the current step is a timed sample
    /** SM0 with a liveSample hook and a period: steps every sample. */
    bool sampling_ = false;
};

} // namespace rfv

#endif // RFV_SIM_SM_H
