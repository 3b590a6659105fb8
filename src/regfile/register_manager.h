/**
 * @file
 * Mode-aware register management for one SM (paper Sections 7 and 8).
 *
 * All register values flow through the architected-to-physical mapping,
 * so an unsafe release (compiler bug, hardware bug) corrupts results
 * and is caught by the functional test suite — the renaming is not just
 * bookkeeping.
 *
 * Modes:
 *  - Baseline: all registers of a CTA allocated at launch, freed at
 *    completion.  Launch fails when the file is too small (occupancy
 *    pressure), exactly like a real GPU.
 *  - Virtualized: exempt registers (< numExempt) get fixed reserved
 *    homes at launch; renamed registers are allocated on write
 *    (bank-restricted to preserve compiler bank assignment) and freed
 *    at pir/pbr release points.  Spill/refill hooks support the
 *    GPU-shrink throttle's corner case.
 *  - HardwareOnly: patent [46] - allocate on first write, free only on
 *    CTA completion (redefinition reuses the mapping, which is
 *    occupancy-equivalent to dealloc+realloc).
 */
#ifndef RFV_REGFILE_REGISTER_MANAGER_H
#define RFV_REGFILE_REGISTER_MANAGER_H

#include <vector>

#include "regfile/phys_regfile.h"

namespace rfv {

/** Renaming-layer counters for the power model. */
struct RenameStats {
    u64 lookups = 0;     //!< renaming-table reads (operand lookups)
    u64 updates = 0;     //!< renaming-table writes (alloc/release)
    u64 spills = 0;      //!< registers spilled by the scheduler engine
    u64 refills = 0;     //!< registers refilled from spill space
    /** Sum over sampled cycles of mapped architected registers. */
    u64 mappedRegCycles = 0;
    u64 sampledCycles = 0;

    bool operator==(const RenameStats &) const = default;
};

/** Mapping state of one architected register of one warp slot. */
enum class RegState : u8 { kUnmapped, kMapped, kSpilled };

/**
 * Lifecycle-lint state of one architected register of one warp slot.
 * Orthogonal to RegState: RegState tracks the physical mapping, the
 * lifecycle tracks whether the *value* is trustworthy.  Reads are legal
 * only in kWritten; a read in kFresh sees an undefined value and a read
 * in kReleased sees a freed (poisoned) one.
 */
enum class RegLifecycle : u8 { kFresh, kWritten, kReleased };

/** Per-SM register manager. */
class RegisterManager {
  public:
    /**
     * A manager bound to a kernel of @p regsPerWarp registers, the
     * first @p numExempt of them exempt (see configureKernel).
     */
    RegisterManager(const RegFileConfig &cfg, u32 maxWarpSlots,
                    u32 regsPerWarp = 0, u32 numExempt = 0);

    /** Bind the kernel's footprint; resets all state. */
    void configureKernel(u32 regsPerWarp, u32 numExempt);

    /**
     * CTA launch: Baseline maps every register of every warp;
     * Virtualized maps the exempt registers into their reserved homes.
     * @return false (with full rollback) if physical registers ran out —
     *         the CTA cannot be resident yet.
     */
    bool launchCta(u32 ctaSlot, u32 firstWarpSlot, u32 numWarps);

    /** CTA completion: frees everything the CTA still holds. */
    void completeCta(u32 ctaSlot, u32 firstWarpSlot, u32 numWarps);

    /**
     * Warp exit (Virtualized only; no-op otherwise): frees the warp's
     * remaining footprint — mapped registers, including exempt ones
     * that have no release points, and any spill-store residue.  A
     * finished warp's values are dead, so the renaming table can hand
     * them back the moment the warp exits instead of waiting for
     * completeCta.  Under GPU-shrink this is a forward-progress
     * requirement: early-exited warps would otherwise pin exempt
     * registers in exactly the banks the surviving warps need to
     * refill, and the spill engine cannot victimize finished warps.
     */
    void completeWarp(u32 warpSlot, u32 ctaSlot);

    /** Outcome of a write-side mapping request. */
    struct AllocOutcome {
        bool ok = false;
        u32 wakeCycles = 0;
    };

    /**
     * Ensure the destination register is mapped before a write.
     * Virtualized/HardwareOnly allocate on demand; Baseline expects the
     * mapping to exist.  Fails (ok=false) when the register file bank
     * is exhausted — the caller stalls or invokes the spill engine.
     */
    AllocOutcome ensureMappedForWrite(u32 warpSlot, u32 ctaSlot, u32 reg);

    RegState
    state(u32 warpSlot, u32 reg) const
    {
        return state_[slotIndex(warpSlot, reg)];
    }

    /** Physical register backing (panics unless mapped). */
    u32
    physOf(u32 warpSlot, u32 reg) const
    {
        const u32 idx = slotIndex(warpSlot, reg);
        panicIf(state_[idx] != RegState::kMapped,
                "physOf on an unmapped register r" + std::to_string(reg) +
                    " of warp slot " + std::to_string(warpSlot));
        return mapping_[idx];
    }

    /** Physical bank backing the register (operand-collector model). */
    u32
    physBankOf(u32 warpSlot, u32 reg) const
    {
        return file_.bankOf(physOf(warpSlot, reg));
    }

    /** Lane values (panics unless mapped). */
    WarpValue &
    values(u32 warpSlot, u32 reg)
    {
        return file_.values(physOf(warpSlot, reg));
    }

    /** Account a warp-wide operand read (bank + renaming lookups). */
    void
    countOperandRead(u32 warpSlot, u32 reg)
    {
        file_.countRead(physOf(warpSlot, reg));
        if (cfg_.mode != RegFileMode::kBaseline && reg >= fixedExempt_)
            ++renameStats_.lookups;
    }

    /**
     * Fused operand-collection query: account the warp-wide read and
     * return the physical bank serving it.  One mapping lookup instead
     * of the two a countOperandRead() + physBankOf() pair would do —
     * this runs per source operand of every issued instruction.
     */
    u32
    readOperandBank(u32 warpSlot, u32 reg)
    {
        const u32 phys = physOf(warpSlot, reg);
        file_.countRead(phys);
        if (cfg_.mode != RegFileMode::kBaseline && reg >= fixedExempt_)
            ++renameStats_.lookups;
        return file_.bankOf(phys);
    }

    /** Account a warp-wide result write. */
    void
    countOperandWrite(u32 warpSlot, u32 reg)
    {
        file_.countWrite(physOf(warpSlot, reg));
        if (cfg_.mode != RegFileMode::kBaseline && reg >= fixedExempt_)
            ++renameStats_.lookups;
        if (cfg_.lifecycleLint) [[unlikely]]
            lint_[slotIndex(warpSlot, reg)] = RegLifecycle::kWritten;
    }

    /**
     * Lifecycle lint (RegFileConfig::lifecycleLint): throw an
     * InternalError when a read would observe a released or
     * never-written register.  The simulator's issue path wraps the
     * call and annotates the error with (pc, instruction); this
     * message carries (warp slot, register, state).  No-op when the
     * lint is disabled.
     */
    void
    lintCheckRead(u32 warpSlot, u32 reg) const
    {
        if (!cfg_.lifecycleLint)
            return;
        lintTrapRead(warpSlot, reg);
    }

    /** Current lint state (kWritten when the lint is disabled). */
    RegLifecycle lifecycle(u32 warpSlot, u32 reg) const;

    /**
     * Release an architected register (pir/pbr).  No-op for exempt or
     * unmapped registers (releasing an absent mapping is harmless by
     * design) and in Baseline/HardwareOnly modes.
     */
    void releaseReg(u32 warpSlot, u32 ctaSlot, u32 reg);

    // ---- GPU-shrink spill engine hooks ---------------------------------
    /** Renamed, mapped registers of a warp (spill victims). */
    std::vector<u32> spillCandidates(u32 warpSlot) const;

    /**
     * Victim-scoring scan without materializing the candidate list:
     * the count of spillCandidates(warpSlot) plus whether any of them
     * lives in @p needBank.  The spill engine scores every resident
     * warp per allocation stall, so the per-warp vector allocations of
     * spillCandidates() would dominate the shrink-mode hot path.
     */
    u32 countSpillCandidates(u32 warpSlot, u32 needBank,
                             bool &hasNeed) const;

    /** Lowest spilled register of a warp; panics if there is none. */
    u32 firstSpilledReg(u32 warpSlot) const;

    /** Save values to spill storage and free the physical register. */
    void spillReg(u32 warpSlot, u32 ctaSlot, u32 reg);

    /** Re-allocate and restore a spilled register. */
    AllocOutcome refillReg(u32 warpSlot, u32 ctaSlot, u32 reg);

    /**
     * True if the warp has any spilled register.  spilledCount_ is
     * maintained on the spillReg()/refillReg()/completeCta()
     * transitions: this is queried per issue attempt, where an
     * O(regsPerWarp) scan would sit on the hot path.
     */
    bool
    hasSpilledRegs(u32 warpSlot) const
    {
        return spilledCount_[warpSlot] != 0;
    }

    // ---- Queries ---------------------------------------------------------
    u32 freeRegs() const { return file_.freeTotal(); }
    u32 ctaAllocated(u32 ctaSlot) const { return ctaAlloc_[ctaSlot]; }
    u32 mappedCount() const { return mapped_; }
    u32 numExempt() const { return numExempt_; }
    u32 fixedExempt() const { return fixedExempt_; }
    u32 regsPerWarp() const { return regsPerWarp_; }

    PhysRegFile &file() { return file_; }
    const PhysRegFile &file() const { return file_; }
    const RenameStats &renameStats() const { return renameStats_; }

    /**
     * Monotonic count of allocation-state changes: bumped whenever the
     * free-register pool, a CTA's held-register count, or the resident
     * CTA set can have changed (kernel reset, CTA launch/completion,
     * renamed alloc, mapping free — spill/refill flow through the last
     * two).  Consumers whose output is a pure function of that state
     * (the GPU-shrink throttle) can skip recomputation while the epoch
     * is unchanged.
     */
    u64 allocEpoch() const { return allocEpoch_; }

    /** Integrate per-cycle state (power gating, live-register trace). */
    void
    sampleCycle()
    {
        file_.sampleCycle();
        renameStats_.mappedRegCycles += mapped_;
        renameStats_.sampledCycles += 1;
    }

    /**
     * Integrate @p n unchanged cycles at once (event-driven
     * fast-forward): mapped_ and the subarray states only change at
     * alloc/release events, so this equals n sampleCycle() calls over
     * a window with no such events.
     */
    void sampleCycles(u64 n);

  private:
    u32
    slotIndex(u32 warpSlot, u32 reg) const
    {
        return warpSlot * (kMaxArchRegs + 1) + reg;
    }
    /** Slow path of lintCheckRead (lint enabled only). */
    void lintTrapRead(u32 warpSlot, u32 reg) const;
    u32 archBank(u32 reg) const { return reg % cfg_.numBanks; }
    u32 exemptHome(u32 warpSlot, u32 reg) const;
    AllocOutcome allocRenamed(u32 warpSlot, u32 ctaSlot, u32 reg);
    void freeMapping(u32 warpSlot, u32 ctaSlot, u32 reg);

    RegFileConfig cfg_;
    u32 maxWarpSlots_;
    u32 regsPerWarp_ = 0;
    u32 numExempt_ = 0;
    /**
     * Exempt registers with fixed reserved homes.  May be fewer than
     * numExempt_ when the reservation (exempt regs x warp slots) would
     * starve a bank of renamed capacity; the remainder allocate
     * dynamically on first write and — since the compiler never emits
     * releases for exempt registers — still live until CTA completion.
     */
    u32 fixedExempt_ = 0;
    PhysRegFile file_;

    std::vector<u32> mapping_;   //!< (slot, reg) -> phys
    std::vector<RegState> state_;
    std::vector<u32> spilledCount_; //!< # kSpilled regs per warp slot
    std::vector<RegLifecycle> lint_; //!< populated only when linting
    std::vector<WarpValue> spillStore_; //!< sized on the first spill
    std::vector<u32> ctaAlloc_;  //!< registers held per CTA slot
    u32 mapped_ = 0;
    u64 allocEpoch_ = 0; //!< see allocEpoch()

    // Exempt-region geometry.
    std::vector<u32> exemptInBank_;   //!< exempt regs per bank
    std::vector<u32> exemptRankInBank_; //!< rank of exempt reg in its bank
    std::vector<u32> reservedPerBank_;

    RenameStats renameStats_;
};

} // namespace rfv

#endif // RFV_REGFILE_REGISTER_MANAGER_H
