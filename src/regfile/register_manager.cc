#include "regfile/register_manager.h"

#include <algorithm>

namespace rfv {

namespace {

/** The lifecycle lint implies poisoned frees (see RegFileConfig). */
RegFileConfig
withLintAdjustments(RegFileConfig cfg)
{
    if (cfg.lifecycleLint)
        cfg.poisonOnRelease = true;
    return cfg;
}

} // namespace

RegisterManager::RegisterManager(const RegFileConfig &cfg, u32 max_warp_slots,
                                 u32 regs_per_warp, u32 num_exempt)
    : cfg_(withLintAdjustments(cfg)), maxWarpSlots_(max_warp_slots),
      file_(cfg_)
{
    fatalIf(max_warp_slots == 0, "SM needs at least one warp slot");
    configureKernel(regs_per_warp, num_exempt);
}

void
RegisterManager::configureKernel(u32 regs_per_warp, u32 num_exempt)
{
    fatalIf(regs_per_warp > kMaxArchRegs, "kernel exceeds 63 registers");
    fatalIf(num_exempt > regs_per_warp, "exempt count exceeds footprint");
    regsPerWarp_ = regs_per_warp;
    numExempt_ = cfg_.mode == RegFileMode::kVirtualized ? num_exempt : 0;

    file_ = PhysRegFile(cfg_);
    mapping_.assign(maxWarpSlots_ * (kMaxArchRegs + 1), kInvalidPhysReg);
    state_.assign(mapping_.size(), RegState::kUnmapped);
    spilledCount_.assign(maxWarpSlots_, 0);
    lint_.assign(cfg_.lifecycleLint ? mapping_.size() : 0,
                 RegLifecycle::kFresh);
    spillStore_.clear();
    ctaAlloc_.assign(maxWarpSlots_, 0); // at most one CTA per warp slot
    mapped_ = 0;
    ++allocEpoch_;
    renameStats_ = RenameStats{};

    // Exempt-region geometry: exempt register r of warp slot w lives
    // at in-bank index w * exemptInBank[bank] + rank(r).  Cap the
    // fixed-home reservation at half of each bank so renamed registers
    // always have capacity; exempt registers beyond the cap allocate
    // dynamically on first write (they are still never released).
    fixedExempt_ = numExempt_;
    auto reservationFits = [&](u32 m) {
        u32 perBank[kNumRegBanks] = {};
        for (u32 r = 0; r < m; ++r)
            ++perBank[archBank(r)];
        for (u32 b = 0; b < cfg_.numBanks; ++b) {
            if (perBank[b] * maxWarpSlots_ > cfg_.regsPerBank() / 2)
                return false;
        }
        return true;
    };
    while (fixedExempt_ > 0 && !reservationFits(fixedExempt_))
        --fixedExempt_;

    exemptInBank_.assign(cfg_.numBanks, 0);
    exemptRankInBank_.assign(fixedExempt_, 0);
    for (u32 r = 0; r < fixedExempt_; ++r) {
        exemptRankInBank_[r] = exemptInBank_[archBank(r)]++;
    }
    reservedPerBank_.assign(cfg_.numBanks, 0);
    for (u32 b = 0; b < cfg_.numBanks; ++b)
        reservedPerBank_[b] = exemptInBank_[b] * maxWarpSlots_;
}

u32
RegisterManager::exemptHome(u32 warp_slot, u32 reg) const
{
    const u32 bank = archBank(reg);
    const u32 idx =
        warp_slot * exemptInBank_[bank] + exemptRankInBank_[reg];
    return bank * cfg_.regsPerBank() + idx;
}

bool
RegisterManager::launchCta(u32 cta_slot, u32 first_warp_slot, u32 num_warps)
{
    panicIf(first_warp_slot + num_warps > maxWarpSlots_,
            "warp slots out of range");
    // Bumped even when no register moves (HardwareOnly, or Virtualized
    // with no fixed homes): the resident-CTA set flips on success, and
    // the throttle must observe that.
    ++allocEpoch_;
    std::vector<std::pair<u32, u32>> done; // (warpSlot, reg) for rollback

    // A failed launch must be a complete no-op: the dispatcher retries
    // it every cycle, and the event-driven loop proves those retries
    // are pure so it can skip them.  The mapping rollback below already
    // restores the free bitmap; the stats snapshot restores the
    // alloc/release/watermark counters the speculative allocs bumped.
    const PhysRegFileStats stats_snapshot = file_.stats();
    auto rollback = [&]() {
        for (auto [w, r] : done)
            freeMapping(w, cta_slot, r);
        file_.restoreStats(stats_snapshot);
    };

    if (cfg_.mode == RegFileMode::kBaseline) {
        for (u32 w = first_warp_slot; w < first_warp_slot + num_warps;
             ++w) {
            for (u32 r = 0; r < regsPerWarp_; ++r) {
                u32 wake = 0;
                const u32 phys = file_.alloc(archBank(r), 0, wake);
                if (phys == kInvalidPhysReg) {
                    rollback();
                    return false;
                }
                mapping_[slotIndex(w, r)] = phys;
                state_[slotIndex(w, r)] = RegState::kMapped;
                ++mapped_;
                ++ctaAlloc_[cta_slot];
                done.emplace_back(w, r);
            }
        }
        return true;
    }

    if (cfg_.mode == RegFileMode::kVirtualized && fixedExempt_ > 0) {
        for (u32 w = first_warp_slot; w < first_warp_slot + num_warps;
             ++w) {
            for (u32 r = 0; r < fixedExempt_; ++r) {
                u32 wake = 0;
                file_.allocAt(exemptHome(w, r), wake);
                mapping_[slotIndex(w, r)] = exemptHome(w, r);
                state_[slotIndex(w, r)] = RegState::kMapped;
                ++mapped_;
                ++ctaAlloc_[cta_slot];
            }
        }
    }
    return true;
}

void
RegisterManager::completeCta(u32 cta_slot, u32 first_warp_slot,
                             u32 num_warps)
{
    ++allocEpoch_; // the resident-CTA set shrinks even if no reg is held
    for (u32 w = first_warp_slot; w < first_warp_slot + num_warps; ++w) {
        for (u32 r = 0; r <= kMaxArchRegs; ++r) {
            const u32 idx = slotIndex(w, r);
            if (state_[idx] == RegState::kMapped)
                freeMapping(w, cta_slot, r);
            else
                state_[idx] = RegState::kUnmapped;
            if (cfg_.lifecycleLint)
                lint_[idx] = RegLifecycle::kFresh;
        }
        spilledCount_[w] = 0;
    }
}

void
RegisterManager::completeWarp(u32 warp_slot, u32 cta_slot)
{
    if (cfg_.mode != RegFileMode::kVirtualized)
        return;
    for (u32 r = 0; r <= kMaxArchRegs; ++r) {
        const u32 idx = slotIndex(warp_slot, r);
        if (state_[idx] == RegState::kMapped)
            freeMapping(warp_slot, cta_slot, r);
        else
            state_[idx] = RegState::kUnmapped;
        // Reads from a finished warp's slot are bugs; completeCta
        // resets the slot to kFresh for the next occupant.
        if (cfg_.lifecycleLint)
            lint_[idx] = RegLifecycle::kReleased;
    }
    if (spilledCount_[warp_slot] != 0) {
        spilledCount_[warp_slot] = 0;
        ++allocEpoch_;
    }
}

RegisterManager::AllocOutcome
RegisterManager::allocRenamed(u32 warp_slot, u32 cta_slot, u32 reg)
{
    const u32 bank = archBank(reg);
    u32 wake = 0;
    u32 phys = file_.alloc(bank, reservedPerBank_[bank], wake,
                           warp_slot);
    if (phys == kInvalidPhysReg && !cfg_.bankRestrictedRenaming) {
        for (u32 b = 0; b < cfg_.numBanks && phys == kInvalidPhysReg;
             ++b) {
            if (b != bank)
                phys = file_.alloc(b, reservedPerBank_[b], wake,
                                   warp_slot);
        }
    }
    if (phys == kInvalidPhysReg)
        return {false, 0};
    const u32 idx = slotIndex(warp_slot, reg);
    mapping_[idx] = phys;
    state_[idx] = RegState::kMapped;
    ++mapped_;
    ++ctaAlloc_[cta_slot];
    ++allocEpoch_;
    ++renameStats_.updates;
    return {true, wake};
}

RegisterManager::AllocOutcome
RegisterManager::ensureMappedForWrite(u32 warp_slot, u32 cta_slot, u32 reg)
{
    const u32 idx = slotIndex(warp_slot, reg);
    switch (cfg_.mode) {
      case RegFileMode::kBaseline:
        panicIf(state_[idx] != RegState::kMapped,
                "baseline write to an unmapped register");
        return {true, 0};
      case RegFileMode::kHardwareOnly:
      case RegFileMode::kVirtualized:
        if (state_[idx] == RegState::kMapped)
            return {true, 0};
        panicIf(state_[idx] == RegState::kSpilled,
                "write to a spilled register without refill");
        return allocRenamed(warp_slot, cta_slot, reg);
    }
    panic("bad register file mode");
}

void
RegisterManager::lintTrapRead(u32 warp_slot, u32 reg) const
{
    switch (lint_[slotIndex(warp_slot, reg)]) {
      case RegLifecycle::kWritten:
        return;
      case RegLifecycle::kFresh:
        panic("lifecycle lint: read of never-written register r" +
              std::to_string(reg) + " of warp slot " +
              std::to_string(warp_slot));
      case RegLifecycle::kReleased:
        panic("lifecycle lint: read of released register r" +
              std::to_string(reg) + " of warp slot " +
              std::to_string(warp_slot) +
              " (value freed by a pir/pbr flag and poisoned)");
    }
}

RegLifecycle
RegisterManager::lifecycle(u32 warp_slot, u32 reg) const
{
    if (!cfg_.lifecycleLint)
        return RegLifecycle::kWritten;
    return lint_[slotIndex(warp_slot, reg)];
}

void
RegisterManager::freeMapping(u32 warp_slot, u32 cta_slot, u32 reg)
{
    const u32 idx = slotIndex(warp_slot, reg);
    panicIf(state_[idx] != RegState::kMapped, "free of unmapped register");
    file_.release(mapping_[idx]);
    mapping_[idx] = kInvalidPhysReg;
    state_[idx] = RegState::kUnmapped;
    panicIf(mapped_ == 0, "mapped count underflow");
    --mapped_;
    panicIf(ctaAlloc_[cta_slot] == 0, "CTA allocation count underflow");
    --ctaAlloc_[cta_slot];
    ++allocEpoch_;
}

void
RegisterManager::releaseReg(u32 warp_slot, u32 cta_slot, u32 reg)
{
    if (cfg_.mode != RegFileMode::kVirtualized)
        return;
    if (reg < numExempt_)
        return;
    const u32 idx = slotIndex(warp_slot, reg);
    if (state_[idx] != RegState::kMapped)
        return; // releasing an absent mapping is a no-op by design
    freeMapping(warp_slot, cta_slot, reg);
    ++renameStats_.updates;
    if (cfg_.lifecycleLint)
        lint_[idx] = RegLifecycle::kReleased;
}

std::vector<u32>
RegisterManager::spillCandidates(u32 warp_slot) const
{
    std::vector<u32> out;
    for (u32 r = fixedExempt_; r < regsPerWarp_; ++r)
        if (state_[slotIndex(warp_slot, r)] == RegState::kMapped)
            out.push_back(r);
    return out;
}

u32
RegisterManager::countSpillCandidates(u32 warp_slot, u32 need_bank,
                                      bool &has_need) const
{
    u32 count = 0;
    has_need = false;
    for (u32 r = fixedExempt_; r < regsPerWarp_; ++r) {
        if (state_[slotIndex(warp_slot, r)] != RegState::kMapped)
            continue;
        ++count;
        has_need |= (r % cfg_.numBanks) == need_bank;
    }
    return count;
}

u32
RegisterManager::firstSpilledReg(u32 warp_slot) const
{
    for (u32 r = fixedExempt_; r < regsPerWarp_; ++r)
        if (state_[slotIndex(warp_slot, r)] == RegState::kSpilled)
            return r;
    panic("firstSpilledReg on a warp with no spilled registers");
}

void
RegisterManager::spillReg(u32 warp_slot, u32 cta_slot, u32 reg)
{
    const u32 idx = slotIndex(warp_slot, reg);
    panicIf(state_[idx] != RegState::kMapped, "spill of unmapped register");
    panicIf(reg < fixedExempt_,
            "fixed-home exempt registers are never spilled");
    if (spillStore_.empty())
        spillStore_.resize(mapping_.size());
    spillStore_[idx] = file_.values(mapping_[idx]);
    freeMapping(warp_slot, cta_slot, reg);
    state_[idx] = RegState::kSpilled;
    ++spilledCount_[warp_slot];
    ++renameStats_.spills;
    ++renameStats_.updates;
}

RegisterManager::AllocOutcome
RegisterManager::refillReg(u32 warp_slot, u32 cta_slot, u32 reg)
{
    const u32 idx = slotIndex(warp_slot, reg);
    panicIf(state_[idx] != RegState::kSpilled,
            "refill of a register that is not spilled");
    state_[idx] = RegState::kUnmapped;
    const AllocOutcome res = allocRenamed(warp_slot, cta_slot, reg);
    if (!res.ok) {
        state_[idx] = RegState::kSpilled;
        return res;
    }
    file_.values(mapping_[idx]) = spillStore_[idx];
    --spilledCount_[warp_slot];
    ++renameStats_.refills;
    return res;
}

void
RegisterManager::sampleCycles(u64 n)
{
    file_.sampleCycles(n);
    renameStats_.mappedRegCycles += static_cast<u64>(mapped_) * n;
    renameStats_.sampledCycles += n;
}

} // namespace rfv
