#include "sim/sm.h"

#include <algorithm>
#include <cassert>
#include <bit>

#include "common/bit_utils.h"
#include "compiler/liveness.h"
#include "isa/metadata.h"

namespace rfv {

namespace {

/** Interpret a 32-bit word as float. */
float
asFloat(u32 bits)
{
    return std::bit_cast<float>(bits);
}

u32
asBits(float f)
{
    return std::bit_cast<u32>(f);
}

/** Warp slots an SM provisions for this kernel. */
u32
computeMaxWarpSlots(const GpuConfig &cfg, const LaunchParams &launch)
{
    const u32 wpc = launch.warpsPerCta();
    if (wpc == 0 || wpc > cfg.maxWarpsPerSm)
        return 1;
    const u32 conc = std::min({launch.concCtasPerSm, cfg.maxCtasPerSm,
                               cfg.maxWarpsPerSm / wpc});
    return std::max(1u, conc * wpc);
}

/** All-ones lane mask when bit @p l of @p mask is set, else zero. */
u32
laneKeep(u32 mask, u32 l)
{
    return static_cast<u32>(-static_cast<i32>((mask >> l) & 1));
}

/**
 * Full-width lane compare: one loop per comparison op (the dispatch
 * hoisted out of the lane loop) producing a 32-bit result mask.
 *
 * Two phases: a branch-free per-lane compare into a 0/1 array, then a
 * scalar movemask-style pack.  The single-loop form `m |= cmp << l` is
 * a variable-shift OR-reduction no auto-vectorizer accepts; split this
 * way the six compare loops compile to SIMD compares (they count
 * toward the tools/check_vectorization.sh gate) and only the cheap
 * pack stays scalar.
 */
u32
cmpMask(CmpOp op, const WarpValue &a, const WarpValue &b)
{
    u32 lanes[kWarpSize];
    switch (op) {
      case CmpOp::kEq:
        for (u32 l = 0; l < kWarpSize; ++l)
            lanes[l] = a[l] == b[l];
        break;
      case CmpOp::kNe:
        for (u32 l = 0; l < kWarpSize; ++l)
            lanes[l] = a[l] != b[l];
        break;
      case CmpOp::kLt:
        for (u32 l = 0; l < kWarpSize; ++l)
            lanes[l] = static_cast<i32>(a[l]) < static_cast<i32>(b[l]);
        break;
      case CmpOp::kLe:
        for (u32 l = 0; l < kWarpSize; ++l)
            lanes[l] = static_cast<i32>(a[l]) <= static_cast<i32>(b[l]);
        break;
      case CmpOp::kGt:
        for (u32 l = 0; l < kWarpSize; ++l)
            lanes[l] = static_cast<i32>(a[l]) > static_cast<i32>(b[l]);
        break;
      case CmpOp::kGe:
        for (u32 l = 0; l < kWarpSize; ++l)
            lanes[l] = static_cast<i32>(a[l]) >= static_cast<i32>(b[l]);
        break;
    }
    u32 m = 0;
    for (u32 l = 0; l < kWarpSize; ++l)
        m |= lanes[l] << l;
    return m;
}

} // namespace

Sm::Sm(u32 sm_id, const GpuConfig &cfg, const Program &prog,
       const DecodeCache &decode, const LaunchParams &launch,
       GlobalMemory &gmem, DramModel &dram, const TraceHooks &hooks)
    : smId_(sm_id), cfg_(cfg), prog_(prog), decode_(decode),
      launch_(launch), gmem_(gmem), dram_(dram), hooks_(hooks),
      warpsPerCta_(launch.warpsPerCta()), maxConcCtas_(0),
      mgr_(cfg.regFile, computeMaxWarpSlots(cfg, launch), prog.numRegs,
           prog.numExemptRegs),
      flagCache_(cfg.regFile.flagCacheEntries),
      icache_(cfg.icacheInstrs, cfg.icacheLineInstrs),
      dcache_(cfg.dcacheLines, cfg.dcacheLineBytes),
      effectiveReadyQueue_(cfg.scheduler == SchedulerPolicy::kTwoLevel
                               ? cfg.readyQueueSize
                               : cfg.maxWarpsPerSm),
      twoLevel_(cfg.scheduler == SchedulerPolicy::kTwoLevel)
{
    fatalIf(warpsPerCta_ == 0, "CTA needs at least one warp");
    fatalIf(warpsPerCta_ > cfg_.maxWarpsPerSm,
            "CTA has more warps than an SM can hold");
    maxConcCtas_ = std::min({launch.concCtasPerSm, cfg_.maxCtasPerSm,
                             cfg_.maxWarpsPerSm / warpsPerCta_});
    fatalIf(maxConcCtas_ == 0, "SM cannot hold even one CTA");

    const u32 warp_slots = maxConcCtas_ * warpsPerCta_;
    wt_.reset(warp_slots);
    ctaSlots_.assign(maxConcCtas_, CtaSlot{});
    sharedMem_.assign(maxConcCtas_,
                      std::vector<u32>(ceilDiv(prog.sharedMemBytes, 4), 0));
    localMem_.assign(warp_slots,
                     std::vector<WarpValue>(prog.localMemSlots));

    bankPortUse_.assign(cfg.regFile.numBanks, 0);
    profiling_ = hooks_.loopProfile != nullptr;
    sampling_ = smId_ == 0 && hooks_.liveSample && hooks_.samplePeriod > 0;

    // Pre-size the hot-path containers so steady-state simulation never
    // allocates.
    readyQueue_.reserve(effectiveReadyQueue_ + 1);
    completions_.reserve(2 * warp_slots + 8);
    sleepers_.reset(warp_slots);
    throttleParked_.reserve(warp_slots);
    issueOrder_.assign(effectiveReadyQueue_, 0);
    addrScratch_.reserve(kWarpSize);
    segScratch_.reserve(kWarpSize);
}

u32
Sm::residentWarps() const
{
    u32 n = 0;
    for (const auto &cta : ctaSlots_)
        if (cta.active)
            n += cta.numWarps;
    return n;
}

bool
Sm::tryLaunchCta(u32 global_cta_id, Cycle now)
{
    // The dispatcher retries a blocked CTA every cycle.  Feasibility
    // is a pure function of the CTA slots and the manager's
    // allocation state, both covered by the allocation epoch (CTA
    // completion frees a slot through completeCta, which bumps it) —
    // so a retry before anything changed is the same failure.
    if (mgr_.allocEpoch() == launchFailEpoch_)
        return false;
    i32 slot = -1;
    for (u32 s = 0; s < maxConcCtas_; ++s) {
        if (!ctaSlots_[s].active) {
            slot = static_cast<i32>(s);
            break;
        }
    }
    if (slot < 0) {
        launchFailEpoch_ = mgr_.allocEpoch();
        return false;
    }
    const u32 s = static_cast<u32>(slot);
    const u32 first = firstWarpSlot(s);

    if (!mgr_.launchCta(s, first, warpsPerCta_)) {
        // The failed call itself advanced the epoch; record the
        // post-rollback value so only a real change retries.
        launchFailEpoch_ = mgr_.allocEpoch();
        return false; // register file cannot hold this CTA yet
    }

    ctaSlots_[s].active = true;
    ctaSlots_[s].globalId = global_cta_id;
    ctaSlots_[s].numWarps = warpsPerCta_;
    ctaSlots_[s].warpsFinished = 0;
    ctaSlots_[s].barrierArrived = 0;
    std::fill(sharedMem_[s].begin(), sharedMem_[s].end(), 0);

    for (u32 i = 0; i < warpsPerCta_; ++i) {
        const u32 wi = first + i;
        wt_.launchWarp(wi, s, i, global_cta_id);
        const u32 threads_before = i * kWarpSize;
        const u32 lanes = std::min(
            kWarpSize, launch_.threadsPerCta - threads_before);
        wt_.stack(wi).reset(static_cast<u32>(lowMask(lanes)));
        wt_.blockedUntil[wi] = now;
        for (auto &mem : localMem_[wi])
            mem.fill(0);
        pendWarp(wi);
    }
    ++residentCtas_;
    stats_.peakResidentWarps =
        std::max(stats_.peakResidentWarps, residentWarps());
    refillReadyQueue();
    return true;
}

void
Sm::pendWarp(u32 warp_idx)
{
    wt_.loc(warp_idx, WarpLoc::kPending);
    pendingQueue_.push_back(warp_idx);
}

void
Sm::removeFromReady(u32 warp_idx)
{
    auto it = std::find(readyQueue_.begin(), readyQueue_.end(), warp_idx);
    panicIf(it == readyQueue_.end(), "ready-queue membership desync");
    readyQueue_.erase(it);
}

void
Sm::sleepWarp(u32 warp_idx)
{
    wt_.loc(warp_idx, WarpLoc::kSleeping);
    sleepers_.sleep(warp_idx, wt_.blockedUntil[warp_idx]);
}

void
Sm::refillReadyQueueWork()
{
    while (readyQueue_.size() < effectiveReadyQueue_ &&
           !pendingQueue_.empty()) {
        const u32 wi = pendingQueue_.front();
        pendingQueue_.pop_front();
        if (wt_.loc(wi) != WarpLoc::kPending)
            continue; // stale queue entry
        if (!wt_.valid(wi) || wt_.finished(wi)) {
            wt_.loc(wi, WarpLoc::kNone);
            continue;
        }
        wt_.loc(wi, WarpLoc::kReady);
        readyQueue_.push_back(wi);
        readyWake_ = std::min(readyWake_, wt_.blockedUntil[wi]);
    }
}

void
Sm::demoteWarp(u32 warp_idx)
{
    if (wt_.loc(warp_idx) == WarpLoc::kReady)
        removeFromReady(warp_idx);
    if (!wt_.valid(warp_idx) || wt_.finished(warp_idx)) {
        wt_.loc(warp_idx, WarpLoc::kNone);
        return;
    }
    pendWarp(warp_idx);
}

/**
 * Restore the invariant that every ready warp is runnable soon: warps
 * blocked kSleepThresholdCycles or more into the future fall asleep
 * and freed slots refill from the pending queue; warps pulled in by a
 * refill get the same check, until a refill adds nothing.  Afterwards
 * a cycle with no due completion, no due sleeper and no ready warp
 * past its blockedUntil is a provable no-op, which is what makes
 * nextEventCycle()'s window sound.
 *
 * Every ready warp is live here: a warp only finishes by issuing, and
 * the issue loop's post-attempt rule takes a finished warp out of the
 * ready set at once (refills skip dead warps themselves).
 */
void
Sm::normalizeReadyQueue(Cycle now)
{
    // One in-place compaction per refill round; only the warps the
    // previous round appended need checking (the rest are unchanged).
    Cycle wake = kNoEventCycle;
    u32 from = 0;
    while (true) {
        u32 kept = from;
        for (u32 i = from; i < readyQueue_.size(); ++i) {
            const u32 wi = readyQueue_[i];
            const Cycle blocked = wt_.blockedUntil[wi];
            if (blocked > now && blocked - now >= kSleepThresholdCycles) {
                sleepWarp(wi);
            } else {
                readyQueue_[kept++] = wi;
                wake = std::min(wake, blocked);
            }
        }
        readyQueue_.resize(kept);
        refillReadyQueue();
        if (readyQueue_.size() == kept)
            break;
        from = kept;
    }
    readyWake_ = wake;
}

void
Sm::pushCompletion(const Completion &c)
{
    // Index the retire time per destination so scoreboardWake can
    // answer from the need bits alone.  A second write to a pending
    // register is itself a hazard, so each pending bit has exactly one
    // in-flight completion and this write is the authoritative one.
    Cycle *reg_ready = wt_.regReadyAt(c.warp());
    for (u64 m = c.regMask; m != 0; m &= m - 1)
        reg_ready[findFirstSet(m)] = c.time;
    Cycle *pred_ready = wt_.predReadyAt(c.warp());
    for (u32 m = c.predMask; m != 0; m &= m - 1)
        pred_ready[findFirstSet(m)] = c.time;
    // Short non-load completions go to the timing wheel (O(1) push
    // and drain); loads and far completions to the min-heap.  Pushes
    // only happen while stepping cycle >= wheelPos_, so c.time >
    // wheelPos_ keeps the wheel invariant (see the member comment).
    if (!c.isLoad() && c.time > wheelPos_ &&
        c.time - wheelPos_ < kWheelSlots) {
        const u32 s = static_cast<u32>(c.time % kWheelSlots);
        wheel_[s].push_back(c);
        wheelOccupied_ |= 1ull << s;
        return;
    }
    completions_.push_back(c);
    std::push_heap(completions_.begin(), completions_.end(),
                   std::greater<Completion>{});
    if (c.isLoad()) {
        loadHeap_.push_back(c.time);
        std::push_heap(loadHeap_.begin(), loadHeap_.end(),
                       std::greater<Cycle>{});
    }
}

void
Sm::drainCompletionsWork(Cycle now)
{
    if (wheelOccupied_ != 0) {
        // Due slots are the window (wheelPos_, now] rotated onto the
        // 64 residues; beyond a full revolution everything is due.
        const Cycle elapsed = now - wheelPos_;
        u64 due = wheelOccupied_;
        if (elapsed < kWheelSlots) {
            const u32 s0 = static_cast<u32>((wheelPos_ + 1) % kWheelSlots);
            const u64 window = lowMask(static_cast<u32>(elapsed));
            due &= (window << s0) |
                   (s0 == 0 ? 0 : window >> (kWheelSlots - s0));
        }
        for (u64 m = due; m != 0; m &= m - 1) {
            const u32 s = findFirstSet(m);
            for (const Completion &c : wheel_[s]) {
                // Scoreboard wake; the wheel never holds loads, so no
                // load bookkeeping here.  Slots drain in residue (not
                // time) order, but these mask clears commute.
                wt_.pendingRegs[c.warp()] &= ~c.regMask;
                wt_.pendingPreds[c.warp()] &= ~c.predMask;
            }
            wheel_[s].clear();
        }
        wheelOccupied_ &= ~due;
    }
    wheelPos_ = now;
    while (!completions_.empty() && completions_.front().time <= now) {
        std::pop_heap(completions_.begin(), completions_.end(),
                      std::greater<Completion>{});
        const Completion c = completions_.back();
        completions_.pop_back();
        // Scoreboard wake as mask operations on the packed arrays.
        wt_.pendingRegs[c.warp()] &= ~c.regMask;
        wt_.pendingPreds[c.warp()] &= ~c.predMask;
        if (c.isLoad()) {
            panicIf(wt_.pendingLoads[c.warp()] == 0,
                    "load completion underflow");
            --wt_.pendingLoads[c.warp()];
            panicIf(inFlightLoads_ == 0, "MSHR underflow");
            --inFlightLoads_;
            // Loads drain in time order, so the load-time heap's front
            // is this completion's time.
            panicIf(loadHeap_.empty() || loadHeap_.front() != c.time,
                    "load-time heap desynchronized from completions");
            std::pop_heap(loadHeap_.begin(), loadHeap_.end(),
                          std::greater<Cycle>{});
            loadHeap_.pop_back();
        }
    }
}

Cycle
Sm::scoreboardWake(u32 warp_idx, u64 need_regs, u32 need_preds,
                   Cycle now) const
{
    // Every pending scoreboard bit has exactly one in-flight completion
    // (a second write to a pending register is itself a hazard), whose
    // retire time the warp table indexed at issue — so the exact wakeup
    // is the max ready time over the blocked need bits, no scan of the
    // completion heap required.
    const u64 regs = need_regs & wt_.pendingRegs[warp_idx];
    const u32 preds = need_preds & wt_.pendingPreds[warp_idx];
    panicIf(regs == 0 && preds == 0,
            "scoreboard hazard with no pending completion");
    Cycle wake = 0;
    const Cycle *reg_ready = wt_.regReadyAt(warp_idx);
    for (u64 m = regs; m != 0; m &= m - 1)
        wake = std::max(wake, reg_ready[findFirstSet(m)]);
    const Cycle *pred_ready = wt_.predReadyAt(warp_idx);
    for (u32 m = preds; m != 0; m &= m - 1)
        wake = std::max(wake, pred_ready[findFirstSet(m)]);
    return std::max(wake, now + 1);
}

Cycle
Sm::mshrWake(Cycle now) const
{
    // MSHRs free only when a load completes; the earliest in-flight
    // load completion (the load-time heap's front) is the first cycle
    // an entry can possibly free.
    panicIf(loadHeap_.empty(), "MSHRs full with no load in flight");
    return std::max(loadHeap_.front(), now + 1);
}

void
Sm::unparkThrottled()
{
    for (u32 wi : throttleParked_) {
        if (wt_.loc(wi) != WarpLoc::kParked)
            continue;
        if (!wt_.valid(wi) || wt_.finished(wi)) {
            wt_.loc(wi, WarpLoc::kNone);
            continue;
        }
        pendWarp(wi);
    }
    throttleParked_.clear();
}

void
Sm::evaluateThrottleWork()
{
    throttleEpoch_ = mgr_.allocEpoch();

    const bool was_active = throttleActive_;
    const u32 was_cta = throttleCta_;
    throttleActive_ = false;
    if (cfg_.regFile.mode == RegFileMode::kVirtualized) {
        const u32 free = mgr_.freeRegs();
        u32 min_balance = ~0u;
        u32 argmin = 0;
        bool any = false;
        const u32 cta_max = warpsPerCta_ * prog_.numRegs;
        for (u32 s = 0; s < maxConcCtas_; ++s) {
            if (!ctaSlots_[s].active)
                continue;
            const u32 held = mgr_.ctaAllocated(s);
            const u32 balance = cta_max > held ? cta_max - held : 0;
            if (!any || balance < min_balance) {
                min_balance = balance;
                argmin = s;
            }
            any = true;
        }
        if (any && free <= min_balance) {
            throttleActive_ = true;
            throttleCta_ = argmin;
        }
    }
    // Warps parked by the throttle wait on its *signature*: release
    // them whenever the throttle turns off or picks a different CTA.
    const bool changed = throttleActive_ != was_active ||
                         (throttleActive_ && throttleCta_ != was_cta);
    if (changed && !throttleParked_.empty())
        unparkThrottled();
}

std::pair<Cycle, bool>
Sm::dramLoadTiming(const std::vector<u32> &byte_addrs, Cycle now)
{
    // Count distinct line-sized segments on the reusable scratch
    // buffer; probe the L1 for each.  Only the *count* of misses
    // matters for timing, so no miss list is materialized.  Segment
    // iteration stays sorted (hit/miss sequence is part of the
    // bit-identity contract).
    if (dcache_.enabled()) {
        const u32 n = static_cast<u32>(byte_addrs.size());
        segScratch_.resize(n);
        const u32 line = cfg_.dcacheLineBytes;
        for (u32 i = 0; i < n; ++i)
            segScratch_[i] = byte_addrs[i] / line;
        std::sort(segScratch_.begin(), segScratch_.end());
        segScratch_.erase(
            std::unique(segScratch_.begin(), segScratch_.end()),
            segScratch_.end());
        u32 missing = 0;
        for (u32 seg : segScratch_) {
            if (dcache_.access(seg * cfg_.dcacheLineBytes))
                ++stats_.dcacheHits;
            else {
                ++stats_.dcacheMisses;
                ++missing;
            }
        }
        if (missing == 0)
            return {now + cfg_.dcacheHitLatency, false};
        return {dram_.access(now, missing), true};
    }
    const u32 txns = coalescedTransactions(byte_addrs, segScratch_);
    return {dram_.access(now, txns), true};
}

const WarpValue &
Sm::readOperand(u32 warp_idx, const Operand &op, WarpValue &scratch)
{
    if (op.isReg()) {
        // Reads only happen on the issue path with a non-empty exec
        // mask, so a lint trap here is a real architectural read of a
        // released or never-written register, not a predicated-off one.
        //
        // Returning the register file's own lane array (instead of
        // copying 128 bytes per operand) is safe because every
        // consumer finishes reading its operands before the first
        // register write of the instruction: ALU/select ops compute
        // into a local array and only then writeDest(), and
        // memory/atomic ops only touch memory (or copy the values out)
        // while the references are live.
        mgr_.lintCheckRead(warp_idx, op.value);
        return mgr_.values(warp_idx, op.value);
    }
    if (op.isImm())
        scratch.fill(op.value);
    // A kNone operand's lanes are never read: every opcode's lane
    // loop touches exactly the operands its arity defines, so the
    // scratch is returned unfilled instead of zero-splatted.
    return scratch;
}

void
Sm::writeDest(u32 warp_idx, u32 reg, const WarpValue &value, u32 exec_mask,
              Cycle now)
{
    const bool was_def =
        hooks_.regEvent && exec_mask != 0;
    WarpValue &dst = mgr_.values(warp_idx, reg);
    if (exec_mask == ~0u) {
        // All lanes active (the common case for straight-line code):
        // a whole-line copy instead of the per-lane select below,
        // which the per-lane variable shifts keep from vectorizing.
        dst = value;
    } else {
        // Branch-free masked merge (a 32-wide select): active lanes
        // take the new value, inactive lanes keep their old bits.
        for (u32 l = 0; l < kWarpSize; ++l) {
            const u32 keep = laneKeep(exec_mask, l);
            dst[l] = (value[l] & keep) | (dst[l] & ~keep);
        }
    }
    mgr_.countOperandWrite(warp_idx, reg);
    if (was_def)
        hooks_.regEvent(now, smId_, warp_idx, reg, RegEvent::kDef);
}

bool
Sm::processMetadata(u32 warp_idx, Cycle now)
{
    SimtStack &stack = wt_.stack(warp_idx);
    while (!stack.done()) {
        const u32 pc = stack.pc();
        panicIf(pc >= prog_.code.size(), "pc ran past end of kernel");
        const Instr &ins = prog_.code[pc];
        const StaticDecode &dec = decode_.at(pc);
        if (!dec.meta)
            return true;
        ++stats_.metaEncounters;
        if (ins.op == Opcode::kPbr) {
            ++stats_.metaDecoded; // pbr is always fetched and decoded
#ifndef NDEBUG
            {
                const auto ref = decodePbr(ins.metaPayload);
                assert(ref.size() == dec.pbrCount);
                for (u32 i = 0; i < dec.pbrCount; ++i)
                    assert(ref[i] == dec.pbrRegs[i]);
            }
#endif
            for (u32 i = 0; i < dec.pbrCount; ++i) {
                const u32 r = dec.pbrRegs[i];
                if (hooks_.regEvent &&
                    mgr_.state(warp_idx, r) == RegState::kMapped) {
                    hooks_.regEvent(now, smId_, warp_idx, r,
                                    RegEvent::kRelease);
                }
                mgr_.releaseReg(warp_idx, wt_.ctaSlot[warp_idx], r);
            }
            stack.advance(pc + 1);
        } else { // kPir
            const bool hit = flagCache_.access(pc);
            stack.advance(pc + 1);
            if (!hit) {
                ++stats_.metaDecoded;
                if (cfg_.flagMissBubble) {
                    wt_.blockedUntil[warp_idx] = now + 1;
                    return false;
                }
            }
        }
    }
    return true;
}

Sm::IssueOutcome
Sm::attemptIssue(u32 warp_idx, Cycle now)
{
    // Terminal / parked states are handled by the issue loop's
    // post-attempt rule, which inspects the warp flags directly.
    // Must stay a per-warp re-check even though the issue loop
    // pre-filters on the snapshot mask: an earlier issue this cycle
    // can block this warp (spill victim) after the snapshot.
    if (!wt_.issuable(warp_idx, now))
        return IssueOutcome::kSkipped;

    if (mgr_.hasSpilledRegs(warp_idx)) {
        // Long-duration condition: rotate out of the ready set so
        // other warps (notably the throttle-chosen CTA's) can issue.
        tryRefill(warp_idx, now);
        return IssueOutcome::kDemoted;
    }

    {
        ScopedNs fetch_t(profStep_ ? &prof_.fetchNs : nullptr);
        SimtStack &stack = wt_.stack(warp_idx);
        // Instruction fetch: a miss blocks the warp for the refill.  A
        // paid miss delivers its instruction even if the line has been
        // evicted since (no fetch-retry livelock under thrashing).
        if (!stack.done()) {
            const u32 fetch_pc = stack.pc();
            if (wt_.paidFetchPc[warp_idx] == fetch_pc) {
                wt_.paidFetchPc[warp_idx] = kInvalidPc;
            } else if (icache_.access(fetch_pc)) {
                ++stats_.icacheHits;
            } else {
                ++stats_.icacheMisses;
                wt_.paidFetchPc[warp_idx] = fetch_pc;
                wt_.blockedUntil[warp_idx] = now + cfg_.icacheMissLatency;
                return IssueOutcome::kSkipped;
            }
        }

        if (!processMetadata(warp_idx, now))
            return IssueOutcome::kSkipped;
    }
    if (wt_.stack(warp_idx).done()) {
        finishWarp(warp_idx, now);
        return IssueOutcome::kDemoted;
    }

    const u32 pc = wt_.stack(warp_idx).pc();
    const Instr &ins = prog_.code[pc];
    const StaticDecode &dec = decode_.at(pc);
    currentPc_ = pc; // diagnostic context for panics

#ifndef NDEBUG
    // Predecode table vs. on-demand decode (release builds rely on the
    // one-time cross-check at DecodeCache construction).
    assert(dec.needRegs == (useMask(ins) | defMask(ins)));
    assert(dec.defRegs == defMask(ins));
    assert(dec.cls == opInfo(ins.op).cls);
#endif

    if (throttleActive_ && wt_.ctaSlot[warp_idx] != throttleCta_) {
        // Throttled warps must not occupy ready-queue slots, or the
        // chosen CTA's warps could starve in the pending queue.  Park
        // them until the throttle signature changes; counted once per
        // park episode.
        ++stats_.throttleSkips;
        return IssueOutcome::kParked;
    }

    // Scoreboard: block until the exact cycle the last hazard-matching
    // in-flight completion retires (counted once per stall episode).
    if ((wt_.pendingRegs[warp_idx] & dec.needRegs) ||
        (wt_.pendingPreds[warp_idx] & dec.needPreds)) {
        ++stats_.scoreboardStalls;
        wt_.blockedUntil[warp_idx] =
            scoreboardWake(warp_idx, dec.needRegs, dec.needPreds, now);
        if (wt_.pendingLoads[warp_idx] > 0)
            return IssueOutcome::kDemoted; // long-latency stall
        return IssueOutcome::kSkipped;
    }

    // A warp cannot retire with loads in flight: finishWarp would
    // recycle the slot (and eventually the CTA) while the completion
    // heap still references it, corrupting the next occupant's
    // scoreboard.  The hazard is real for *dead* loads — a result no
    // later instruction reads, so the scoreboard check above never
    // blocks on it (found by differential fuzzing; see src/gen).
    if (ins.op == Opcode::kExit && wt_.pendingLoads[warp_idx] > 0) {
        ++stats_.scoreboardStalls;
        wt_.blockedUntil[warp_idx] =
            scoreboardWake(warp_idx, wt_.pendingRegs[warp_idx],
                           wt_.pendingPreds[warp_idx], now);
        return IssueOutcome::kDemoted; // long-latency drain stall
    }

    // MSHR availability for long-latency loads: an entry cannot free
    // before the earliest in-flight load completes.
    if (dec.dramLoad && inFlightLoads_ >= cfg_.mshrsPerSm) {
        wt_.blockedUntil[warp_idx] = mshrWake(now);
        return IssueOutcome::kSkipped;
    }

    // Destination register allocation (renaming).
    if (ins.dst != kNoReg) {
        const auto res =
            mgr_.ensureMappedForWrite(warp_idx, wt_.ctaSlot[warp_idx],
                                      static_cast<u32>(ins.dst));
        if (!res.ok) {
            ++stats_.allocStallEvents;
            attemptSpill(warp_idx,
                         static_cast<u32>(ins.dst) % cfg_.regFile.numBanks,
                         now);
            // Transient bank shortages resolve within a few cycles as
            // other warps release registers, so retry from the ready
            // queue first; only a persistent stall rotates the warp
            // out (required for forward progress under throttling).
            if (++wt_.allocStallStreak[warp_idx] < 32)
                return IssueOutcome::kSkipped;
            wt_.allocStallStreak[warp_idx] = 0;
            return IssueOutcome::kDemoted;
        }
        wt_.allocStallStreak[warp_idx] = 0;
        if (res.wakeCycles > 0) {
            ++stats_.wakeStallEvents;
            wt_.blockedUntil[warp_idx] = now + res.wakeCycles;
            return IssueOutcome::kSkipped;
        }
    }

    // Guard mask.
    try {
    const u32 active = wt_.stack(warp_idx).activeMask();
    u32 exec_mask = active;
    if (ins.guardPred != kNoPred) {
        const u32 pm = wt_.pred(warp_idx, ins.guardPred);
        exec_mask &= ins.guardNeg ? ~pm : pm;
    }

    // Operand collection: each bank serves one warp-wide operand per
    // cycle, shared by every instruction issued this cycle.  Extra
    // readers of a bank delay this warp's next issue.
    {
        u32 conflicts = 0;
        for (u32 k = 0; k < dec.numSrcRegs; ++k) {
            const Operand &src = ins.src[dec.srcRegIdx[k]];
            // Lint before the bank lookup: physOf panics on unmapped
            // registers, and the lint's released/never-written message
            // is the precise diagnosis of why the mapping is absent.
            if (exec_mask != 0)
                mgr_.lintCheckRead(warp_idx, src.value);
            const u32 bank = mgr_.readOperandBank(warp_idx, src.value);
            conflicts += bankPortUse_[bank];
            ++bankPortUse_[bank];
        }
        if (conflicts) {
            stats_.bankConflictCycles += conflicts;
            wt_.blockedUntil[warp_idx] = std::max<Cycle>(
                wt_.blockedUntil[warp_idx], now + conflicts);
        }
    }

    {
        ScopedNs exec_t(profStep_ ? &prof_.executeNs : nullptr);
        execute(warp_idx, ins, dec, exec_mask, now);
    }

    ++stats_.issuedInstrs;
    stats_.threadInstrs += popcount64(exec_mask);

    // pir releases: operands die after this read.
    for (u32 k = 0; k < 3; ++k) {
        if (!((ins.pirMask >> k) & 1))
            continue;
        const u32 r = ins.src[k].value;
        if (hooks_.regEvent &&
            mgr_.state(warp_idx, r) == RegState::kMapped) {
            hooks_.regEvent(now, smId_, warp_idx, r, RegEvent::kRelease);
        }
        mgr_.releaseReg(warp_idx, wt_.ctaSlot[warp_idx], r);
    }
    } catch (const InternalError &e) {
        panic(std::string(e.what()) + " [pc " + std::to_string(pc) +
              ": " + formatInstr(ins) + "]");
    }
    return IssueOutcome::kIssued;
}

void
Sm::execute(u32 warp_idx, const Instr &ins, const StaticDecode &dec,
            u32 exec_mask, Cycle now)
{
    SimtStack &stack = wt_.stack(warp_idx);
    const u32 pc = stack.pc();
    bool advanced = false;

    u64 wb_regs = 0;
    u32 wb_preds = 0;
    bool is_dram_load = false;
    Cycle completion = now + dec.warpLatency;

    // Immediate-splat scratch for readOperand (left uninitialized;
    // readOperand fills it before returning it).
    WarpValue imm0, imm1, imm2;

    // Masked per-lane visitor for operations with lane side effects
    // (memory accesses, address lists): those must touch active lanes
    // only.  Pure ALU ops below instead compute all 32 lanes
    // full-width and let writeDest() mask — bit-identical, since only
    // active lanes are ever written back.
    auto lanes = [exec_mask](auto &&fn) {
        for (u32 l = 0; l < kWarpSize; ++l)
            if ((exec_mask >> l) & 1)
                fn(l);
    };

    switch (ins.op) {
      case Opcode::kNop:
        break;
      case Opcode::kMov:
      case Opcode::kIAdd:
      case Opcode::kISub:
      case Opcode::kIMul:
      case Opcode::kIMad:
      case Opcode::kIMin:
      case Opcode::kIMax:
      case Opcode::kShl:
      case Opcode::kShr:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kFAdd:
      case Opcode::kFMul:
      case Opcode::kFFma:
      case Opcode::kFRcp: {
        if (exec_mask) {
            const WarpValue &a = readOperand(warp_idx, ins.src[0], imm0);
            const WarpValue &b = readOperand(warp_idx, ins.src[1], imm1);
            const WarpValue &c = readOperand(warp_idx, ins.src[2], imm2);
            // Uninitialized on purpose: every opcode loop below writes
            // all 32 lanes before writeDest() reads any of them.
            WarpValue out;
            // The opcode dispatch is hoisted out of the lane loop: one
            // tight 32-wide loop per opcode over contiguous operand
            // arrays, auto-vectorized (tools/check_vectorization.sh
            // gates this in CI).  Inactive lanes compute garbage that
            // writeDest() discards.
            switch (ins.op) {
              case Opcode::kMov:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = a[l];
                break;
              case Opcode::kIAdd:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = a[l] + b[l];
                break;
              case Opcode::kISub:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = a[l] - b[l];
                break;
              case Opcode::kIMul:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = a[l] * b[l];
                break;
              case Opcode::kIMad:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = a[l] * b[l] + c[l];
                break;
              case Opcode::kIMin:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = static_cast<u32>(
                        std::min(static_cast<i32>(a[l]),
                                 static_cast<i32>(b[l])));
                break;
              case Opcode::kIMax:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = static_cast<u32>(
                        std::max(static_cast<i32>(a[l]),
                                 static_cast<i32>(b[l])));
                break;
              case Opcode::kShl:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = a[l] << (b[l] & 31);
                break;
              case Opcode::kShr:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = a[l] >> (b[l] & 31);
                break;
              case Opcode::kAnd:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = a[l] & b[l];
                break;
              case Opcode::kOr:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = a[l] | b[l];
                break;
              case Opcode::kXor:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = a[l] ^ b[l];
                break;
              case Opcode::kFAdd:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = asBits(asFloat(a[l]) + asFloat(b[l]));
                break;
              case Opcode::kFMul:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = asBits(asFloat(a[l]) * asFloat(b[l]));
                break;
              case Opcode::kFFma:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = asBits(asFloat(a[l]) * asFloat(b[l]) +
                                    asFloat(c[l]));
                break;
              case Opcode::kFRcp:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = asBits(1.0f / asFloat(a[l]));
                break;
              default: panic("unreachable alu op");
            }
            writeDest(warp_idx, static_cast<u32>(ins.dst), out, exec_mask,
                      now);
            wb_regs = dec.defRegs;
        }
        break;
      }
      case Opcode::kSetP: {
        if (exec_mask) {
            const WarpValue &a = readOperand(warp_idx, ins.src[0], imm0);
            const WarpValue &b = readOperand(warp_idx, ins.src[1], imm1);
            // Full-width compare, then one branch-free bit merge:
            // active lanes take the compare result, inactive lanes
            // keep their old predicate bit.
            const u32 cmp = cmpMask(ins.cmp, a, b);
            u32 &bits = wt_.pred(warp_idx, ins.dstPred);
            bits = (bits & ~exec_mask) | (cmp & exec_mask);
            wb_preds = 1u << ins.dstPred;
        }
        break;
      }
      case Opcode::kPSel: {
        if (exec_mask) {
            const WarpValue &a = readOperand(warp_idx, ins.src[0], imm0);
            const WarpValue &b = readOperand(warp_idx, ins.src[1], imm1);
            const u32 sel = wt_.pred(warp_idx, ins.dstPred);
            WarpValue out{};
            for (u32 l = 0; l < kWarpSize; ++l) {
                const u32 keep = laneKeep(sel, l);
                out[l] = (a[l] & keep) | (b[l] & ~keep);
            }
            writeDest(warp_idx, static_cast<u32>(ins.dst), out, exec_mask,
                      now);
            wb_regs = dec.defRegs;
        }
        break;
      }
      case Opcode::kS2R: {
        if (exec_mask) {
            WarpValue out{};
            const u32 warp_in_cta = wt_.warpInCta[warp_idx];
            switch (ins.sreg) {
              case SpecialReg::kTid:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = warp_in_cta * kWarpSize + l;
                break;
              case SpecialReg::kCtaId:
                out.fill(wt_.globalCtaId[warp_idx]);
                break;
              case SpecialReg::kNTid:
                out.fill(launch_.threadsPerCta);
                break;
              case SpecialReg::kNCtaId:
                out.fill(launch_.gridCtas);
                break;
              case SpecialReg::kLaneId:
                for (u32 l = 0; l < kWarpSize; ++l)
                    out[l] = l;
                break;
              case SpecialReg::kWarpId:
                out.fill(warp_in_cta);
                break;
            }
            writeDest(warp_idx, static_cast<u32>(ins.dst), out, exec_mask,
                      now);
            wb_regs = dec.defRegs;
        }
        break;
      }
      case Opcode::kLdGlobal:
      case Opcode::kLdShared: {
        if (exec_mask) {
            const WarpValue &addr = readOperand(warp_idx, ins.src[0], imm0);
            const u32 off = ins.src[1].value;
            WarpValue out{};
            addrScratch_.clear();
            lanes([&](u32 l) {
                const u32 a = addr[l] + off;
                if (ins.op == Opcode::kLdGlobal) {
                    out[l] = gmem_.load(a);
                    addrScratch_.push_back(a);
                } else {
                    const u32 word = a / 4;
                    auto &shm = sharedMem_[wt_.ctaSlot[warp_idx]];
                    panicIf(a % 4 != 0, "unaligned shared load");
                    panicIf(word >= shm.size(),
                            "shared load out of bounds");
                    out[l] = shm[word];
                }
            });
            writeDest(warp_idx, static_cast<u32>(ins.dst), out, exec_mask,
                      now);
            wb_regs = dec.defRegs;
            if (ins.op == Opcode::kLdGlobal) {
                const auto timing = dramLoadTiming(addrScratch_, now);
                completion = timing.first;
                is_dram_load = timing.second;
            }
        }
        break;
      }
      case Opcode::kLdLocal: {
        if (exec_mask) {
            const WarpValue &mem = localMem_[warp_idx][ins.localSlot];
            writeDest(warp_idx, static_cast<u32>(ins.dst), mem, exec_mask,
                      now);
            wb_regs = dec.defRegs;
            // One coalesced warp-wide transaction per local slot; the
            // synthetic address keys the slot into the data cache
            // (bit 31 separates the local space from global).
            const u32 synth =
                0x80000000u |
                static_cast<u32>((warp_idx * localMem_[warp_idx].size() +
                                  ins.localSlot) *
                                 128u);
            addrScratch_.assign(1, synth);
            const auto timing = dramLoadTiming(addrScratch_, now);
            completion = timing.first;
            is_dram_load = timing.second;
        }
        break;
      }
      case Opcode::kAtomAdd: {
        if (exec_mask) {
            const WarpValue &addr = readOperand(warp_idx, ins.src[0], imm0);
            const u32 off = ins.src[1].value;
            const WarpValue &val = readOperand(warp_idx, ins.src[2], imm2);
            addrScratch_.clear();
            lanes([&](u32 l) { addrScratch_.push_back(addr[l] + off); });
            // The memory side effect is deferred to commitAtomics():
            // the Gpu commits all SMs' atomics at the end of the cycle
            // in SM-id order.  Lanes commit in lane order (deterministic
            // intra-warp atomicity); cross-warp order follows issue
            // order.  Timing is charged here: addresses are known and
            // the DRAM channel is per-SM.
            pendingAtomics_.push_back({warp_idx,
                                       static_cast<u32>(ins.dst),
                                       exec_mask, off, addr, val});
            wb_regs = dec.defRegs;
            // Read-modify-write: roughly twice the transactions.
            const u32 txns =
                2 * coalescedTransactions(addrScratch_, segScratch_);
            completion = dram_.access(now, txns);
            is_dram_load = true;
        }
        break;
      }
      case Opcode::kStGlobal:
      case Opcode::kStShared: {
        if (exec_mask) {
            const WarpValue &addr = readOperand(warp_idx, ins.src[0], imm0);
            const u32 off = ins.src[1].value;
            const WarpValue &val = readOperand(warp_idx, ins.src[2], imm2);
            addrScratch_.clear();
            lanes([&](u32 l) {
                const u32 a = addr[l] + off;
                if (ins.op == Opcode::kStGlobal) {
                    gmem_.store(a, val[l]);
                    addrScratch_.push_back(a);
                } else {
                    const u32 word = a / 4;
                    auto &shm = sharedMem_[wt_.ctaSlot[warp_idx]];
                    panicIf(a % 4 != 0, "unaligned shared store");
                    panicIf(word >= shm.size(),
                            "shared store out of bounds");
                    shm[word] = val[l];
                }
            });
            if (ins.op == Opcode::kStGlobal) {
                // Fire-and-forget: charge bandwidth, no warp stall.
                dram_.access(now, coalescedTransactions(addrScratch_,
                                                        segScratch_));
            }
        }
        break;
      }
      case Opcode::kStLocal: {
        if (exec_mask) {
            const WarpValue &val = readOperand(warp_idx, ins.src[0], imm0);
            WarpValue &mem = localMem_[warp_idx][ins.localSlot];
            // Branch-free masked merge into the local-memory slot.
            for (u32 l = 0; l < kWarpSize; ++l) {
                const u32 keep = laneKeep(exec_mask, l);
                mem[l] = (val[l] & keep) | (mem[l] & ~keep);
            }
            // Local memory is cached write-back/write-allocate on
            // Fermi: with the L1 enabled a store hit costs no DRAM
            // bandwidth (dirty evictions are not modeled).
            const u32 synth =
                0x80000000u |
                static_cast<u32>((warp_idx * localMem_[warp_idx].size() +
                                  ins.localSlot) *
                                 128u);
            if (dcache_.enabled()) {
                if (dcache_.access(synth))
                    ++stats_.dcacheHits;
                else {
                    ++stats_.dcacheMisses;
                    dram_.access(now, 1);
                }
            } else {
                dram_.access(now, 1);
            }
        }
        break;
      }
      case Opcode::kBra: {
        const u32 taken = exec_mask;
        stack.branch(ins.target, pc + 1, taken, ins.reconvPc);
        advanced = true;
        break;
      }
      case Opcode::kExit: {
        stack.exitLanes(exec_mask);
        advanced = true;
        if (stack.done()) {
            finishWarp(warp_idx, now);
        } else if (stack.pc() == pc) {
            stack.advance(pc + 1);
        }
        break;
      }
      case Opcode::kBar: {
        wt_.setAtBarrier(warp_idx, true);
        CtaSlot &cta = ctaSlots_[wt_.ctaSlot[warp_idx]];
        ++cta.barrierArrived;
        stack.advance(pc + 1);
        advanced = true;
        const u32 live = cta.numWarps - cta.warpsFinished;
        if (cta.barrierArrived >= live)
            releaseBarrier(wt_.ctaSlot[warp_idx]);
        break;
      }
      case Opcode::kPir:
      case Opcode::kPbr:
        panic("metadata reached execute()");
    }

    if (!advanced && !wt_.finished(warp_idx))
        stack.advance(pc + 1);

    if (wb_regs || wb_preds || is_dram_load) {
        wt_.pendingRegs[warp_idx] |= wb_regs;
        wt_.pendingPreds[warp_idx] |= wb_preds;
        pushCompletion({completion, warp_idx, wb_regs, wb_preds,
                        is_dram_load});
        if (is_dram_load) {
            ++wt_.pendingLoads[warp_idx];
            ++inFlightLoads_;
            if (twoLevel_)
                demoteWarp(warp_idx); // two-level long-latency demotion
        }
    }
}

void
Sm::releaseBarrier(u32 cta_slot)
{
    CtaSlot &cta = ctaSlots_[cta_slot];
    const u32 first = firstWarpSlot(cta_slot);
    // The whole CTA's atBarrier bits clear in one mask operation;
    // warps parked on the barrier rejoin the scheduler in slot order
    // (the last arriver is still mid-issue in the ready set).
    wt_.clearBarrierRange(first, cta.numWarps);
    for (u32 i = 0; i < cta.numWarps; ++i) {
        if (wt_.loc(first + i) == WarpLoc::kBarrier)
            pendWarp(first + i);
    }
    cta.barrierArrived = 0;
}

void
Sm::finishWarp(u32 warp_idx, Cycle now)
{
    if (wt_.finished(warp_idx))
        return;
    wt_.setFinished(warp_idx, true);
    const u32 cta_slot = wt_.ctaSlot[warp_idx];
    // Hand the warp's remaining register footprint back now, not at
    // CTA completion: under GPU-shrink, exempt registers (which have
    // no release points) of early-exited warps otherwise pin exactly
    // the banks the surviving warps must refill from, and the spill
    // engine cannot victimize finished warps — a circular wait the
    // differential fuzzer caught as a watchdog deadlock.  Safe at this
    // point: values are written functionally at issue, so in-flight
    // completions only clear scoreboard bits.
    mgr_.completeWarp(warp_idx, cta_slot);
    CtaSlot &cta = ctaSlots_[cta_slot];
    ++cta.warpsFinished;

    // A finished warp no longer participates in barriers.
    const u32 live = cta.numWarps - cta.warpsFinished;
    if (live > 0 && cta.barrierArrived >= live)
        releaseBarrier(cta_slot);

    if (cta.warpsFinished == cta.numWarps) {
        const u32 first = firstWarpSlot(cta_slot);
        mgr_.completeCta(cta_slot, first, cta.numWarps);
        for (u32 i = 0; i < cta.numWarps; ++i)
            wt_.setValid(first + i, false);
        cta.active = false;
        panicIf(residentCtas_ == 0, "resident CTA underflow");
        --residentCtas_;
        ++completedCtas_;
    }
    (void)now;
}

void
Sm::tryRefill(u32 warp_idx, Cycle now)
{
    if (throttleActive_ && wt_.ctaSlot[warp_idx] != throttleCta_)
        return; // refilling would steal registers from the chosen CTA
    const u32 reg = mgr_.firstSpilledReg(warp_idx);
    const auto res =
        mgr_.refillReg(warp_idx, wt_.ctaSlot[warp_idx], reg);
    if (!res.ok) {
        // The needed bank is exhausted (other banks may have space in
        // bank-restricted mode — e.g. it is held by warps parked at a
        // barrier): free it the same way an allocation stall would.
        attemptSpill(warp_idx, reg % cfg_.regFile.numBanks, now);
        return;
    }
    ++stats_.refilledRegs;
    const Cycle done = dram_.access(now, 1);
    wt_.blockedUntil[warp_idx] =
        std::max(wt_.blockedUntil[warp_idx], done + res.wakeCycles);
}

i32
Sm::spillPriorityWarp() const
{
    // The lowest-indexed runnable warp that still has spilled registers
    // holds spill priority: only it may victimize other warps.  Without
    // this, warps with spilled registers steal each other's registers
    // back and forth and nobody completes a refill (livelock).
    // Candidate warps come from one mask sweep (valid, unfinished, not
    // at a barrier), visited in ascending slot order.
    const u64 *valid = wt_.validWords();
    const u64 *finished = wt_.finishedWords();
    const u64 *bar = wt_.atBarrierWords();
    for (u32 w = 0; w < wt_.maskWords(); ++w) {
        u64 live = valid[w] & ~finished[w] & ~bar[w];
        while (live) {
            const u32 wi = w * 64 + findFirstSet(live);
            live &= live - 1;
            if (throttleActive_ && wt_.ctaSlot[wi] != throttleCta_)
                continue; // gated by the throttle: cannot refill anyway
            if (mgr_.hasSpilledRegs(wi))
                return static_cast<i32>(wi);
        }
    }
    return -1;
}

void
Sm::attemptSpill(u32 stalled_warp, u32 need_bank, Cycle now)
{
    const i32 prio = spillPriorityWarp();
    if (prio >= 0 && static_cast<u32>(prio) != stalled_warp)
        return; // wait until the priority warp has recovered
    i32 best = -1;
    i64 best_score = -1;
    // Victim candidates from one mask sweep over the live warps.  The
    // scoring pass only needs each warp's candidate count and whether
    // one lives in the needed bank — a counting scan, so the per-warp
    // list is materialized exactly once, for the winner.
    const u64 *valid = wt_.validWords();
    const u64 *finished = wt_.finishedWords();
    for (u32 w = 0; w < wt_.maskWords(); ++w) {
        u64 live = valid[w] & ~finished[w];
        while (live) {
            const u32 wi = w * 64 + findFirstSet(live);
            live &= live - 1;
            if (wi == stalled_warp)
                continue;
            if (wt_.pendingRegs[wi] || wt_.pendingPreds[wi] ||
                wt_.pendingLoads[wi])
                continue; // in-flight writes pin the physical registers
            if (now < wt_.spillProtectedUntil[wi])
                continue;
            bool has_need = false;
            const u32 count =
                mgr_.countSpillCandidates(wi, need_bank, has_need);
            if (count == 0)
                continue;
            i64 score = static_cast<i64>(count);
            if (wt_.ctaSlot[wi] != throttleCta_ || !throttleActive_)
                score += 1000;
            if (has_need)
                score += 500;
            // Prefer warps parked outside the active ready set.
            if (wt_.loc(wi) != WarpLoc::kReady)
                score += 200;
            if (score > best_score) {
                best_score = score;
                best = static_cast<i32>(wi);
            }
        }
    }
    if (best < 0)
        return;
    const u32 victim = static_cast<u32>(best);
    const auto best_cands = mgr_.spillCandidates(victim);
    for (u32 r : best_cands)
        mgr_.spillReg(victim, wt_.ctaSlot[victim], r);
    const Cycle done =
        dram_.access(now, static_cast<u32>(best_cands.size()));
    wt_.blockedUntil[victim] = std::max(wt_.blockedUntil[victim], done);
    wt_.spillProtectedUntil[victim] = done + cfg_.spillCooldown;
    ++stats_.spillEvents;
    stats_.spilledRegs += best_cands.size();
}

void
Sm::step(Cycle now)
{
    if (profiling_) {
        ++prof_.steps;
        profStep_ = prof_.steps % kLoopProfileSampleEvery == 0;
    }
    const bool prof = profStep_;
    u64 t0 = 0;
    u64 t1 = 0;
    u64 fetch0 = 0;
    u64 exec0 = 0;
    if (prof)
        t0 = profileNowNs();

    drainCompletions(now);
    wakeSleepers(now);
    std::fill(bankPortUse_.begin(), bankPortUse_.end(), 0);
    evaluateThrottle();
    if (throttleActive_)
        ++stats_.throttleActiveCycles;
    refillReadyQueue();

    if (prof) {
        t1 = profileNowNs();
        prof_.scheduleNs += t1 - t0;
        fetch0 = prof_.fetchNs;
        exec0 = prof_.executeNs;
    }

    u32 issued = 0;
    if (!readyQueue_.empty()) {
        // The LRR snapshot keeps only warps issuable at the start of
        // the cycle.  Every warp enters the ready set valid,
        // unfinished and not at a barrier, and the post-attempt rule
        // takes it out as soon as any of that changes, so at step
        // entry a ready warp is issuable exactly when
        // blockedUntil <= now.  The filter is exact:
        // blockedUntil never decreases within a cycle and the flags
        // only flip toward non-issuable, so a warp not issuable in
        // the snapshot stays non-issuable all cycle and its
        // attemptIssue would have been a side-effect-free skip.
        // (attemptIssue still re-checks per-warp state: a warp
        // issuable at the snapshot can be blocked mid-cycle, e.g. as
        // a spill victim.)
        const u32 n = static_cast<u32>(readyQueue_.size());
        u32 order = 0;
        u32 j = lrrCursor_ < n ? lrrCursor_ : lrrCursor_ % n;
        for (u32 i = 0; i < n; ++i) {
            const u32 wi = readyQueue_[j];
            if (++j == n)
                j = 0;
            issueOrder_[order] = wi;
            order += wt_.blockedUntil[wi] <= now;
        }
        for (u32 k = 0; k < order && issued < cfg_.issuePerCycle; ++k) {
            const u32 wi = issueOrder_[k];
            // The warp may have been demoted by a previous issue.
            if (wt_.loc(wi) != WarpLoc::kReady)
                continue;
            const IssueOutcome outcome = attemptIssue(wi, now);
            if (outcome == IssueOutcome::kIssued)
                ++issued;
            // Post-attempt rule: route the warp to the container its
            // state demands.  Issue side effects (barrier, finish,
            // demotion inside execute) may already have moved it.
            if (wt_.loc(wi) != WarpLoc::kReady)
                continue;
            if (!wt_.valid(wi) || wt_.finished(wi)) {
                removeFromReady(wi);
                wt_.loc(wi, WarpLoc::kNone);
                continue;
            }
            if (wt_.atBarrier(wi)) {
                removeFromReady(wi);
                wt_.loc(wi, WarpLoc::kBarrier);
                continue;
            }
            if (outcome == IssueOutcome::kParked) {
                removeFromReady(wi);
                wt_.loc(wi, WarpLoc::kParked);
                throttleParked_.push_back(wi);
                continue;
            }
            if (outcome == IssueOutcome::kDemoted)
                demoteWarp(wi);
        }
        const u32 left = static_cast<u32>(readyQueue_.size());
        if (left != 0)
            lrrCursor_ = lrrCursor_ + 1 < left ? lrrCursor_ + 1
                                               : (lrrCursor_ + 1) % left;
    }

    if (prof) {
        // The issue loop's time minus what attemptIssue booked to the
        // fetch/execute buckets is scheduling overhead.
        const u64 t2 = profileNowNs();
        prof_.scheduleNs += (t2 - t1) - (prof_.fetchNs - fetch0) -
                            (prof_.executeNs - exec0);
        t1 = t2;
    }

    // Re-evaluate the throttle with this cycle's allocations/releases
    // applied so skipCycles() reconstructs throttleActiveCycles from
    // current state, then restore the every-ready-warp-is-near
    // invariant that makes the quiescent window provable.
    evaluateThrottle();
    normalizeReadyQueue(now);

    if (issued == 0 && busy())
        ++stats_.idleCycles;

    mgr_.sampleCycle();
    if (sampling_ && now % hooks_.samplePeriod == 0) {
        hooks_.liveSample(now, mgr_.mappedCount(),
                          residentWarps() * prog_.numRegs);
    }

    if (prof) {
        prof_.commitNs += profileNowNs() - t1;
        ++prof_.timedSteps;
    }
}

Cycle
Sm::nextEventCycle(Cycle now) const
{
    Cycle next =
        std::max(std::min(readyWake_, sleepers_.nextWake()), now + 1);
    // Defensive: a refillable pending warp or an uncommitted atomic
    // means next cycle is not provably a no-op.
    if ((!pendingQueue_.empty() &&
         readyQueue_.size() < effectiveReadyQueue_) ||
        !pendingAtomics_.empty()) {
        next = std::min(next, now + 1);
    }
    // The sampled SM must step on every sample cycle.
    if (sampling_)
        next = std::min(next, (now / hooks_.samplePeriod + 1) *
                                  hooks_.samplePeriod);
    return next;
}

void
Sm::skipCycles(u64 k)
{
    // Reconstruct exactly what k no-op step() calls would have
    // recorded.  Each no-op step: counts a throttle-active cycle from
    // the (frozen) throttle state, rotates the LRR cursor once,
    // counts an idle cycle when CTAs are resident, and integrates one
    // power-sampling cycle.  All other per-step work is state-free
    // over a quiescent window (see nextEventCycle()).
    if (throttleActive_)
        stats_.throttleActiveCycles += k;
    if (!readyQueue_.empty()) {
        lrrCursor_ = static_cast<u32>(
            (static_cast<u64>(lrrCursor_) + k) % readyQueue_.size());
    }
    if (busy())
        stats_.idleCycles += k;
    mgr_.sampleCycles(k);
}

void
Sm::commitAtomicsWork(Cycle now)
{
    ScopedNs commit_t(profStep_ ? &prof_.commitNs : nullptr);
    for (const PendingAtomic &pa : pendingAtomics_) {
        WarpValue out{};
        for (u32 l = 0; l < kWarpSize; ++l) {
            if (!((pa.execMask >> l) & 1))
                continue;
            const u32 a = pa.addr[l] + pa.offset;
            const u32 old = gmem_.load(a);
            gmem_.store(a, old + pa.val[l]);
            out[l] = old;
        }
        writeDest(pa.warpIdx, pa.dst, out, pa.execMask, now);
    }
    pendingAtomics_.clear();
}

} // namespace rfv
