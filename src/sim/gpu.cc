#include "sim/gpu.h"

#include <algorithm>

namespace rfv {

Gpu::Gpu(const GpuConfig &cfg, const Program &prog,
         const LaunchParams &launch, GlobalMemory &gmem, TraceHooks hooks,
         const DecodeCache *shared_decode)
    : cfg_(cfg), prog_(prog), launch_(launch), gmem_(gmem),
      hooks_(std::move(hooks)),
      ownedDecode_(shared_decode
                       ? nullptr
                       : std::make_unique<DecodeCache>(prog, cfg_)),
      decode_(shared_decode ? *shared_decode : *ownedDecode_)
{
    cfg_.validate();
    prog_.validate();
    fatalIf(launch_.gridCtas == 0, "empty grid");
    fatalIf(launch_.threadsPerCta == 0, "empty CTA");
    // One DRAM channel per SM: SMs share no mutable timing state, so
    // an SM's DRAM service does not depend on the order SMs step in.
    // dramCyclesPerTransaction is the GPU-wide service interval, so
    // each channel gets an SM-count multiple of it — aggregate
    // bandwidth stays fixed as the machine scales, each SM owning a
    // fair share.  Reserve up front — SMs keep references into the
    // vector.
    drams_.reserve(cfg_.numSms);
    for (u32 s = 0; s < cfg_.numSms; ++s) {
        drams_.emplace_back(cfg_.globalLatency,
                            cfg_.dramCyclesPerTransaction * cfg_.numSms);
        sms_.push_back(std::make_unique<Sm>(s, cfg_, prog_, decode_,
                                            launch_, gmem_, drams_[s],
                                            hooks_));
    }
}

SimResult
aggregateResults(const std::vector<std::unique_ptr<Sm>> &sms,
                 const std::vector<DramModel> &drams, Cycle cycles,
                 u32 regs_per_warp)
{
    SimResult res;
    res.cycles = cycles;
    res.regsPerWarp = regs_per_warp;
    for (const DramModel &d : drams)
        res.dram += d.stats();
    res.rf.bankReads.assign(kNumRegBanks, 0);
    res.rf.bankWrites.assign(kNumRegBanks, 0);
    for (const auto &sm : sms) {
        const SmStats &s = sm->stats();
        // Event counts are additive across SMs ...
        res.issuedInstrs += s.issuedInstrs;
        res.threadInstrs += s.threadInstrs;
        res.metaEncounters += s.metaEncounters;
        res.metaDecoded += s.metaDecoded;
        res.scoreboardStalls += s.scoreboardStalls;
        res.allocStallEvents += s.allocStallEvents;
        res.throttleActiveCycles += s.throttleActiveCycles;
        res.bankConflictCycles += s.bankConflictCycles;
        res.spillEvents += s.spillEvents;
        res.spilledRegs += s.spilledRegs;
        res.refilledRegs += s.refilledRegs;
        res.wakeStallEvents += s.wakeStallEvents;
        res.icacheHits += s.icacheHits;
        res.icacheMisses += s.icacheMisses;
        res.dcacheHits += s.dcacheHits;
        res.dcacheMisses += s.dcacheMisses;
        // ... but high-water marks are not: summing per-SM peaks
        // would overstate GPU-wide pressure by up to the SM count
        // (they also feed allocationReductionPct, which must compare
        // a per-SM watermark against a per-SM reservation).
        res.peakResidentWarps =
            std::max(res.peakResidentWarps, s.peakResidentWarps);
        res.completedCtas += sm->completedCtas();

        const auto &fc = sm->flagCache().stats();
        res.flagCacheHits += fc.hits;
        res.flagCacheMisses += fc.misses;

        const auto &rf = sm->regs().file().stats();
        for (u32 b = 0; b < rf.bankReads.size() && b < kNumRegBanks; ++b) {
            res.rf.bankReads[b] += rf.bankReads[b];
            res.rf.bankWrites[b] += rf.bankWrites[b];
        }
        res.rf.allocations += rf.allocations;
        res.rf.releases += rf.releases;
        res.rf.wakeEvents += rf.wakeEvents;
        res.rf.activeSubarrayCycles += rf.activeSubarrayCycles;
        res.rf.sampledCycles += rf.sampledCycles;
        // Peak, same rule as peakResidentWarps.
        res.rf.allocWatermark =
            std::max(res.rf.allocWatermark, rf.allocWatermark);
        res.rf.touchedCount += rf.touchedCount;
        res.rf.crossWarpReuse += rf.crossWarpReuse;
        res.rf.sameWarpReuse += rf.sameWarpReuse;

        const auto &rn = sm->regs().renameStats();
        res.rename.lookups += rn.lookups;
        res.rename.updates += rn.updates;
        res.rename.spills += rn.spills;
        res.rename.refills += rn.refills;
        res.rename.mappedRegCycles += rn.mappedRegCycles;
        res.rename.sampledCycles += rn.sampledCycles;
    }
    return res;
}

SimResult
Gpu::run()
{
    u32 next_cta = 0;
    u32 completed = 0;
    Cycle cycle = 0;
    loopStats_ = LoopStats{};

    const u32 num_sms = static_cast<u32>(sms_.size());

    // Earliest cycle each SM's state can change (0 = step immediately).
    std::vector<Cycle> next_wake(num_sms, 0);
    std::vector<u8> stepped(num_sms, 1);
    std::vector<u8> launched(num_sms, 0);

    auto dispatch = [&]() {
        // Round-robin CTAs onto SMs with free slots.  A failed
        // tryLaunchCta is side-effect free (RegisterManager::launchCta
        // rolls back its allocations and stats), so skipping the
        // retries during a quiescent window cannot change results.
        bool progress = true;
        while (progress && next_cta < launch_.gridCtas) {
            progress = false;
            for (u32 i = 0; i < num_sms; ++i) {
                if (next_cta >= launch_.gridCtas)
                    break;
                if (sms_[i]->tryLaunchCta(next_cta, cycle)) {
                    ++next_cta;
                    progress = true;
                    launched[i] = 1;
                }
            }
        }
    };

    dispatch();
    fatalIf(next_cta == 0,
            "no CTA could be launched: kernel exceeds the register file "
            "even for a single CTA in baseline mode");

    while (true) {
        bool busy = false;
        for (auto &sm : sms_)
            busy |= sm->busy();
        if (!busy && next_cta >= launch_.gridCtas)
            break;

        if (cfg_.eventDriven) {
            // Fleet fast-forward: when no SM can progress this cycle,
            // jump straight to the earliest fleet-wide wakeup and
            // reconstruct the skipped window's per-cycle counters.
            Cycle horizon = kNoEventCycle;
            for (u32 i = 0; i < num_sms; ++i)
                horizon = std::min(horizon, next_wake[i]);
            if (horizon > cycle) {
                const Cycle target = std::min(horizon, cfg_.maxCycles);
                const u64 k = target - cycle;
                for (auto &sm : sms_)
                    sm->skipCycles(k);
                loopStats_.skippedCycles += k;
                cycle = target;
                if (cycle >= cfg_.maxCycles) {
                    // A horizon of kNoEventCycle while CTAs are
                    // resident is a deadlock: reach the watchdog the
                    // same way the naive loop would.
                    panic("watchdog: kernel exceeded " +
                          std::to_string(cfg_.maxCycles) + " cycles");
                }
            }
            for (u32 i = 0; i < num_sms; ++i) {
                stepped[i] = next_wake[i] <= cycle;
                launched[i] = 0;
                if (!stepped[i])
                    ++loopStats_.smStepsElided;
            }
        }

        for (u32 i = 0; i < num_sms; ++i) {
            if (stepped[i])
                sms_[i]->step(cycle);
            else
                sms_[i]->skipCycles(1);
        }
        ++loopStats_.steppedCycles;

        // End of cycle: commit atomics in SM-id order, then dispatch
        // CTAs.
        for (auto &sm : sms_)
            sm->commitAtomics(cycle);

        if (next_cta < launch_.gridCtas)
            dispatch();

        if (cfg_.eventDriven) {
            // Stepped and freshly launched-into SMs have new state;
            // everyone else's wakeup estimate is still valid.
            for (u32 i = 0; i < num_sms; ++i)
                if (stepped[i] || launched[i])
                    next_wake[i] = sms_[i]->nextEventCycle(cycle);
        }

        ++cycle;
        if (cycle >= cfg_.maxCycles) {
            panic("watchdog: kernel exceeded " +
                  std::to_string(cfg_.maxCycles) + " cycles");
        }
    }

    completed = 0;
    for (const auto &sm : sms_)
        completed += sm->completedCtas();
    panicIf(completed != launch_.gridCtas,
            "not all CTAs completed at end of simulation");

    if (hooks_.loopProfile != nullptr)
        for (const auto &sm : sms_)
            *hooks_.loopProfile += sm->loopProfile();

    return aggregateResults(sms_, drams_, cycle, prog_.numRegs);
}

} // namespace rfv
