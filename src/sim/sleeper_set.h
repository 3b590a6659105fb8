/**
 * @file
 * The SM's sleeping warps: long-blocked warps parked off the scheduler
 * queues until a known wake cycle.
 */
#ifndef RFV_SIM_SLEEPER_SET_H
#define RFV_SIM_SLEEPER_SET_H

#include <algorithm>
#include <vector>

#include "common/bit_utils.h"

namespace rfv {

/**
 * A bitmask of sleeping warp slots plus one wake key per warp: its
 * blockedUntil at the moment it fell asleep.  A stall extended while
 * asleep (spill victim) is seen only when the old key comes due; the
 * warp then sleeps on under the new cycle, so the SM still steps at
 * the old key — a step LoopStats counts.
 */
class SleeperSet {
  public:
    /** Empty set over @p slots warp slots. */
    void
    reset(u32 slots)
    {
        bits_.assign(ceilDiv(slots, 64), 0);
        key_.assign(slots, 0);
        next_ = ~0ull;
    }

    /** Put @p warp to sleep under wake key @p key. */
    void
    sleep(u32 warp, Cycle key)
    {
        bits_[warp >> 6] |= 1ull << (warp & 63);
        key_[warp] = key;
        next_ = std::min(next_, key);
    }

    /** The smallest key; ~0 when no warp sleeps. */
    Cycle nextWake() const { return next_; }

    u32
    size() const
    {
        u32 n = 0;
        for (u64 w : bits_)
            n += popcount64(w);
        return n;
    }

    /**
     * Wake every sleeper whose key is at most @p now, in (key, warp)
     * order: one still blocked past @p now per @p blockedUntil sleeps
     * on under that cycle, any other leaves the set through @p wake.
     * The SM steps at the smallest key, so due sleepers normally share
     * one key and the outer loop runs once.
     */
    template <typename Wake>
    void
    wakeDue(Cycle now, const Cycle *blockedUntil, Wake &&wake)
    {
        while (next_ <= now) {
            const Cycle key = next_;
            next_ = ~0ull;
            for (u32 w = 0; w < bits_.size(); ++w) {
                for (u64 m = bits_[w]; m != 0; m &= m - 1) {
                    const u32 warp = w * 64 + findFirstSet(m);
                    if (key_[warp] == key) {
                        if (blockedUntil[warp] <= now) {
                            bits_[w] &= ~(m & -m);
                            wake(warp);
                            continue;
                        }
                        key_[warp] = blockedUntil[warp];
                    }
                    next_ = std::min(next_, key_[warp]);
                }
            }
        }
    }

  private:
    std::vector<u64> bits_;
    std::vector<Cycle> key_;
    Cycle next_ = ~0ull;
};

} // namespace rfv

#endif // RFV_SIM_SLEEPER_SET_H
