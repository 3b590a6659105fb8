/**
 * @file
 * Optional per-SM L1 data cache (timing only).
 *
 * Disabled by default: the paper's Fermi-era evaluation pays DRAM for
 * global and local (spill) traffic, which is what makes the
 * compiler-spill baseline so expensive in Fig. 11(a).  Enabling the
 * cache is an ablation: it shows how an L1 would soften the spill
 * penalty without changing any functional result (values always come
 * from the functional memory; the cache only decides latency).
 */
#ifndef RFV_SIM_DCACHE_H
#define RFV_SIM_DCACHE_H

#include <vector>

#include "common/types.h"

namespace rfv {

/** Direct-mapped, read-allocate, write-through/no-allocate cache. */
class DCache {
  public:
    /**
     * @param lines      number of cache lines (0 disables: every access
     *                   misses, i.e. DRAM timing as in the paper)
     * @param lineBytes  line size in bytes (Fermi L1: 128)
     */
    DCache(u32 lines, u32 lineBytes)
        : numLines_(lines), lineBytes_(lineBytes ? lineBytes : 128),
          tags_(lines, kInvalidPc)
    {
    }

    bool enabled() const { return numLines_ != 0; }

    /**
     * Probe the line holding @p byteAddr; fills it on a miss.
     * @return true on hit.  With the cache disabled every probe
     *         reports a miss.
     */
    bool
    access(u32 byteAddr)
    {
        if (numLines_ == 0)
            return false;
        const u32 line = byteAddr / lineBytes_;
        const u32 idx = line % numLines_;
        if (tags_[idx] == line)
            return true;
        tags_[idx] = line;
        return false;
    }

  private:
    u32 numLines_;
    u32 lineBytes_;
    std::vector<u32> tags_;
};

} // namespace rfv

#endif // RFV_SIM_DCACHE_H
