/**
 * @file
 * Per-SM instruction cache model.
 *
 * A direct-mapped line cache over the instruction stream.  Metadata
 * instructions occupy lines like regular instructions, so the static
 * code growth from pir/pbr insertion (paper Fig. 13) costs real fetch
 * misses when the kernel outgrows the cache.  Misses block the fetching
 * warp for a fixed refill latency.
 */
#ifndef RFV_SIM_ICACHE_H
#define RFV_SIM_ICACHE_H

#include <vector>

#include "common/bit_utils.h"
#include "common/error.h"

namespace rfv {

/** Direct-mapped instruction cache indexed by instruction pc. */
class ICache {
  public:
    /**
     * Both sizes are powers of two (GpuConfig::validate), so a probe
     * indexes with a shift and a mask.
     * @param totalInstrs  capacity in instructions (0 disables: every
     *                     access hits)
     * @param lineInstrs   instructions per line (64-bit words; a 64 B
     *                     line holds 8)
     */
    ICache(u32 totalInstrs, u32 lineInstrs)
    {
        panicIf(!isPow2(lineInstrs) ||
                    (totalInstrs != 0 && !isPow2(totalInstrs)),
                "icache geometry must be a power of two");
        numLines_ = totalInstrs / lineInstrs;
        lineShift_ = findFirstSet(lineInstrs);
        tags_.assign(numLines_, kInvalidPc);
    }

    /**
     * Probe for the line containing @p pc; fills the line on a miss.
     * @return true on hit.
     */
    bool
    access(u32 pc)
    {
        if (numLines_ == 0)
            return true; // disabled: ideal instruction supply
        const u32 line = pc >> lineShift_;
        const u32 idx = line & (numLines_ - 1);
        if (tags_[idx] == line)
            return true;
        tags_[idx] = line;
        return false;
    }

  private:
    u32 numLines_;
    u32 lineShift_; //!< log2(instructions per line)
    std::vector<u32> tags_; //!< resident line address, kInvalidPc empty
};

} // namespace rfv

#endif // RFV_SIM_ICACHE_H
