#include "sim/memory.h"

#include <algorithm>
#include <bit>
#include <new>

namespace rfv {

GlobalMemory::GlobalMemory(u32 bytes)
    : numWords_(bytes / 4), // one spare word: calloc(0) may return null
      words_(static_cast<u32 *>(std::calloc(numWords_ + 1, sizeof(u32))),
             &std::free)
{
    fatalIf(bytes % 4 != 0, "global memory size must be word aligned");
    if (!words_)
        throw std::bad_alloc();
}

u32
coalescedTransactions(const std::vector<u32> &byte_addrs)
{
    std::vector<u32> scratch;
    return coalescedTransactions(byte_addrs, scratch);
}

u32
coalescedTransactions(const std::vector<u32> &byte_addrs,
                      std::vector<u32> &scratch)
{
    if (byte_addrs.empty())
        return 0;
    // A warp's segments almost always span fewer than 64 ids: mark
    // each in a bitmask relative to the lowest and count the bits.
    u32 lo = ~0u;
    u32 hi = 0;
    for (u32 a : byte_addrs) {
        lo = std::min(lo, a / 128);
        hi = std::max(hi, a / 128);
    }
    if (hi - lo < 64) {
        u64 seen = 0;
        for (u32 a : byte_addrs)
            seen |= 1ull << (a / 128 - lo);
        return static_cast<u32>(std::popcount(seen));
    }
    scratch.clear();
    scratch.reserve(byte_addrs.size());
    for (u32 a : byte_addrs)
        scratch.push_back(a / 128);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
    return static_cast<u32>(scratch.size());
}

} // namespace rfv
