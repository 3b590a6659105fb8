#include "sim/memory.h"

#include <algorithm>
#include <bit>
#include <new>

namespace rfv {

namespace {

constexpr u64 kNeverWritten = 0;

u64
packWriter(u32 sm_id, Cycle now)
{
    return ((now + 1) << 16) | sm_id;
}

u32
writerSm(u64 packed)
{
    return static_cast<u32>(packed & 0xffffu);
}

Cycle
writerCycle(u64 packed)
{
    return (packed >> 16) - 1;
}

} // namespace

GlobalMemory::GlobalMemory(u32 bytes)
    : numWords_(bytes / 4), // one spare word: calloc(0) may return null
      words_(static_cast<u32 *>(std::calloc(numWords_ + 1, sizeof(u32))),
             &std::free)
{
    fatalIf(bytes % 4 != 0, "global memory size must be word aligned");
    if (!words_)
        throw std::bad_alloc();
}

void
GlobalMemory::enableOverlapCheck()
{
    // make_unique value-initializes: every entry starts kNeverWritten.
    lastWrite_ = std::make_unique<std::atomic<u64>[]>(numWords_);
    lastRead_ = std::make_unique<std::atomic<u64>[]>(numWords_);
}

void
GlobalMemory::recordViolation(u32 word, u32 sm_id, u32 other_sm,
                              Cycle now) const
{
    // relaxed: monotonic statistic; the descriptive string below is
    // published by the acq_rel CAS, not by this counter.
    violations_.fetch_add(1, std::memory_order_relaxed);
    bool expected = false;
    if (firstRecorded_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
        const_cast<GlobalMemory *>(this)->first_ =
            "cross-SM overlap: word " + std::to_string(word) +
            " written by SM " + std::to_string(other_sm) +
            " and accessed by SM " + std::to_string(sm_id) +
            " in cycle " + std::to_string(now) +
            " (non-atomic CTA outputs must be disjoint)";
    }
}

void
GlobalMemory::checkRead(u32 word, u32 sm_id, Cycle now) const
{
    // relaxed: the checker only compares (sm, cycle) tags; atomicity
    // keeps the tag words tear-free, and cross-thread visibility is
    // provided by the simulator's own per-cycle barriers — the check
    // needs no ordering of its own.
    lastRead_[word].store(packWriter(sm_id, now),
                          std::memory_order_relaxed);
    // relaxed: see above.
    const u64 prev = lastWrite_[word].load(std::memory_order_relaxed);
    if (prev != kNeverWritten && writerSm(prev) != sm_id &&
        writerCycle(prev) == now) {
        recordViolation(word, sm_id, writerSm(prev), now);
    }
}

void
GlobalMemory::checkWrite(u32 word, u32 sm_id, Cycle now)
{
    // relaxed: tag bookkeeping only; see checkRead for the argument.
    const u64 prev = lastWrite_[word].exchange(
        packWriter(sm_id, now), std::memory_order_relaxed);
    if (prev != kNeverWritten && writerSm(prev) != sm_id &&
        writerCycle(prev) == now) {
        recordViolation(word, sm_id, writerSm(prev), now);
    }
    // relaxed: tag bookkeeping only; see checkRead for the argument.
    const u64 read = lastRead_[word].load(std::memory_order_relaxed);
    if (read != kNeverWritten && writerSm(read) != sm_id &&
        writerCycle(read) == now) {
        recordViolation(word, sm_id, writerSm(read), now);
    }
}

std::string
GlobalMemory::firstOverlap() const
{
    if (!firstRecorded_.load(std::memory_order_acquire))
        return "";
    return first_;
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
