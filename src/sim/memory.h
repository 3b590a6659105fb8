/**
 * @file
 * Functional global memory and a bandwidth/latency DRAM timing model.
 */
#ifndef RFV_SIM_MEMORY_H
#define RFV_SIM_MEMORY_H

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace rfv {

/**
 * Flat, word-granular global memory shared by the whole GPU.
 * Addresses are byte addresses and must be 4-byte aligned.  SMs step
 * one after another within a cycle, and atomics commit at the end of
 * the cycle in SM-id order (see docs/ARCHITECTURE.md §3.4).
 */
class GlobalMemory {
  public:
    /**
     * Zeroed memory of @p bytes.  The words come from calloc, so the
     * OS supplies zero pages on first touch: a workload that sizes
     * its buffers generously pays only for the pages it uses.
     */
    explicit GlobalMemory(u32 bytes);

    u32 sizeBytes() const { return numWords_ * 4; }

    /** Byte-addressed access; panics on unaligned or out-of-range. */
    u32 load(u32 byteAddr) const
    {
        return words_[wordIndex(byteAddr, "load")];
    }
    void store(u32 byteAddr, u32 value)
    {
        words_[wordIndex(byteAddr, "store")] = value;
    }

    /** Convenience word accessors for workload setup/verification. */
    u32 word(u32 index) const { return words_[checkedIndex(index)]; }
    void setWord(u32 index, u32 value) { words_[checkedIndex(index)] = value; }

  private:
    u32
    wordIndex(u32 byteAddr, const char *what) const
    {
        panicIf(byteAddr % 4 != 0,
                std::string("unaligned global ") + what);
        const u32 w = byteAddr / 4;
        panicIf(w >= numWords_, std::string("global ") + what +
                                    " out of bounds at byte " +
                                    std::to_string(byteAddr));
        return w;
    }
    u32
    checkedIndex(u32 index) const
    {
        panicIf(index >= numWords_, "global memory word out of range");
        return index;
    }

    u32 numWords_;
    std::unique_ptr<u32[], decltype(&std::free)> words_;
};

/** DRAM statistics. */
struct DramStats {
    u64 requests = 0;     //!< warp-level memory operations
    u64 transactions = 0; //!< 128-byte segments transferred
    u64 queueCycles = 0;  //!< total cycles requests waited for service

    bool operator==(const DramStats &) const = default;

    /** Accumulate another channel's counters (all additive). */
    DramStats &
    operator+=(const DramStats &o)
    {
        requests += o.requests;
        transactions += o.transactions;
        queueCycles += o.queueCycles;
        return *this;
    }
};

/**
 * One DRAM channel: a single service pipe with fixed per-128B
 * transaction occupancy and a base access latency.  Contention
 * appears as queueing delay — which is what lets CTA throttling
 * *improve* memory-bound kernels (paper's MUM observation, Fig. 11a).
 *
 * The Gpu shards DRAM one channel per SM so SMs never share mutable
 * timing state.  Each channel's service interval is scaled by the SM
 * count, so aggregate bandwidth is fixed and every SM owns a fair
 * share of it.  Channel stats are summed into SimResult::dram by
 * aggregateResults().
 */
class DramModel {
  public:
    DramModel(u32 baseLatency, u32 cyclesPerTransaction)
        : baseLatency_(baseLatency),
          cyclesPerTransaction_(cyclesPerTransaction)
    {
    }

    /**
     * Issue a request of @p transactions segments at @p now.
     * @return completion cycle.
     */
    Cycle
    access(Cycle now, u32 transactions)
    {
        const Cycle start = std::max(now, nextFree_);
        nextFree_ = start + static_cast<Cycle>(transactions) *
                                cyclesPerTransaction_;
        ++stats_.requests;
        stats_.transactions += transactions;
        stats_.queueCycles += start - now;
        return nextFree_ + baseLatency_;
    }

    const DramStats &stats() const { return stats_; }

  private:
    u32 baseLatency_;
    u32 cyclesPerTransaction_;
    Cycle nextFree_ = 0;
    DramStats stats_;
};

/** Count distinct 128-byte segments touched by a set of addresses. */
u32 coalescedTransactions(const std::vector<u32> &byteAddrs);

/**
 * Allocation-free variant for per-cycle hot paths: dedupes segment ids
 * in @p scratch (clobbered; capacity reused across calls so the cost
 * is one reserve per Sm, not one allocation per memory instruction).
 */
u32 coalescedTransactions(const std::vector<u32> &byteAddrs,
                          std::vector<u32> &scratch);

} // namespace rfv

#endif // RFV_SIM_MEMORY_H
