/**
 * @file
 * Per-warp SIMT reconvergence stack (PDOM scheme).
 *
 * Entries carry (pc, reconvergence pc, active mask).  On a divergent
 * branch the current entry is re-pointed at the reconvergence pc and
 * one entry per side is pushed; an entry whose pc reaches its rpc is
 * popped, merging lanes back.
 */
#ifndef RFV_SIM_SIMT_STACK_H
#define RFV_SIM_SIMT_STACK_H

#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace rfv {

/** One reconvergence stack frame. */
struct SimtEntry {
    u32 pc = 0;
    u32 rpc = kInvalidPc;
    u32 mask = 0;
};

/**
 * The reconvergence stack of one warp.  The executing frame lives
 * inline (every issue attempt reads its pc), the frames below it in a
 * vector that stays empty until the warp diverges.  Every frame has a
 * nonzero mask, so an empty top mask means every lane has exited.
 */
class SimtStack {
  public:
    /** Reset for a fresh warp with @p initialMask active lanes. */
    void reset(u32 initialMask);

    /** True once every lane has exited. */
    bool done() const { return top_.mask == 0; }

    /** Current fetch pc. */
    u32
    pc() const
    {
        panicIf(done(), "pc of a finished warp");
        return top_.pc;
    }

    /** Current active mask. */
    u32
    activeMask() const
    {
        panicIf(done(), "mask of a finished warp");
        return top_.mask;
    }

    /** Sequentially advance to @p nextPc (merges at reconvergence). */
    void
    advance(u32 nextPc)
    {
        panicIf(done(), "advance of a finished warp");
        top_.pc = nextPc;
        mergeAtReconvergence();
    }

    /**
     * Take a (possibly divergent) branch.  @p takenMask must be a
     * subset of the active mask; @p rpc is the compiler-provided
     * reconvergence pc (kInvalidPc when the paths never reconverge
     * before exit, in which case lanes simply run to exit).
     */
    void branch(u32 takenPc, u32 fallPc, u32 takenMask, u32 rpc);

    /** Retire @p mask lanes (exit); drops empty frames. */
    void exitLanes(u32 mask);

    /** Current stack depth (tests/debug). */
    u32
    depth() const
    {
        return done() ? 0 : static_cast<u32>(below_.size()) + 1;
    }

  private:
    void
    pop()
    {
        if (below_.empty()) {
            top_ = SimtEntry{};
            return;
        }
        top_ = below_.back();
        below_.pop_back();
    }
    void
    mergeAtReconvergence()
    {
        while (!done() && top_.pc == top_.rpc && top_.rpc != kInvalidPc)
            pop();
    }

    SimtEntry top_;                //!< executing frame; mask 0 = done
    std::vector<SimtEntry> below_; //!< suspended frames, bottom first
};

} // namespace rfv

#endif // RFV_SIM_SIMT_STACK_H
