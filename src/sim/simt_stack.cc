#include "sim/simt_stack.h"

#include "common/error.h"

namespace rfv {

void
SimtStack::reset(u32 initial_mask)
{
    below_.clear();
    top_ = {0, kInvalidPc, initial_mask};
}

void
SimtStack::branch(u32 taken_pc, u32 fall_pc, u32 taken_mask, u32 rpc)
{
    panicIf(done(), "branch of a finished warp");
    const u32 active = top_.mask;
    panicIf((taken_mask & ~active) != 0,
            "taken mask exceeds the active mask");
    const u32 fall_mask = active & ~taken_mask;

    if (fall_mask == 0) {
        advance(taken_pc);
        return;
    }
    if (taken_mask == 0) {
        advance(fall_pc);
        return;
    }

    // Divergence: current frame becomes the reconvergence continuation.
    top_.pc = rpc;
    // If the compiler could not find a reconvergence point (both sides
    // run to exit), there is no continuation frame to keep.
    if (rpc == kInvalidPc)
        pop();
    if (!done())
        below_.push_back(top_);
    below_.push_back({fall_pc, rpc, fall_mask});
    top_ = {taken_pc, rpc, taken_mask};
    // A side whose entry pc is already the reconvergence point (e.g. a
    // branch straight to the join block) merges immediately; executing
    // it with a partial mask would run the join — and its pbr releases
    // — before the other side.
    mergeAtReconvergence();
}

void
SimtStack::exitLanes(u32 mask)
{
    // Drop emptied frames wherever they are; order among survivors is
    // preserved.
    for (auto &entry : below_)
        entry.mask &= ~mask;
    std::erase_if(below_, [](const SimtEntry &e) { return e.mask == 0; });
    top_.mask &= ~mask;
    if (top_.mask == 0)
        pop();
    mergeAtReconvergence();
}

} // namespace rfv
