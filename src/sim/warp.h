/**
 * @file
 * Warp scheduling enums shared by the SoA warp table and the SM.
 *
 * The per-warp execution state itself lives in WarpTable
 * (sim/warp_table.h) as structure-of-arrays: the old array-of-structs
 * `Warp` object was the SM hot path's main source of pointer-chasing
 * (every issue attempt touched a ~200-byte object with an embedded
 * SimtStack vector), so the fields every cycle reads were split into
 * packed parallel arrays and per-SM bitmasks.
 */
#ifndef RFV_SIM_WARP_H
#define RFV_SIM_WARP_H

#include "common/types.h"

namespace rfv {

/**
 * Which scheduler container currently holds the warp.  Exactly one
 * container may hold a warp at a time; the enum makes membership an
 * O(1) check instead of a queue scan and lets the event-driven loop
 * reason about which warps can generate wakeup events:
 *  - kReady/kPending: the two-level scheduler queues (runnable or
 *    short-blocked warps).
 *  - kSleeping: asleep in the SM's sleeper set until its wake key
 *    (the blockedUntil cycle it fell asleep with) comes due — a
 *    long-latency stall with a known end.
 *  - kBarrier: parked until the CTA barrier releases.
 *  - kParked: parked by the CTA throttle until the throttle signature
 *    (active flag, chosen CTA) changes.
 *  - kNone: invalid or finished.
 */
enum class WarpLoc : u8 {
    kNone,
    kReady,
    kPending,
    kSleeping,
    kBarrier,
    kParked,
};

} // namespace rfv

#endif // RFV_SIM_WARP_H
