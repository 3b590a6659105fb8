/**
 * @file
 * Per-phase wall-clock breakdown of the simulation loop.
 *
 * When a LoopProfile is installed via TraceHooks::loopProfile, one in
 * kLoopProfileSampleEvery Sm::step() calls attributes its wall-clock
 * time to four phases —
 * fetch (icache + metadata decode), schedule (queue maintenance,
 * scoreboard/alloc checks, throttle), execute (functional SIMT lane
 * execution + timing), commit (post-issue normalization, sampling,
 * atomic commit) — so a speedup claim about the hot loop can say
 * *which* phase got faster instead of quoting one aggregate number.
 * Sampling keeps the clock reads from distorting what they measure:
 * timing every step roughly doubled the step's cost.
 * Profiles are per-Sm and summed by Gpu::run() when the run ends.
 */
#ifndef RFV_SIM_LOOP_PROFILER_H
#define RFV_SIM_LOOP_PROFILER_H

#include <chrono>
#include <cstdio>
#include <string>

#include "common/types.h"

namespace rfv {

/** Sm::step() calls per timed step. */
inline constexpr u64 kLoopProfileSampleEvery = 64;

/** Accumulated per-phase wall-clock cost of the simulation loop. */
struct LoopProfile {
    u64 steps = 0;      //!< Sm::step() calls while profiling
    u64 timedSteps = 0; //!< the sampled steps the buckets below cover
    u64 fetchNs = 0;    //!< icache access + pir/pbr metadata decode
    u64 scheduleNs = 0; //!< queues, masks, scoreboard/alloc/throttle
    u64 executeNs = 0;  //!< functional lane execution + timing model
    u64 commitNs = 0;   //!< normalization, sampling, atomic commit

    u64
    totalNs() const
    {
        return fetchNs + scheduleNs + executeNs + commitNs;
    }

    LoopProfile &
    operator+=(const LoopProfile &o)
    {
        steps += o.steps;
        timedSteps += o.timedSteps;
        fetchNs += o.fetchNs;
        scheduleNs += o.scheduleNs;
        executeNs += o.executeNs;
        commitNs += o.commitNs;
        return *this;
    }
};

/** Monotonic wall-clock in nanoseconds. */
inline u64
profileNowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Accumulates the enclosing scope's duration into @p acc; pass
 * nullptr to compile down to nothing when profiling is off.
 */
class ScopedNs {
  public:
    explicit ScopedNs(u64 *acc)
        : acc_(acc), t0_(acc ? profileNowNs() : 0)
    {
    }
    ~ScopedNs()
    {
        if (acc_ != nullptr)
            *acc_ += profileNowNs() - t0_;
    }
    ScopedNs(const ScopedNs &) = delete;
    ScopedNs &operator=(const ScopedNs &) = delete;

  private:
    u64 *acc_;
    u64 t0_;
};

/** Render the breakdown as an aligned table (ns/step and % of step). */
inline std::string
formatLoopProfile(const LoopProfile &p)
{
    const u64 total = p.totalNs();
    if (p.timedSteps == 0 || total == 0)
        return "  (no stepped cycles profiled)\n";
    const auto row = [&](const char *name, u64 ns) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "  %-9s %10.1f ns/step  %5.1f%%\n",
                      name, static_cast<double>(ns) /
                                static_cast<double>(p.timedSteps),
                      100.0 * static_cast<double>(ns) /
                          static_cast<double>(total));
        return std::string(buf);
    };
    return row("fetch", p.fetchNs) + row("schedule", p.scheduleNs) +
           row("execute", p.executeNs) + row("commit", p.commitNs) +
           row("total", total);
}

} // namespace rfv

#endif // RFV_SIM_LOOP_PROFILER_H
