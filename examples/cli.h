/**
 * @file
 * Helpers shared by the example CLIs.  Every integer flag is read with
 * parseCanonical (common/decimal.h); a value it refuses prints
 * `unparsable value in <flag>` and exits 2.  This header adds the cap
 * on thread counts, the one fractional flag, the `--csv=`/`--json=`
 * output opener and the SIGINT/SIGTERM handler of the sweep drivers.
 */
#ifndef RFV_EXAMPLES_CLI_H
#define RFV_EXAMPLES_CLI_H

#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/decimal.h"

namespace rfv {

/**
 * Largest value of a thread-count flag (`--jobs`, `--executors`).
 * Anything above it is refused before a pool or thread is built, so
 * `--jobs=-1` cannot ask for 2^32 workers.
 */
constexpr u64 kMaxWorkers = 256;

/** `--expect-hit-rate`: a full-field decimal, finite, in [0, 1]. */
inline bool
parseHitRate(std::string_view text, double &out)
{
    double v = 0;
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last || !std::isfinite(v) || v < 0 ||
        v > 1)
        return false;
    out = v;
    return true;
}

/** Open output @p spec into @p file, or std::cout when it is "-". */
inline std::ostream &
openOut(const std::string &spec, std::ofstream &file)
{
    if (spec == "-")
        return std::cout;
    file.open(spec, std::ios::trunc);
    if (!file)
        throw std::runtime_error("cannot write " + spec);
    return file;
}

/**
 * Cooperative interruption of the sweep drivers: the first SIGINT or
 * SIGTERM after installInterruptHandlers() sets gInterrupted (in-flight
 * jobs finish, pending ones end as CANCELLED, exit 130) and restores
 * the default action, so a second one ends the process even while a
 * job or a request never returns.
 */
inline std::atomic<bool> gInterrupted{false};

inline void
onInterrupt(int)
{
    gInterrupted.store(true);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
}

inline void
installInterruptHandlers()
{
    std::signal(SIGINT, onInterrupt);
    std::signal(SIGTERM, onInterrupt);
}

} // namespace rfv

#endif // RFV_EXAMPLES_CLI_H
