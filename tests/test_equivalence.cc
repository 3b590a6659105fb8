/**
 * @file
 * Property-based architectural-equivalence tests.
 *
 * For seeded `gen:` kernels (divergence, loops, barriers, early exits,
 * memory traffic, shared-memory exchanges), the final global-memory
 * image must match the host reference interpreter word for word under:
 *   - baseline allocation,
 *   - compiler-guided virtualization (paper mode),
 *   - virtualization with aggressive in-divergence releases,
 *   - virtualization with a tight renaming-table budget (exempt regs),
 *   - GPU-shrink (half-size and tiny register files, throttle + spill),
 *   - hardware-only renaming.
 *
 * Every run goes through Simulator::runWorkload with verifyReleases
 * on: the runtime lifecycle lint traps any read of a released or
 * never-written register (and poisons released ones), and the
 * workload's verify() compares the whole output image with the
 * reference.  An unsafe release therefore fails loudly.
 */
#include <gtest/gtest.h>

#include "core/simulator.h"
#include "workloads/gen_workload.h"

namespace rfv {
namespace {

struct Mode {
    const char *label;
    RegFileMode mode;
    bool virtualize;
    bool aggressive;
    u32 rfBytes;
    u32 tableBytes; //!< 0 = unconstrained
    bool shared;    //!< also run by the shared-exchange suite
};

constexpr u32 kTinyRf = 8 * 1024;

const Mode kModes[] = {
    {"baseline", RegFileMode::kBaseline, false, false, 128 * 1024, 0,
     true},
    {"virtualized", RegFileMode::kVirtualized, true, false, 128 * 1024,
     0, true},
    {"virtualized-aggressive", RegFileMode::kVirtualized, true, true,
     128 * 1024, 0, true},
    {"virtualized-256B-table", RegFileMode::kVirtualized, true, false,
     128 * 1024, 256, false},
    {"gpu-shrink-64KB", RegFileMode::kVirtualized, true, false, 64 * 1024,
     0, false},
    {"gpu-shrink-8KB", RegFileMode::kVirtualized, true, false, kTinyRf, 0,
     true},
    {"hardware-only", RegFileMode::kHardwareOnly, false, false,
     128 * 1024, 0, true},
};

/** Run @p w under @p m, checked against the host reference. */
RunOutcome
runChecked(const Workload &w, const Mode &m)
{
    RunConfig cfg;
    cfg.label = m.label;
    cfg.mode = m.mode;
    cfg.virtualize = m.virtualize;
    cfg.aggressiveDiverged = m.aggressive;
    cfg.rfSizeBytes = m.rfBytes;
    cfg.renamingTableBytes = m.tableBytes;
    cfg.verifyReleases = true;
    cfg.numSms = 1;
    cfg.roundsPerSm = 0; // the spec's full grid
    RunOutcome out;
    try {
        out = Simulator(cfg).runWorkload(w);
    } catch (const std::exception &e) {
        ADD_FAILURE() << m.label << " on " << w.name() << ": " << e.what();
        return out;
    }
    EXPECT_EQ(out.sim.completedCtas, out.launch.gridCtas)
        << m.label << " on " << w.name();
    EXPECT_TRUE(out.verify.ok())
        << m.label << " on " << w.name() << ":\n" << out.verify.str();
    return out;
}

TEST(Equivalence, AllModesMatchTheHostReference)
{
    u64 tinySpills = 0, tinyThrottle = 0;
    for (u64 seed = 1; seed <= 40; ++seed) {
        GenSpec spec;
        spec.seed = seed;
        spec.regs = 10 + static_cast<u32>(seed % 9);
        spec.blocks = 5 + static_cast<u32>(seed % 4);
        spec.ctas = 3;
        spec.threadsPerCta = 96;
        spec.concCtasPerSm = 3;
        const auto w = makeGenWorkload(spec);
        for (const Mode &m : kModes) {
            const RunOutcome out = runChecked(*w, m);
            if (m.rfBytes == kTinyRf) {
                tinySpills += out.sim.spillEvents;
                tinyThrottle += out.sim.throttleActiveCycles;
            }
        }
    }
    // Coverage guard: the tiny file must actually drive the spill and
    // throttle paths, or this suite proves nothing about them.
    EXPECT_GT(tinySpills, 0u);
    EXPECT_GT(tinyThrottle, 0u);
}

/** Shared-memory exchange + barrier kernels (power-of-two CTAs). */
TEST(Equivalence, SharedExchangeModesMatchTheHostReference)
{
    for (u64 seed = 500; seed < 516; ++seed) {
        GenSpec spec;
        spec.seed = seed;
        spec.exchanges = true;
        spec.blocks = 64;
        spec.ctas = 2;
        spec.threadsPerCta = 64;
        spec.concCtasPerSm = 2;
        const auto w = makeGenWorkload(spec);

        const Program prog = w->buildKernel();
        bool sawShared = false;
        for (const Instr &ins : prog.code)
            sawShared |= ins.op == Opcode::kLdShared;
        EXPECT_TRUE(sawShared) << w->name() << " emits no shared load";

        for (const Mode &m : kModes)
            if (m.shared)
                runChecked(*w, m);
    }
}

} // namespace
} // namespace rfv
