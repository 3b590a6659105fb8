/**
 * @file
 * Top-level run configurations: the experiment matrix of the paper.
 */
#ifndef RFV_CORE_RUN_CONFIG_H
#define RFV_CORE_RUN_CONFIG_H

#include <string>

#include "sim/sim_config.h"

namespace rfv {

/**
 * Everything that defines one system configuration under test:
 * the register-file mode and size, compiler behaviour, power gating,
 * and machine scale.
 */
struct RunConfig {
    std::string label = "baseline-128KB";

    RegFileMode mode = RegFileMode::kBaseline;
    bool virtualize = false;          //!< compile with release metadata
    u32 rfSizeBytes = 128 * 1024;
    bool powerGating = false;
    u32 wakeupLatency = 1;
    u32 flagCacheEntries = 10;
    u32 renamingTableBytes = 1024;    //!< 0 = unconstrained
    bool aggressiveDiverged = false;
    bool bankRestricted = true;

    /**
     * Compiler-spill baseline: recompile the kernel to fit the file.
     * 0 = off; otherwise the per-warp register budget is derived from
     * the file size and occupancy at run time.
     */
    bool compilerSpill = false;

    /**
     * Verification mode: run the static release-flag soundness
     * verifier over the compiled program and enable the runtime
     * register-lifecycle lint (poisoned frees, trapped reads of
     * released/never-written registers).  Diagnostics land in
     * RunOutcome::verify and the report output.
     */
    bool verifyReleases = false;

    u32 numSms = 4;
    u32 roundsPerSm = 3; //!< grid scaling (0 = full Table-1 grid)

    /**
     * Event-driven cycle loop with fast-forward over quiescent
     * windows (default).  Results are bit-identical to the naive
     * step-every-cycle loop, TraceHooks included; disable to use the
     * naive loop as the equivalence oracle.
     */
    bool eventDriven = true;

    // ---- Named configurations of the paper -----------------------------

    /** Classic 128 KB register file. */
    static RunConfig baseline();

    /** This paper: virtualization on a full-size file. */
    static RunConfig virtualized(bool gating = false);

    /** GPU-shrink: virtualization on an under-provisioned file. */
    static RunConfig gpuShrink(u32 shrinkPct, bool gating = false);

    /** Compiler-spill comparison at a reduced file size. */
    static RunConfig compilerSpillShrink(u32 shrinkPct);

    /** Hardware-only renaming (patent [46]). */
    static RunConfig hardwareOnly(bool gating = false);
};

} // namespace rfv

#endif // RFV_CORE_RUN_CONFIG_H
