/**
 * @file
 * The library's front door: compile a kernel for a RunConfig, execute
 * it on the simulated GPU, and return performance + energy results.
 */
#ifndef RFV_CORE_SIMULATOR_H
#define RFV_CORE_SIMULATOR_H

#include "analysis/verifier.h"
#include "compiler/pipeline.h"
#include "core/run_config.h"
#include "power/energy_model.h"
#include "workloads/workload.h"

namespace rfv {

/** Everything one run produces. */
struct RunOutcome {
    std::string workload;
    std::string configLabel;
    LaunchParams launch;
    CompileStats compile;
    SimResult sim;
    LoopStats loop; //!< cycle-loop accounting (skipped vs stepped)
    EnergyBreakdown energy;

    /** True when RunConfig::verifyReleases ran the static verifier. */
    bool verified = false;
    VerifyResult verify;

    /**
     * Field-wise equality over every payload field, including energy
     * doubles and verifier diagnostics: the memoized-replay contract
     * of the batch engine (a cache hit must be indistinguishable from
     * a live run).
     */
    bool operator==(const RunOutcome &) const = default;
};

/**
 * Facade over the compile pipeline, the GPU model and the energy
 * model.
 *
 * @code
 *   Simulator sim(RunConfig::gpuShrink(50));
 *   RunOutcome out = sim.runWorkload(*findWorkload("MatrixMul"));
 *   std::cout << out.sim.cycles << " cycles, "
 *             << out.energy.totalJ() << " J\n";
 * @endcode
 */
class Simulator {
  public:
    explicit Simulator(RunConfig cfg);

    const RunConfig &config() const { return cfg_; }

    /** Machine configuration derived from the RunConfig. */
    GpuConfig gpuConfig() const;

    /**
     * Compiler options for a kernel that will run with
     * @p residentWarps warp contexts per SM.
     */
    CompileOptions compileOptions(u32 residentWarps) const;

    /**
     * Warp contexts per SM the compiler plans @p launch for: warps per
     * CTA times the CTAs an SM holds at once.  (The SM's own slot
     * count also caps by maxWarpsPerSm; compiled programs key on this
     * one.)
     */
    u32 residentWarps(const LaunchParams &launch) const;

    /** Run a registered workload (scaled launch, setup + verify). */
    RunOutcome runWorkload(const Workload &workload,
                           TraceHooks hooks = {}) const;

    /** Run an arbitrary kernel on caller-managed memory. */
    RunOutcome runProgram(const Program &input,
                          const LaunchParams &launch, GlobalMemory &mem,
                          TraceHooks hooks = {}) const;

    /**
     * Per-warp register budget for the compiler-spill baseline: the
     * largest footprint whose full occupancy fits the configured file
     * (0 = the kernel already fits, no spilling needed).
     */
    u32 spillBudget(u32 kernelRegs, const LaunchParams &launch) const;

  private:
    RunConfig cfg_;
};

} // namespace rfv

#endif // RFV_CORE_SIMULATOR_H
