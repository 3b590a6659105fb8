/**
 * @file
 * Batch simulation engine: execute a manifest of (workload, RunConfig)
 * jobs on a work-stealing scheduler, sharing immutable per-program
 * artifacts and memoizing results.
 *
 * Layering per job:
 *
 *   ResultCache hit?  -> replay the stored RunOutcome (bit-identical)
 *   else              -> ArtifactStore supplies the assembled program,
 *                        compiled kernel, verify result and DecodeCache
 *                        (each built once per unique content), the job
 *                        runs its own Gpu + GlobalMemory, and the
 *                        outcome is stored for next time.
 *
 * Per-job results are bit-identical to Simulator::runWorkload under
 * any --jobs value and any manifest order (tests/
 * test_sweep_determinism.cc): jobs share only immutable artifacts,
 * every mutable structure (memory, SMs, DRAM channels) is private to
 * a job, and the inner cycle loop is untouched.
 */
#ifndef RFV_SERVICE_SWEEP_H
#define RFV_SERVICE_SWEEP_H

#include <algorithm>
#include <atomic>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "service/artifact_store.h"
#include "service/result_cache.h"
#include "service/status.h"
#include "workloads/workload.h"

namespace rfv {

/** One manifest entry. */
struct SweepJob {
    std::string workload;
    RunConfig config;
};

/**
 * One finished job.  A job never aborts the batch: failures (unknown
 * workload, invalid configuration, simulator panic) land here as a
 * structured (status, error) pair and the rest of the sweep proceeds.
 */
struct SweepJobResult {
    SweepJob job;
    ServiceStatus status = ServiceStatus::kOk;
    std::string error;   //!< diagnostic when status != kOk
    RunOutcome outcome;  //!< valid only when ok()
    bool fromCache = false;
    double seconds = 0;  //!< end-to-end job wall time (hit: lookup time)
    std::string key;     //!< result-cache key (hex)

    bool ok() const { return status == ServiceStatus::kOk; }
};

/**
 * The sweep CSV every sweep driver writes: csvHeader() plus
 * `from_cache,seconds`, one row per ok() result in @p results order.
 * Only those last two columns depend on the transport, so local,
 * served and routed sweeps diff bit-for-bit once they are stripped.
 */
void writeSweepCsv(std::ostream &os,
                   const std::vector<SweepJobResult> &results);

/** Engine-level counters for one run() call. */
struct SweepStats {
    Counter jobsTotal;
    Counter jobsRun;       //!< simulated live
    Counter jobsCached;    //!< replayed from the result cache
    Counter jobsFailed;    //!< finished with a structured error
    Counter jobsCancelled; //!< skipped because the sweep was interrupted
    ArtifactStore::Stats artifacts;
    ResultCache::Stats cache;
    Counter steals; //!< jobs executed by a non-owning worker
    Counter parks;  //!< scheduler idle-parking events
    Counter aggregateCycles; //!< simulated cycles over all jobs
    Counter aggregateInstrs; //!< issued warp instructions over all jobs
    double wallSeconds = 0;

    double
    cyclesPerSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(aggregateCycles) / wallSeconds
                   : 0.0;
    }

    /**
     * Fraction of *attempted* jobs served from the result cache.
     * Cancelled jobs never reach the cache at all, so they are
     * excluded from the denominator — a SIGINT-interrupted warm sweep
     * reports the hit rate of the work it actually did instead of
     * deflating toward zero (and spuriously failing
     * `run_sweep --expect-hit-rate`).
     */
    double
    hitRate() const
    {
        const u64 attempted =
            jobsTotal - std::min<u64>(jobsCancelled, jobsTotal);
        return attempted ? static_cast<double>(jobsCached) /
                               static_cast<double>(attempted)
                         : 0.0;
    }

    /** `run_sweep --json` order; the ratios are member functions. */
    template <class Fn>
    static void
    fields(Fn &&fn)
    {
        fn("jobs_total", &SweepStats::jobsTotal);
        fn("jobs_run", &SweepStats::jobsRun);
        fn("jobs_cached", &SweepStats::jobsCached);
        fn("jobs_failed", &SweepStats::jobsFailed);
        fn("jobs_cancelled", &SweepStats::jobsCancelled);
        fn("hit_rate", &SweepStats::hitRate);
        fn("steals", &SweepStats::steals);
        fn("parks", &SweepStats::parks);
        fn("artifacts", &SweepStats::artifacts);
        fn("cache", &SweepStats::cache);
        fn("aggregate_cycles", &SweepStats::aggregateCycles);
        fn("aggregate_instrs", &SweepStats::aggregateInstrs);
        fn("wall_seconds", &SweepStats::wallSeconds);
        fn("cycles_per_sec", &SweepStats::cyclesPerSec);
    }

    /** Human-readable multi-line block for CLI reports. */
    std::string summary() const;
};

struct SweepOptions {
    /** Total worker threads including the caller (>= 1). */
    u32 jobs = 1;

    /** Result-cache directory; "" keeps memoization in-memory only. */
    std::string cacheDir;

    /** false = always simulate live, neither read nor write results. */
    bool useCache = true;

    /** Memory-tier byte budget for the result cache (0 = unbounded). */
    u64 cacheMemoryBudget = 256ull << 20;

    /**
     * Cooperative interruption: when non-null and set, jobs that have
     * not started are finished as kCancelled (in-flight jobs complete
     * and publish normally, so the cache is never torn).
     */
    const std::atomic<bool> *cancel = nullptr;
};

/**
 * Everything needed to execute one job, with all shared artifacts
 * resolved.  Exposed so measurement harnesses (bench/trajectory) can
 * drive the engine's artifact path while owning their own timing.
 */
struct PreparedJob {
    SweepJob job;
    GpuConfig gpu;
    LaunchParams launch;
    std::shared_ptr<Workload> workload;
    std::shared_ptr<const InputArtifact> input;
    std::shared_ptr<const CompiledArtifact> compiled;
    std::shared_ptr<const VerifyResult> verify; //!< null unless verifying
    std::shared_ptr<const DecodeArtifact> decode;
    Hash128 key; //!< result-cache key
};

class SweepEngine {
  public:
    explicit SweepEngine(SweepOptions opts = {});

    /**
     * Execute every job of @p manifest; results are returned in
     * manifest order regardless of scheduling.  Per-job failures are
     * reported in the corresponding SweepJobResult (status, error) —
     * a bad job never aborts the batch.
     */
    std::vector<SweepJobResult> run(const std::vector<SweepJob> &manifest);

    /**
     * Execute one job end to end — cache lookup, live run, store —
     * returning a structured result.  Never throws; safe to call from
     * any thread (the daemon's executors call this concurrently).
     */
    SweepJobResult execute(const SweepJob &job);

    /** Counters of the most recent run() (plus store/cache totals). */
    const SweepStats &stats() const { return stats_; }

    // NOTE on thread-safety: run() and stats() belong to one driving
    // thread (the CLI or a test); only execute() and prepare() are
    // safe to call concurrently (the daemon's executors do).

    /** Resolve all shared artifacts for one job (thread-safe). */
    PreparedJob prepare(const SweepJob &job);

    /**
     * The result-cache key of running @p config on @p wl.  Only the
     * assembled program and the config feed it, so nothing is
     * compiled, verified or decoded (thread-safe).
     */
    Hash128 resultKeyOf(const Workload &wl, const RunConfig &config);

    /**
     * Run one prepared job live (no cache).  @p runSeconds, when
     * non-null, receives the wall time of Gpu::run() alone.
     */
    RunOutcome executeLive(const PreparedJob &p,
                           double *runSeconds = nullptr) const;

    ArtifactStore &artifacts() { return store_; }
    ResultCache &results() { return cache_; }
    const ResultCache &results() const { return cache_; }

  private:
    SweepJobResult runOne(const SweepJob &job);

    SweepOptions opts_;
    ArtifactStore store_;
    ResultCache cache_;
    SweepStats stats_; //!< owned by the run() caller thread (see above)
};

} // namespace rfv

#endif // RFV_SERVICE_SWEEP_H
