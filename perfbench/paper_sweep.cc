/**
 * @file
 * paper_sweep: the paper's 80-job evaluation as a researcher runs it —
 * an in-process SweepEngine with 4 workers and a fresh, empty
 * result-cache directory for every sweep, repeated for the run's
 * seconds.  Gpu::run dominates job time, compile and spill-recompile
 * take most of the rest, and the cache sees only misses and stores.
 *
 * Untraced sweeps go through SweepEngine::run.  Traced sweeps drive
 * the same composition from outside — key + ResultCache::lookup,
 * SweepEngine::prepare, SweepEngine::executeLive, ResultCache::store,
 * ResultCache::drain on a WorkStealingPool — with a span around each
 * call, and alternate with untraced sweeps to measure the overhead.
 * After the drain a traced sweep looks every stored key up again, which
 * times the cache's hit path (a warm sweep's) outside the sweep's wall.
 */
#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "bench.h"
#include "common/thread_pool.h"
#include "service/hash.h"
#include "service/version.h"
#include "sim/gpu.h"
#include "stats.h"
#include "trace.h"
#include "workloads/workload.h"

namespace rfv::perfbench {
namespace {

constexpr u32 kWorkers = 4;
constexpr u32 kMinSweeps = 3;
/** Trace job ids: sweep * stride + job; then the drain; then replays. */
constexpr u64 kJobStride = 1000;

/** The result-cache key, derived as SweepEngine does before a lookup. */
Hash128
resultKeyFor(SweepEngine &engine, const SweepJob &job)
{
    const auto wl = findWorkload(job.workload);
    const GpuConfig gpu = Simulator(job.config).gpuConfig();
    const LaunchParams launch =
        wl->scaledLaunch(job.config.numSms, job.config.roundsPerSm);
    const auto input = engine.artifacts().inputProgram(
        wl->name(), [&wl]() { return wl->buildKernel(); });
    return resultKey(wl->name(), input->hash,
                     canonicalConfigHash(job.config, gpu), launch,
                     kSimulatorVersion);
}

/** Per-sweep figures of one traced sweep. */
struct TracedSweep {
    double wall = 0;
    double busy = 0;   //!< sum of job seconds
    double runS = 0;   //!< sum of Gpu::run seconds
    u64 smSteps = 0;   //!< SM step() calls actually executed
    u64 stepped = 0;   //!< loop cycles that stepped an SM
    u64 skipped = 0;   //!< loop cycles fast-forwarded
    u64 steals = 0;
    u64 parks = 0;
    ArtifactStore::Stats artifacts;
    ResultCache::Stats cache;
    u64 lookups = 0;
    u64 hits = 0;
};

TracedSweep
tracedSweep(const Options &opts, const std::vector<SweepJob> &jobs,
            u64 sweepIndex, Tracer &tracer,
            std::vector<RunOutcome> &outcomes, std::vector<char> &ok)
{
    const std::string dir = freshDir(opts, "sweep-cache");
    SweepOptions so;
    so.jobs = kWorkers;
    so.cacheDir = dir;
    SweepEngine engine(so);

    const u32 n = static_cast<u32>(jobs.size());
    std::vector<double> jobSeconds(n, 0), runSeconds(n, 0);
    std::vector<LoopStats> loops(n);
    std::vector<u32> numSms(n, 0);
    std::vector<char> hit(n, 0);
    std::vector<Hash128> keys(n);
    outcomes.assign(n, RunOutcome{});
    ok.assign(n, 0);

    TracedSweep t;
    const double w0 = benchNow(); // as SweepEngine::run: pool, jobs, drain
    WorkStealingPool pool(kWorkers);
    pool.run(n, [&](u32 i, u32 /*worker*/) {
        JobScope scope(&tracer, sweepIndex * kJobStride + i);
        const double j0 = benchNow();
        try {
            ScopedSpan root("job", Layer::kJob);
            const SweepJob &job = jobs[i];
            Hash128 key;
            {
                ScopedSpan s("cache.lookup", Layer::kCache);
                key = resultKeyFor(engine, job);
                hit[i] = engine.results().lookup(key).has_value();
            }
            PreparedJob p;
            {
                ScopedSpan s("artifacts.prepare", Layer::kArtifacts);
                p = engine.prepare(job);
            }
            {
                ScopedSpan s("sim.execute_live", Layer::kSim);
                outcomes[i] = engine.executeLive(p, &runSeconds[i]);
            }
            {
                ScopedSpan s("cache.store", Layer::kCache);
                engine.results().store(key, outcomes[i]);
            }
            keys[i] = key;
            loops[i] = outcomes[i].loop;
            numSms[i] = p.gpu.numSms;
            ok[i] = !hit[i] && p.key == key;
        } catch (const std::exception &) {
            ok[i] = 0;
        }
        jobSeconds[i] = benchNow() - j0;
    });
    {
        JobScope scope(&tracer, sweepIndex * kJobStride + n);
        ScopedSpan s("cache.drain", Layer::kCache);
        engine.results().drain();
    }
    t.wall = benchNow() - w0;

    // The warm path: every key the sweep stored, looked up again.
    for (u32 i = 0; i < n; ++i) {
        if (!ok[i])
            continue;
        JobScope scope(&tracer, sweepIndex * kJobStride + n + 1 + i);
        ScopedSpan s("cache.lookup_hit", Layer::kCache);
        if (!engine.results().lookup(keys[i]).has_value())
            ok[i] = 0;
    }

    for (u32 i = 0; i < n; ++i) {
        t.busy += jobSeconds[i];
        t.runS += runSeconds[i];
        t.stepped += loops[i].steppedCycles;
        t.skipped += loops[i].skippedCycles;
        t.smSteps += loops[i].steppedCycles * numSms[i] -
                     loops[i].smStepsElided;
        t.lookups += 1;
        t.hits += hit[i] ? 1 : 0;
    }
    t.steals = pool.steals();
    t.parks = pool.parks();
    t.artifacts = engine.artifacts().stats();
    t.cache = engine.results().stats();
    removeDir(dir);
    return t;
}

/** One untraced sweep through SweepEngine::run. */
double
untracedSweep(const Options &opts, const std::vector<SweepJob> &jobs,
              std::vector<double> &setupS, std::vector<double> &jobMs,
              std::vector<RunOutcome> &outcomes, std::vector<char> &ok)
{
    const std::string dir = freshDir(opts, "sweep-cache");
    double wall = 0;
    {
        const double s0 = benchNow();
        SweepOptions so;
        so.jobs = kWorkers;
        so.cacheDir = dir;
        SweepEngine engine(so);
        const double s1 = benchNow();
        std::vector<SweepJobResult> results = engine.run(jobs);
        wall = benchNow() - s1;
        setupS.push_back(s1 - s0);
        outcomes.clear();
        ok.clear();
        for (SweepJobResult &r : results) {
            jobMs.push_back(r.seconds * 1e3);
            ok.push_back(r.ok() && !r.fromCache);
            outcomes.push_back(std::move(r.outcome));
        }
    }
    removeDir(dir);
    return wall;
}

} // namespace

RunReport
runPaperSweep(const Options &opts)
{
    RunReport rep;
    const std::vector<ServiceRequest> reqs = paperRequests();
    std::vector<SweepJob> jobs;
    for (const ServiceRequest &r : reqs)
        jobs.push_back(toJob(r));
    const size_t n = jobs.size();

    Tracer tracer;
    std::vector<double> setupS, jobMs, untracedWall, tracedWall;
    std::vector<TracedSweep> traced;
    std::vector<RunOutcome> first, outcomes;
    std::vector<char> ok;

    // Every sweep's outcomes must equal the first sweep's, which is
    // checked against the serial reference once timing is over.
    const auto check = [&](const std::vector<RunOutcome> &outs,
                           const std::vector<char> &okFlags) {
        for (size_t i = 0; i < n; ++i)
            rep.count(okFlags[i] &&
                      (first.empty() || outs[i] == first[i]));
        if (first.empty())
            first = outs;
    };

    const double t0 = benchNow();
    for (u64 sweep = 0;
         sweep < kMinSweeps || benchNow() - t0 < opts.seconds; ++sweep) {
        if (opts.trace && sweep % 2 == 1) {
            traced.push_back(tracedSweep(opts, jobs, traced.size(), tracer,
                                         outcomes, ok));
            tracedWall.push_back(traced.back().wall);
        } else {
            untracedWall.push_back(untracedSweep(opts, jobs, setupS, jobMs,
                                                 outcomes, ok));
        }
        check(outcomes, ok);
    }
    const double rss = peakRssMb();

    const std::vector<RunOutcome> reference = serialReference(reqs);
    for (size_t i = 0; i < n; ++i)
        if (!(first[i] == reference[i])) {
            rep.mismatch();
            rep.note("MISMATCH vs serial reference: " + reqs[i].workload +
                     " / " + reqs[i].configName);
        }
    addFidelity(first, rep);

    std::vector<double> rates;
    for (double w : untracedWall)
        rates.push_back(static_cast<double>(n) / w);
    const double jobsPerS = median(rates);
    rep.endToEnd["jobs_per_s"] = jobsPerS;
    rep.endToEnd["max_rate_rps"] = jobsPerS;
    rep.endToEnd["rpc_p50_ms"] = windowedPercentile(jobMs, 0.50);
    rep.endToEnd["rpc_p99_ms"] = windowedPercentile(jobMs, 0.99);
    rep.endToEnd["setup_s"] = median(setupS);
    rep.endToEnd["peak_rss_mb"] = rss;
    rep.record.push_back({"manifest_jobs", std::to_string(n)});
    rep.record.push_back({"workers", std::to_string(kWorkers)});
    rep.record.push_back(
        {"untraced_sweeps", std::to_string(untracedWall.size())});
    rep.record.push_back({"job_latency_samples",
                          std::to_string(jobMs.size())});
    if (jobMs.size() < kLatencyWindow)
        rep.note("rpc_p50_ms/rpc_p99_ms: fewer than 1000 job samples (" +
                 std::to_string(jobMs.size()) + "); not reportable");

    if (!opts.trace)
        return rep;

    // ---- per-layer metrics from the traced sweeps ---------------------
    auto &pl = rep.perLayer;
    std::vector<double> runS, busy, tail, steals, parks;
    u64 smSteps = 0, stepped = 0, skipped = 0;
    double runTotal = 0;
    for (const TracedSweep &t : traced) {
        runS.push_back(t.runS);
        runTotal += t.runS;
        smSteps += t.smSteps;
        stepped += t.stepped;
        skipped += t.skipped;
        busy.push_back(t.busy / (kWorkers * t.wall));
        tail.push_back((t.wall - t.busy / kWorkers) * 1e3);
        steals.push_back(static_cast<double>(t.steals));
        parks.push_back(static_cast<double>(t.parks));
    }
    pl["sim.run_s"] = median(runS);
    pl["sim.ns_per_sm_step"] =
        smSteps ? runTotal * 1e9 / static_cast<double>(smSteps) : 0;
    pl["sim.skipped_cycle_frac"] =
        stepped + skipped ? static_cast<double>(skipped) /
                                static_cast<double>(stepped + skipped)
                          : 0;

    std::vector<double> prepareMs;
    for (double d : tracer.durations("artifacts.prepare"))
        prepareMs.push_back(d * 1e3);
    pl["artifacts.prepare_ms_p50"] = percentile(prepareMs, 0.50);
    pl["artifacts.prepare_ms_p99"] = reportedPercentile(prepareMs, 0.99);
    const ArtifactStore::Stats &a = traced.back().artifacts;
    pl["artifacts.compiles_built"] = static_cast<double>(a.compilesBuilt);
    pl["artifacts.reuse_frac"] =
        static_cast<double>(a.compilesReused) /
        static_cast<double>(std::max<u64>(1, a.compilesBuilt +
                                                 a.compilesReused));

    const auto us = [&](const char *name) {
        std::vector<double> v;
        for (double d : tracer.durations(name))
            v.push_back(d * 1e6);
        return v;
    };
    const std::vector<double> hitUs = us("cache.lookup_hit");
    pl["cache.hit_us_p50"] = percentile(hitUs, 0.50);
    pl["cache.hit_us_p99"] = reportedPercentile(hitUs, 0.99);
    pl["cache.miss_us"] = median(us("cache.lookup"));
    pl["cache.store_us"] = median(us("cache.store"));
    pl["cache.drain_ms"] = median(us("cache.drain")) / 1e3;
    u64 lookups = 0, hits = 0, drops = 0, evictions = 0;
    for (const TracedSweep &t : traced) {
        lookups += t.lookups;
        hits += t.hits;
        drops += t.cache.writeBehindDrops;
        evictions += t.cache.evictions;
    }
    pl["cache.hit_frac"] =
        lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                : 0;
    pl["cache.write_behind_drops"] = static_cast<double>(drops);
    pl["cache.evictions"] = static_cast<double>(evictions);

    pl["sweep.busy_frac"] = median(busy);
    pl["sweep.tail_ms"] = median(tail);
    pl["sweep.steals"] = median(steals);
    pl["sweep.parks"] = median(parks);

    pl["ledger.other_frac"] = tracer.otherFrac();
    noteSelfTimes(tracer, rep);
    pl["trace.overhead_frac"] =
        median(tracedWall) / median(untracedWall) - 1.0;
    rep.record.push_back({"traced_sweeps", std::to_string(traced.size())});
    rep.record.push_back(
        {"prepare_samples", std::to_string(prepareMs.size())});

    const std::string path = opts.outDir + "/trace-paper_sweep-seed" +
                             std::to_string(opts.seed) + ".json";
    if (!tracer.writeChromeTrace(path, kJobStride))
        throw std::runtime_error("cannot write " + path);
    rep.note("trace: " + path + " (first traced sweep)");
    return rep;
}

} // namespace rfv::perfbench
