#include "service/sweep.h"

#include <chrono>
#include <functional>
#include <sstream>
#include <type_traits>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/report.h"
#include "core/simulator.h"
#include "service/version.h"
#include "sim/gpu.h"

namespace rfv {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

ResultCacheOptions
cacheOptions(const SweepOptions &opts)
{
    ResultCacheOptions c;
    c.dir = opts.useCache ? opts.cacheDir : "";
    c.memoryBudgetBytes = opts.cacheMemoryBudget;
    return c;
}

/**
 * One `label: name=value ...` line of @p s's scalar fields, then one
 * such line per nested stats struct, labelled by its walk name.
 */
template <class S>
void
writeSummaryLines(std::ostream &os, const char *label, const S &s)
{
    std::ostringstream nested;
    os << "\n" << label << ":";
    S::fields([&](const char *name, auto field) {
        const auto &v = std::invoke(field, s);
        using V = std::decay_t<decltype(v)>;
        if constexpr (std::is_class_v<V> && !std::is_same_v<V, Counter>)
            writeSummaryLines(nested, name, v);
        else
            os << ' ' << name << '=' << v;
    });
    os << nested.str();
}

} // namespace

void
writeSweepCsv(std::ostream &os, const std::vector<SweepJobResult> &results)
{
    os << csvHeader() << ",from_cache,seconds\n";
    for (const SweepJobResult &r : results)
        if (r.ok())
            os << csvRow(r.outcome) << "," << (r.fromCache ? 1 : 0) << ","
               << r.seconds << "\n";
}

std::string
SweepStats::summary() const
{
    std::ostringstream os;
    os << "sweep: " << jobsTotal << " jobs (" << jobsRun << " run, "
       << jobsCached << " cached, hit rate "
       << static_cast<int>(hitRate() * 100 + 0.5) << "%";
    if (jobsFailed)
        os << ", " << jobsFailed << " failed";
    if (jobsCancelled)
        os << ", " << jobsCancelled << " cancelled";
    os << ")";
    writeSummaryLines(os, "counters", *this);
    return os.str();
}

SweepEngine::SweepEngine(SweepOptions opts)
    : opts_(std::move(opts)), cache_(cacheOptions(opts_))
{
}

PreparedJob
SweepEngine::prepare(const SweepJob &job)
{
    PreparedJob p;
    p.job = job;
    p.workload = findWorkload(job.workload);

    const Simulator sim(job.config);
    p.gpu = sim.gpuConfig();
    p.launch = p.workload->scaledLaunch(job.config.numSms,
                                        job.config.roundsPerSm);

    const Workload &wl = *p.workload;
    p.input = store_.inputProgram(
        wl.name(), [&wl]() { return wl.buildKernel(); });
    p.key = resultKey(wl.name(), p.input->hash,
                      canonicalConfigHash(job.config, p.gpu), p.launch,
                      kSimulatorVersion);

    CompileOptions copts = sim.compileOptions(sim.residentWarps(p.launch));
    if (job.config.compilerSpill)
        copts.spillRegBudget =
            sim.spillBudget(p.input->program.numRegs, p.launch);

    p.compiled = store_.compiled(p.input, copts);
    if (job.config.verifyReleases)
        p.verify = store_.verifyFor(p.compiled);
    p.decode = store_.decode(p.compiled, p.gpu);
    return p;
}

Hash128
SweepEngine::resultKeyOf(const Workload &wl, const RunConfig &config)
{
    const GpuConfig gpu = Simulator(config).gpuConfig();
    const LaunchParams launch =
        wl.scaledLaunch(config.numSms, config.roundsPerSm);
    const auto input = store_.inputProgram(
        wl.name(), [&wl]() { return wl.buildKernel(); });
    return resultKey(wl.name(), input->hash,
                     canonicalConfigHash(config, gpu), launch,
                     kSimulatorVersion);
}

RunOutcome
SweepEngine::executeLive(const PreparedJob &p, double *runSeconds) const
{
    const RunConfig &cfg = p.job.config;

    RunOutcome out;
    out.workload = p.workload->name();
    out.configLabel = cfg.label;
    out.launch = p.launch;
    out.compile = p.compiled->kernel.stats;
    if (p.verify) {
        out.verified = true;
        out.verify = *p.verify;
    }

    GlobalMemory mem(p.workload->memoryBytes(p.launch));
    p.workload->setup(mem, p.launch);

    Gpu machine(p.gpu, p.compiled->kernel.program, p.launch, mem, {},
                &p.decode->cache);
    const auto t0 = std::chrono::steady_clock::now();
    out.sim = machine.run();
    if (runSeconds)
        *runSeconds = secondsSince(t0);
    out.loop = machine.loopStats();

    EnergyParams ep;
    ep.clockGhz = p.gpu.clockGhz;
    out.energy = computeEnergy(out.sim, p.gpu, ep);

    p.workload->verify(mem, p.launch);
    return out;
}

SweepJobResult
SweepEngine::execute(const SweepJob &job)
{
    // Classify failures into the service taxonomy: a workload name
    // that is not in the registry is its own category (retrying the
    // request cannot help), any other ConfigError is a bad
    // configuration, and everything else — simulator panics, workload
    // verify mismatches, I/O failures — is an internal error.
    try {
        findWorkload(job.workload);
    } catch (const ConfigError &e) {
        SweepJobResult res;
        res.job = job;
        res.status = ServiceStatus::kUnknownWorkload;
        res.error = e.what();
        return res;
    }
    try {
        return runOne(job);
    } catch (const ConfigError &e) {
        SweepJobResult res;
        res.job = job;
        res.status = ServiceStatus::kBadConfig;
        res.error = e.what();
        return res;
    } catch (const std::exception &e) {
        SweepJobResult res;
        res.job = job;
        res.status = ServiceStatus::kInternalError;
        res.error = e.what();
        return res;
    }
}

SweepJobResult
SweepEngine::runOne(const SweepJob &job)
{
    const auto t0 = std::chrono::steady_clock::now();

    SweepJobResult res;
    res.job = job;

    // On a hit, compilation, verification and decode are all skipped.
    const std::shared_ptr<Workload> wl = findWorkload(job.workload);
    const Hash128 key = resultKeyOf(*wl, job.config);
    res.key = key.hex();

    if (opts_.useCache) {
        if (auto hit = cache_.lookup(key)) {
            res.outcome = std::move(*hit);
            // The label is cosmetic and excluded from the key; restore
            // this job's spelling so reports read naturally.
            res.outcome.workload = wl->name();
            res.outcome.configLabel = job.config.label;
            res.fromCache = true;
            res.seconds = secondsSince(t0);
            return res;
        }
    }

    const PreparedJob p = prepare(job);
    res.outcome = executeLive(p);
    if (opts_.useCache)
        cache_.store(key, res.outcome);
    res.seconds = secondsSince(t0);
    return res;
}

std::vector<SweepJobResult>
SweepEngine::run(const std::vector<SweepJob> &manifest)
{
    const auto t0 = std::chrono::steady_clock::now();

    stats_ = SweepStats{};
    stats_.jobsTotal = manifest.size();

    std::vector<SweepJobResult> results(manifest.size());
    std::vector<char> done(manifest.size(), 0);

    WorkStealingPool pool(opts_.jobs);
    std::exception_ptr err;
    try {
        pool.run(static_cast<u32>(manifest.size()),
                 [&](u32 jobIndex, u32 /*workerId*/) {
                     // relaxed: cancellation is cooperative and
                     // level-triggered; observing it one job late
                     // only runs one more (correct) job.
                     if (opts_.cancel &&
                         opts_.cancel->load(std::memory_order_relaxed)) {
                         results[jobIndex].job = manifest[jobIndex];
                         results[jobIndex].status =
                             ServiceStatus::kCancelled;
                         results[jobIndex].error =
                             "sweep interrupted before this job started";
                     } else {
                         results[jobIndex] = execute(manifest[jobIndex]);
                     }
                     done[jobIndex] = 1;
                 });
    } catch (...) {
        err = std::current_exception();
    }

    stats_.steals = pool.steals();
    stats_.parks = pool.parks();
    stats_.artifacts = store_.stats();
    // Join the write-behind publisher's backlog before reporting: a
    // finished sweep's results are durably on disk (a second engine —
    // or a second process — opening the same directory replays them),
    // and the reported writeBehindDepth is deterministically zero.
    cache_.drain();
    stats_.cache = cache_.stats();
    for (size_t i = 0; i < results.size(); ++i) {
        if (!done[i])
            continue;
        if (results[i].status == ServiceStatus::kCancelled) {
            ++stats_.jobsCancelled;
            continue;
        }
        if (!results[i].ok()) {
            ++stats_.jobsFailed;
            continue;
        }
        if (results[i].fromCache)
            ++stats_.jobsCached;
        else
            ++stats_.jobsRun;
        stats_.aggregateCycles += results[i].outcome.sim.cycles;
        stats_.aggregateInstrs += results[i].outcome.sim.issuedInstrs;
    }
    stats_.wallSeconds = secondsSince(t0);

    if (err)
        std::rethrow_exception(err);
    return results;
}

} // namespace rfv
