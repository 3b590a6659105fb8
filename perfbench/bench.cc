#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>

#include "common/sync.h"
#include "common/rng.h"
#include "gen/gen_spec.h"
#include "trace.h"
#include "workloads/workload.h"

namespace rfv::perfbench {
namespace {

const char *const kPaperConfigs[] = {
    "baseline", "virtualized", "shrink50", "shrink50-gating", "spill50",
};
constexpr u32 kNumPaperConfigs = 5;
constexpr u32 kDefaultConfigs = 3; //!< run_sweep --default's share

// Reference results of Jeon et al., MICRO 2015.  The paper's figures
// are the only reference the repository holds; the model is not
// validated against hardware.

/** Fig. 10: average register allocation reduction (%). */
constexpr double kPaperFig10AllocReductionPct = 16.0;
/** Fig. 11(a): average GPU-shrink (64 KB RF) cycle increase (%). */
constexpr double kPaperFig11aShrinkSlowdownPct = 0.58;
/** Fig. 11(a): average compiler-spill (64 KB RF) cycle increase (%). */
constexpr double kPaperFig11aSpillSlowdownPct = 73.0;
/** Fig. 12: average RF energy saving of 64 KB with power gating (%). */
constexpr double kPaperFig12EnergySavingPct = 42.0;

std::vector<ServiceRequest>
tableRequests(u32 configs)
{
    std::vector<ServiceRequest> reqs;
    for (u32 c = 0; c < configs; ++c) {
        for (const auto &w : allWorkloads()) {
            ServiceRequest r;
            r.workload = w->name();
            r.configName = kPaperConfigs[c];
            reqs.push_back(std::move(r));
        }
    }
    return reqs;
}

} // namespace

std::vector<ServiceRequest>
paperRequests()
{
    return tableRequests(kNumPaperConfigs);
}

std::vector<ServiceRequest>
defaultRequests()
{
    return tableRequests(kDefaultConfigs);
}

ServiceRequest
genRequest(GenSpec shape, u64 seed, u64 index)
{
    shape.seed = SeedSeq(seed).child(index).seed();
    shape.validate();
    ServiceRequest r;
    r.workload = shape.name();
    r.configName = index % 2 ? "virtualized" : "baseline";
    return r;
}

SweepJob
toJob(const ServiceRequest &req)
{
    SweepJob job;
    std::string error;
    if (buildJob(req, job, error) != ServiceStatus::kOk)
        throw std::runtime_error("cannot resolve " + req.workload + ": " +
                                 error);
    return job;
}

void
runThreads(u32 threads, const std::function<void(u32)> &fn)
{
    Mutex mu;
    std::exception_ptr first;
    {
        std::vector<Thread> pool;
        for (u32 t = 0; t < threads; ++t) {
            pool.emplace_back([&, t]() {
                try {
                    fn(t);
                } catch (...) {
                    MutexLock lk(mu);
                    if (!first)
                        first = std::current_exception();
                }
            });
        }
        for (Thread &t : pool)
            t.join();
    }
    if (first)
        std::rethrow_exception(first);
}

std::vector<SweepJobResult>
dispatchAll(const std::vector<ServiceRequest> &reqs, u32 threads,
            const Dispatch &call)
{
    std::vector<SweepJobResult> results(reqs.size());
    runThreads(threads, [&](u32 t) {
        for (size_t i = t; i < reqs.size(); i += threads) {
            std::string error;
            const ServiceStatus s = call(t, reqs[i], results[i], error);
            if (s != ServiceStatus::kOk) {
                results[i].status = s;
                results[i].error = error;
            }
        }
    });
    return results;
}

void
checkPaperResults(const std::vector<SweepJobResult> &served,
                  const std::vector<RunOutcome> &reference, RunReport &rep)
{
    std::vector<RunOutcome> outcomes;
    for (size_t i = 0; i < served.size(); ++i) {
        const bool ok =
            served[i].ok() && served[i].outcome == reference[i];
        rep.count(ok);
        if (!ok)
            rep.note("MISMATCH on paper job " + std::to_string(i) + ": " +
                     served[i].error);
        outcomes.push_back(served[i].outcome);
    }
    addFidelity(outcomes, rep);
}

std::vector<RunOutcome>
serialReference(const std::vector<ServiceRequest> &reqs)
{
    std::vector<RunOutcome> out;
    out.reserve(reqs.size());
    for (const ServiceRequest &r : reqs) {
        const SweepJob job = toJob(r);
        out.push_back(
            Simulator(job.config).runWorkload(*findWorkload(job.workload)));
    }
    return out;
}

std::vector<RunOutcome>
engineReference(const std::vector<ServiceRequest> &reqs)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(reqs.size());
    for (const ServiceRequest &r : reqs)
        jobs.push_back(toJob(r));
    SweepOptions so;
    so.jobs = 4;
    so.useCache = false;
    SweepEngine engine(so);
    std::vector<RunOutcome> out;
    out.reserve(jobs.size());
    for (SweepJobResult &res : engine.run(jobs)) {
        if (!res.ok())
            throw std::runtime_error("reference job " + res.job.workload +
                                     " failed: " + res.error);
        out.push_back(std::move(res.outcome));
    }
    return out;
}

void
addFidelity(const std::vector<RunOutcome> &paper, RunReport &out)
{
    const size_t n = allWorkloads().size();
    if (paper.size() != n * kNumPaperConfigs)
        throw std::runtime_error("fidelity needs the full paper manifest");
    const auto at = [&](u32 config, size_t w) -> const RunOutcome & {
        return paper[config * n + w];
    };
    double alloc = 0, shrink = 0, spill = 0, energy = 0;
    for (size_t w = 0; w < n; ++w) {
        const RunOutcome &base = at(0, w);
        const double baseCycles = static_cast<double>(base.sim.cycles);
        alloc += at(1, w).sim.allocationReductionPct();
        shrink += 100.0 * (static_cast<double>(at(2, w).sim.cycles) /
                               baseCycles -
                           1.0);
        spill += 100.0 * (static_cast<double>(at(4, w).sim.cycles) /
                              baseCycles -
                          1.0);
        energy += at(3, w).energy.totalJ() / base.energy.totalJ();
    }
    const double k = static_cast<double>(n);
    alloc /= k;
    shrink /= k;
    spill /= k;
    energy /= k;
    const double saving = 100.0 * (1.0 - energy);
    out.endToEnd["fig10_alloc_err_pp"] =
        std::fabs(alloc - kPaperFig10AllocReductionPct);
    out.endToEnd["fig11a_shrink_err_pp"] =
        std::fabs(shrink - kPaperFig11aShrinkSlowdownPct);
    out.endToEnd["fig11a_spill_err_pp"] =
        std::fabs(spill - kPaperFig11aSpillSlowdownPct);
    out.endToEnd["fig12_energy_err_pp"] =
        std::fabs(saving - kPaperFig12EnergySavingPct);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "fidelity (simulated, vs the paper; the model is not "
                  "validated against hardware): Fig10 alloc reduction "
                  "%.1f%% (paper %.0f%%), Fig11a shrink %+.2f%% (paper "
                  "%+.2f%%), spill %+.2f%% (paper %+.0f%%), Fig12 64KB+PG "
                  "energy %.3fx = %.1f%% saving (paper %.0f%%)",
                  alloc, kPaperFig10AllocReductionPct, shrink,
                  kPaperFig11aShrinkSlowdownPct, spill,
                  kPaperFig11aSpillSlowdownPct, energy, saving,
                  kPaperFig12EnergySavingPct);
    out.note(buf);
}

void
noteSelfTimes(const Tracer &tracer, RunReport &rep)
{
    const std::map<Layer, double> self = tracer.selfTimeByLayer();
    double total = 0;
    for (const auto &[layer, seconds] : self)
        total += seconds;
    std::string line = "self time by layer:";
    for (const auto &[layer, seconds] : self) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s %.1f%%", layerName(layer),
                      total > 0 ? 100.0 * seconds / total : 0.0);
        line += buf;
    }
    rep.note(line);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
freshDir(const Options &opts, const std::string &tag)
{
    static std::atomic<u64> counter{0};
    const std::filesystem::path dir =
        std::filesystem::path(opts.outDir) /
        (tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

void
removeDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace rfv::perfbench
