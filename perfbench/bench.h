/**
 * @file
 * Shared pieces of the three benchmark workloads: options, the report
 * every run fills, the job sets, the correctness references and the
 * paper-fidelity metrics.
 */
#ifndef RFV_PERFBENCH_BENCH_H
#define RFV_PERFBENCH_BENCH_H

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/simulator.h"
#include "gen/gen_spec.h"
#include "service/request.h"
#include "service/sweep.h"

namespace rfv::perfbench {

struct Options {
    std::string workload;
    u64 seed = 1;
    u32 seconds = 10;
    bool trace = false;
    std::string outDir = ".bench_out";
    std::string commit = "unknown";
};

/** Everything one run reports; main.cc prints it. */
struct RunReport {
    bool correct = true; //!< false on any failed or mismatching operation
    u64 attempted = 0;   //!< operations attempted (jobs or requests)
    u64 failed = 0;      //!< failed, shed, timed out or mismatching
    std::map<std::string, double> endToEnd; //!< untraced metrics
    std::map<std::string, double> perLayer; //!< traced metrics
    /** Environment record additions: offered rates, sample counts. */
    std::vector<std::pair<std::string, std::string>> record;
    std::vector<std::string> notes; //!< human-readable report lines

    /** Count one operation; @p ok false marks the run incorrect. */
    void
    count(bool ok)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            correct = false;
        }
    }

    /** An operation already counted turned out wrong after all. */
    void
    mismatch()
    {
        ++failed;
        correct = false;
    }

    void
    note(const std::string &line)
    {
        notes.push_back(line);
    }
};

RunReport runPaperSweep(const Options &opts);
RunReport runServeMixed(const Options &opts);
RunReport runClusterGen(const Options &opts);

// ---- job sets -----------------------------------------------------------

/**
 * The paper's evaluation: the 16 Table-1 workloads under baseline,
 * virtualized, shrink50, shrink50-gating and spill50 (80 jobs,
 * config-major), at the default --sms=4 --rounds=3 scale.
 */
std::vector<ServiceRequest> paperRequests();

/** The first 48 paper jobs: run_sweep --default's manifest. */
std::vector<ServiceRequest> defaultRequests();

/**
 * A fresh `gen:` request: @p shape's knobs with a kernel seed derived
 * from (@p seed, @p index), alternating baseline and virtualized.
 * Every job of one shape costs about the same.
 */
ServiceRequest genRequest(GenSpec shape, u64 seed, u64 index);

/** Resolve a request exactly as the daemon does (throws on error). */
SweepJob toJob(const ServiceRequest &req);

/**
 * Run fn(thread) on @p threads threads and join them all; an exception
 * from any of them is rethrown here after the join.
 */
void runThreads(u32 threads, const std::function<void(u32)> &fn);

/** One request on behalf of load thread @p thread (a client call). */
using Dispatch = std::function<ServiceStatus(
    u32 thread, const ServiceRequest &req, SweepJobResult &res,
    std::string &error)>;

/** Send @p reqs from @p threads threads; results in request order. */
std::vector<SweepJobResult> dispatchAll(
    const std::vector<ServiceRequest> &reqs, u32 threads,
    const Dispatch &call);

/**
 * Check served results of paperRequests() against @p reference
 * (serialReference of the same requests), count each as one
 * operation, and add the fidelity metrics from the served outcomes.
 */
void checkPaperResults(const std::vector<SweepJobResult> &served,
                       const std::vector<RunOutcome> &reference,
                       RunReport &rep);

/** Serial Simulator::runWorkload outcomes, one per request. */
std::vector<RunOutcome> serialReference(
    const std::vector<ServiceRequest> &reqs);

/** A cache-less 4-worker SweepEngine's outcomes (for gen: jobs). */
std::vector<RunOutcome> engineReference(
    const std::vector<ServiceRequest> &reqs);

// ---- paper fidelity -------------------------------------------------------

/**
 * Absolute error, in percentage points, of the four paper figures the
 * repository reproduces, from the 80 paperRequests() outcomes in
 * order.  Computed exactly as the AVG rows of bench/fig10, fig11a and
 * fig12.  Adds fig10_alloc_err_pp, fig11a_shrink_err_pp,
 * fig11a_spill_err_pp and fig12_energy_err_pp to @p out.
 */
void addFidelity(const std::vector<RunOutcome> &paper, RunReport &out);

// ---- helpers ----------------------------------------------------------------

class Tracer;

/** Add a report line with each layer's share of all span self time. */
void noteSelfTimes(const Tracer &tracer, RunReport &rep);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** A new empty directory under opts.outDir, unique in this process. */
std::string freshDir(const Options &opts, const std::string &tag);

/** Remove a directory made by freshDir (errors ignored). */
void removeDir(const std::string &dir);

/** Compact rendering of a number for report lines. */
std::string fmt(double v);

} // namespace rfv::perfbench

#endif // RFV_PERFBENCH_BENCH_H
