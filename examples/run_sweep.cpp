/**
 * @file
 * Batch sweep driver: execute a manifest of (workload, config) jobs on
 * the work-stealing SweepEngine with shared program artifacts and a
 * persistent result cache, then emit CSV or JSON.  Sweeps run locally;
 * `simd_client` is the driver for a server or a cluster.
 *
 * Usage:
 *   run_sweep <manifest|--default> [--jobs=N] [--cache-dir=DIR]
 *             [--no-cache] [--cache-budget-mb=N]
 *             [--csv=FILE] [--json=FILE]
 *             [--sms=N] [--rounds=N] [--expect-hit-rate=F] [--quiet]
 *
 * The manifest is a text file, one job per line:
 *
 *   # workload   config      [key=value overrides...]
 *   MatrixMul    baseline
 *   MatrixMul    shrink50    numSms=2 roundsPerSm=1
 *   BFS          virtualized
 *
 * Configs are the shared named table (runConfigByName): baseline,
 * virtualized, virtualized-gating, shrink25, shrink50,
 * shrink50-gating, spill50, hwonly, hwonly-gating.  `--default`
 * expands to every Table-1 workload under baseline, virtualized and
 * shrink50 (48 jobs).
 *
 * A bad line or a bad job never aborts the batch: malformed manifest
 * lines, unknown workloads and invalid overrides are reported as
 * per-job structured errors, the remaining jobs run to completion,
 * and the exit status is 1.  SIGINT/SIGTERM interrupt the sweep
 * cooperatively: in-flight jobs finish and publish to the cache,
 * pending jobs are skipped, the completed-job count is reported, and
 * the exit status is 130; a second signal ends the process at once.
 *
 * --jobs=N           worker threads including the caller (default 1,
 *                    at most 256).
 * --cache-dir=DIR    persistent result cache (default .rfv-cache).
 * --no-cache         always simulate live; nothing read or written.
 * --cache-budget-mb=N  memory-tier byte budget; cold entries beyond it
 *                    are demoted to the disk tier (0 = unbounded,
 *                    default 256).
 * --csv=FILE         per-job CSV (- for stdout); adds from_cache and
 *                    seconds columns to the standard report columns.
 * --json=FILE        engine counters + per-job rows as JSON.
 * --expect-hit-rate=F  exit 1 unless the hit rate of the attempted
 *                    (not cancelled) jobs is >= F, F in [0, 1] (CI
 *                    gating for warm-cache runs).
 *
 * A numeric flag that is not a canonical decimal in range prints
 * `unparsable value in <flag>` and exits 2.
 *
 * Examples:
 *   run_sweep --default --jobs=8 --csv=sweep.csv
 *   run_sweep manifest.txt --cache-dir=/tmp/rfv --json=-
 *   run_sweep --default && run_sweep --default --expect-hit-rate=0.9
 */
#include <functional>
#include <type_traits>

#include "cli.h"
#include "service/request.h"
#include "service/sweep.h"
#include "service/version.h"

using namespace rfv;

namespace {

std::vector<ManifestEntry>
loadManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open manifest " + path);
    return parseManifest(in, path);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/**
 * One JSON member per walked field of @p s, each on its own line after
 * @p indent; a nested stats struct becomes an object.
 */
template <class S>
void
writeJsonFields(std::ostream &os, const S &s, const std::string &indent)
{
    const char *sep = "";
    S::fields([&](const char *name, auto field) {
        const auto &v = std::invoke(field, s);
        using V = std::decay_t<decltype(v)>;
        os << sep << "\n" << indent << '"' << name << "\": ";
        sep = ",";
        if constexpr (std::is_class_v<V> && !std::is_same_v<V, Counter>) {
            os << "{";
            writeJsonFields(os, v, indent + "  ");
            os << "\n" << indent << "}";
        } else {
            os << v;
        }
    });
}

void
writeJson(std::ostream &os, const std::vector<SweepJobResult> &results,
          const SweepStats &st)
{
    os << "{\n";
    os << "  \"simulator_version\": \"" << kSimulatorVersion << "\",";
    writeJsonFields(os, st, "  ");
    os << ",\n";
    os << "  \"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const SweepJobResult &r = results[i];
        os << "    { \"workload\": \"" << jsonEscape(r.job.workload)
           << "\", \"config\": \"" << jsonEscape(r.job.config.label)
           << "\", \"status\": \"" << serviceStatusName(r.status)
           << "\"";
        if (!r.ok())
            os << ", \"error\": \"" << jsonEscape(r.error) << "\"";
        os << ", \"key\": \"" << r.key
           << "\", \"from_cache\": " << (r.fromCache ? "true" : "false")
           << ", \"seconds\": " << r.seconds
           << ", \"cycles\": " << r.outcome.sim.cycles
           << ", \"issued_instrs\": " << r.outcome.sim.issuedInstrs
           << ", \"energy_j\": " << r.outcome.energy.totalJ() << " }"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr
            << "usage: run_sweep <manifest|--default> [--jobs=N] "
               "[--cache-dir=DIR] [--no-cache] [--cache-budget-mb=N] "
               "[--csv=FILE] "
               "[--json=FILE] [--sms=N] [--rounds=N] "
               "[--expect-hit-rate=F] [--quiet]\n";
        return 2;
    }

    std::string manifestPath;
    bool useDefault = false;
    SweepOptions opts;
    opts.cacheDir = ".rfv-cache";
    std::string csvOut, jsonOut;
    u32 sms = 0, rounds = 0;
    bool haveSms = false, haveRounds = false, quiet = false;
    double expectHitRate = -1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg == "--default")
            useDefault = true;
        else if (arg.rfind("--jobs=", 0) == 0)
            ok = parseCanonical(arg.substr(7), opts.jobs, kMaxWorkers);
        else if (arg.rfind("--cache-dir=", 0) == 0)
            opts.cacheDir = arg.substr(12);
        else if (arg == "--no-cache")
            opts.useCache = false;
        else if (arg.rfind("--cache-budget-mb=", 0) == 0) {
            u64 mb = 0;
            ok = parseCanonical(arg.substr(18), mb, ~0ull >> 20);
            opts.cacheMemoryBudget = mb << 20;
        } else if (arg.rfind("--csv=", 0) == 0)
            csvOut = arg.substr(6);
        else if (arg.rfind("--json=", 0) == 0)
            jsonOut = arg.substr(7);
        else if (arg.rfind("--sms=", 0) == 0)
            ok = haveSms = parseCanonical(arg.substr(6), sms);
        else if (arg.rfind("--rounds=", 0) == 0)
            ok = haveRounds = parseCanonical(arg.substr(9), rounds);
        else if (arg.rfind("--expect-hit-rate=", 0) == 0)
            ok = parseHitRate(arg.substr(18), expectHitRate);
        else if (arg == "--quiet")
            quiet = true;
        else if (arg.rfind("--", 0) == 0) {
            std::cerr << "unknown option " << arg << "\n";
            return 2;
        } else
            manifestPath = arg;
        if (!ok) {
            std::cerr << "unparsable value in " << arg << "\n";
            return 2;
        }
    }
    if (useDefault == !manifestPath.empty()) {
        std::cerr << "expected exactly one of <manifest> or --default\n";
        return 2;
    }

    // In-flight jobs finish and publish to the cache atomically; pending
    // jobs are skipped as CANCELLED and the completed-job count is still
    // reported below.
    installInterruptHandlers();
    opts.cancel = &gInterrupted;

    try {
        std::vector<ManifestEntry> entries =
            useDefault ? defaultManifest() : loadManifest(manifestPath);

        std::vector<SweepJob> manifest;
        std::vector<size_t> jobToEntry; //!< manifest index -> entry index
        for (size_t i = 0; i < entries.size(); ++i) {
            if (entries[i].status != ServiceStatus::kOk)
                continue; // parse error: reported below, not executed
            SweepJob job;
            job.workload = entries[i].workload;
            job.config = entries[i].config;
            if (haveSms)
                job.config.numSms = sms;
            if (haveRounds)
                job.config.roundsPerSm = rounds;
            manifest.push_back(std::move(job));
            jobToEntry.push_back(i);
        }

        SweepEngine engine(opts);
        const std::vector<SweepJobResult> executed =
            engine.run(manifest);
        const SweepStats &st = engine.stats();

        // Merge executed results and parse failures back into manifest
        // order so every input line has exactly one result row.
        std::vector<SweepJobResult> results(entries.size());
        for (size_t i = 0; i < entries.size(); ++i) {
            if (entries[i].status != ServiceStatus::kOk) {
                results[i].job.workload = entries[i].workload;
                results[i].job.config = entries[i].config;
                results[i].status = entries[i].status;
                results[i].error = entries[i].error;
            }
        }
        for (size_t j = 0; j < executed.size(); ++j)
            results[jobToEntry[j]] = executed[j];

        u64 failed = 0, cancelled = 0;
        for (size_t i = 0; i < results.size(); ++i) {
            if (results[i].ok())
                continue;
            if (results[i].status == ServiceStatus::kCancelled) {
                ++cancelled;
                continue;
            }
            ++failed;
            std::cerr << "FAIL " << entries[i].workload << " ["
                      << entries[i].source
                      << "]: " << serviceStatusName(results[i].status)
                      << ": " << results[i].error << "\n";
        }

        if (!csvOut.empty()) {
            std::ofstream file;
            writeSweepCsv(openOut(csvOut, file), results);
        }
        if (!jsonOut.empty()) {
            std::ofstream file;
            writeJson(openOut(jsonOut, file), results, st);
        }
        if (!quiet)
            std::cerr << st.summary() << "\n";

        if (gInterrupted.load()) {
            std::cerr << "interrupted: " << (st.jobsRun + st.jobsCached)
                      << "/" << st.jobsTotal << " jobs completed ("
                      << cancelled << " cancelled)\n";
            return 130;
        }
        if (expectHitRate >= 0 && st.hitRate() < expectHitRate) {
            std::cerr << "FAIL: hit rate " << st.hitRate()
                      << " below expected " << expectHitRate << "\n";
            return 1;
        }
        if (failed)
            return 1;
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return 0;
}
