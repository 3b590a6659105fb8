/**
 * @file
 * Request layer of the simulation service: the shared vocabulary by
 * which any front-end — the example CLIs, the `simd` daemon, a test —
 * names a job.
 *
 * A job is (workload name, base config name, key=value overrides,
 * optional deadline).  This file owns:
 *
 *  - the one named-config registry (baseline, virtualized, shrink50,
 *    …; the `-gating` names add power gating) every driver resolves
 *    `--config` through, and the `--default` manifest,
 *  - the override parser mapping "numSms=2" onto RunConfig fields
 *    with strict validation (unknown key / unparsable value =
 *    kBadConfig, never a silent default),
 *  - manifest parsing with *per-line* structured errors: a malformed
 *    line yields an error entry, not an aborted batch, and
 *  - ServiceRequest -> SweepJob resolution for the daemon.
 */
#ifndef RFV_SERVICE_REQUEST_H
#define RFV_SERVICE_REQUEST_H

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/run_config.h"
#include "service/status.h"

namespace rfv {

/** Resolve a named base configuration; false on unknown names. */
bool runConfigByName(const std::string &name, RunConfig &cfg);

/** All names runConfigByName accepts (usage strings, docs). */
const std::vector<std::string> &runConfigNames();

/**
 * Apply one "key=value" override onto @p cfg.  Returns kOk, or
 * kBadConfig with @p error set on an unknown key or a value that does
 * not parse (booleans accept 0/1/true/false).
 */
ServiceStatus applyConfigOverride(RunConfig &cfg, const std::string &key,
                                  const std::string &value,
                                  std::string &error);

/**
 * One request as submitted by a client: the job naming plus an
 * advisory deadline the server enforces at admission and response
 * time (a simulation in flight is never preempted; see SERVICE.md).
 */
struct ServiceRequest {
    std::string workload;
    std::string configName = "baseline";
    std::vector<std::pair<std::string, std::string>> overrides;
    i64 deadlineMs = -1; //!< < 0 = no deadline

    /**
     * Ring epoch the sender routed by (0 = not cluster-routed).  A
     * clustered server answering NOT_OWNER attaches its own epoch so
     * a stale sender knows to refresh before re-dispatching.
     */
    u64 ringEpoch = 0;
};

struct SweepJob;

/**
 * Validate @p req's config naming and build the SweepJob (workload
 * existence is checked at execution time so the error lands in the
 * per-job result).  Returns kOk or kBadConfig/kBadRequest with
 * @p error set.
 */
ServiceStatus buildJob(const ServiceRequest &req, SweepJob &job,
                       std::string &error);

/**
 * One parsed manifest line: a runnable job, or a structured parse
 * error carried alongside the line's source position.
 */
struct ManifestEntry {
    ServiceStatus status = ServiceStatus::kOk;
    std::string error; //!< set when status != kOk
    std::string source; //!< "name:line" provenance
    std::string workload;
    RunConfig config; //!< resolved base config + overrides

    // Raw naming as written, so a network client can transmit the
    // (name, overrides) pair and let the server resolve it.
    std::string configName;
    std::vector<std::pair<std::string, std::string>> overrides;
};

/**
 * Parse a manifest ("workload config [key=value ...]" per line, '#'
 * comments).  Malformed lines become error entries; parsing always
 * consumes the whole stream.
 */
std::vector<ManifestEntry> parseManifest(std::istream &in,
                                         const std::string &name);

/**
 * The `--default` manifest of the sweep drivers: every Table-1
 * workload under baseline, virtualized and shrink50 (48 entries,
 * configs resolved, no overrides).
 */
std::vector<ManifestEntry> defaultManifest();

} // namespace rfv

#endif // RFV_SERVICE_REQUEST_H
