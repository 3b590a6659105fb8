#include "service/request.h"

#include <istream>
#include <sstream>

#include "common/decimal.h"
#include "service/sweep.h"

namespace rfv {

bool
runConfigByName(const std::string &name, RunConfig &cfg)
{
    if (name == "baseline")
        cfg = RunConfig::baseline();
    else if (name == "virtualized")
        cfg = RunConfig::virtualized();
    else if (name == "virtualized-gating")
        cfg = RunConfig::virtualized(true);
    else if (name == "shrink25")
        cfg = RunConfig::gpuShrink(25);
    else if (name == "shrink50")
        cfg = RunConfig::gpuShrink(50);
    else if (name == "shrink50-gating")
        cfg = RunConfig::gpuShrink(50, true);
    else if (name == "spill50")
        cfg = RunConfig::compilerSpillShrink(50);
    else if (name == "hwonly")
        cfg = RunConfig::hardwareOnly();
    else if (name == "hwonly-gating")
        cfg = RunConfig::hardwareOnly(true);
    else
        return false;
    return true;
}

const std::vector<std::string> &
runConfigNames()
{
    static const std::vector<std::string> names = {
        "baseline",        "virtualized", "virtualized-gating",
        "shrink25",        "shrink50",    "shrink50-gating",
        "spill50",         "hwonly",      "hwonly-gating",
    };
    return names;
}

namespace {

bool
parseBool(const std::string &v, bool &out)
{
    if (v == "1" || v == "true") {
        out = true;
        return true;
    }
    if (v == "0" || v == "false") {
        out = false;
        return true;
    }
    return false;
}

} // namespace

ServiceStatus
applyConfigOverride(RunConfig &cfg, const std::string &key,
                    const std::string &value, std::string &error)
{
    bool parsed = false;
    if (key == "numSms")
        parsed = parseCanonical(value, cfg.numSms);
    else if (key == "roundsPerSm")
        parsed = parseCanonical(value, cfg.roundsPerSm);
    else if (key == "rfSizeBytes")
        parsed = parseCanonical(value, cfg.rfSizeBytes);
    else if (key == "wakeupLatency")
        parsed = parseCanonical(value, cfg.wakeupLatency);
    else if (key == "flagCacheEntries")
        parsed = parseCanonical(value, cfg.flagCacheEntries);
    else if (key == "renamingTableBytes")
        parsed = parseCanonical(value, cfg.renamingTableBytes);
    else if (key == "powerGating")
        parsed = parseBool(value, cfg.powerGating);
    else if (key == "aggressiveDiverged")
        parsed = parseBool(value, cfg.aggressiveDiverged);
    else if (key == "bankRestricted")
        parsed = parseBool(value, cfg.bankRestricted);
    else if (key == "compilerSpill")
        parsed = parseBool(value, cfg.compilerSpill);
    else if (key == "verifyReleases")
        parsed = parseBool(value, cfg.verifyReleases);
    else if (key == "eventDriven")
        parsed = parseBool(value, cfg.eventDriven);
    else if (key == "label") {
        cfg.label = value;
        parsed = true;
    } else {
        error = "unknown config override key '" + key + "'";
        return ServiceStatus::kBadConfig;
    }
    if (!parsed) {
        error = "invalid value '" + value + "' for override '" + key + "'";
        return ServiceStatus::kBadConfig;
    }
    return ServiceStatus::kOk;
}

ServiceStatus
buildJob(const ServiceRequest &req, SweepJob &job, std::string &error)
{
    if (req.workload.empty()) {
        error = "request has no workload";
        return ServiceStatus::kBadRequest;
    }
    RunConfig cfg;
    if (!runConfigByName(req.configName, cfg)) {
        error = "unknown config '" + req.configName + "'";
        return ServiceStatus::kBadConfig;
    }
    for (const auto &[key, value] : req.overrides) {
        const ServiceStatus s = applyConfigOverride(cfg, key, value, error);
        if (s != ServiceStatus::kOk)
            return s;
    }
    job.workload = req.workload;
    job.config = cfg;
    return ServiceStatus::kOk;
}

std::vector<ManifestEntry>
parseManifest(std::istream &in, const std::string &name)
{
    std::vector<ManifestEntry> entries;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string workload, config;
        if (!(ls >> workload))
            continue; // blank/comment line

        ManifestEntry e;
        e.source = name + ":" + std::to_string(lineno);
        e.workload = workload;
        if (!(ls >> config)) {
            e.status = ServiceStatus::kBadRequest;
            e.error = e.source + ": expected 'workload config'";
            entries.push_back(std::move(e));
            continue;
        }
        e.configName = config;
        if (!runConfigByName(config, e.config)) {
            e.status = ServiceStatus::kBadConfig;
            e.error = e.source + ": unknown config '" + config + "'";
            entries.push_back(std::move(e));
            continue;
        }
        std::string token;
        while (ls >> token) {
            const size_t eq = token.find('=');
            std::string err;
            if (eq == std::string::npos || eq == 0) {
                e.status = ServiceStatus::kBadRequest;
                e.error = e.source + ": expected key=value, got '" +
                          token + "'";
                break;
            }
            const std::string key = token.substr(0, eq);
            const std::string value = token.substr(eq + 1);
            const ServiceStatus s =
                applyConfigOverride(e.config, key, value, err);
            if (s != ServiceStatus::kOk) {
                e.status = s;
                e.error = e.source + ": " + err;
                break;
            }
            e.overrides.emplace_back(key, value);
        }
        entries.push_back(std::move(e));
    }
    return entries;
}

std::vector<ManifestEntry>
defaultManifest()
{
    std::vector<ManifestEntry> entries;
    for (const char *name : {"baseline", "virtualized", "shrink50"}) {
        for (const auto &w : allWorkloads()) {
            ManifestEntry e;
            e.workload = w->name();
            e.configName = name;
            e.source = "--default";
            runConfigByName(name, e.config);
            entries.push_back(std::move(e));
        }
    }
    return entries;
}

} // namespace rfv
