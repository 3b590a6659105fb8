#include "gen/gen_spec.h"

#include <algorithm>
#include <sstream>

#include "common/bit_utils.h"
#include "common/decimal.h"
#include "common/error.h"

namespace rfv {

namespace {

/** Split @p s on @p sep (no empty-token elision). */
std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

} // namespace

std::string
GenSpec::name() const
{
    std::ostringstream os;
    os << kGenWorkloadPrefix << "s" << seed << ":d" << depth << ":b"
       << blocks << ":r" << regs << ":l" << longLived << ":w"
       << loopWeight << "." << branchWeight << "." << memWeight << ":a"
       << auxStores << ":x" << (exchanges ? 1 : 0)
       << (earlyExits ? 1 : 0) << ":g" << ctas << "x" << threadsPerCta
       << "x" << concCtasPerSm;
    if (!prune.empty()) {
        os << ":p";
        for (size_t i = 0; i < prune.size(); ++i)
            os << (i ? "." : "") << prune[i];
    }
    return os.str();
}

bool
GenSpec::parse(const std::string &name, GenSpec &spec, std::string &error)
{
    const std::string prefix = kGenWorkloadPrefix;
    if (name.rfind(prefix, 0) != 0) {
        error = "not a generated-workload name (missing '" + prefix +
                "' prefix): " + name;
        return false;
    }
    GenSpec out;
    for (const std::string &field : split(name.substr(prefix.size()), ':')) {
        if (field.size() < 2) {
            error = "malformed gen field '" + field + "' in " + name;
            return false;
        }
        const char key = field[0];
        const std::string val = field.substr(1);
        bool ok = true;
        switch (key) {
          case 's':
            ok = parseCanonical(val, out.seed);
            break;
          case 'd':
            ok = parseCanonical(val, out.depth);
            break;
          case 'b':
            ok = parseCanonical(val, out.blocks);
            break;
          case 'r':
            ok = parseCanonical(val, out.regs);
            break;
          case 'l':
            ok = parseCanonical(val, out.longLived);
            break;
          case 'w': {
            const auto parts = split(val, '.');
            ok = parts.size() == 3 &&
                 parseCanonical(parts[0], out.loopWeight) &&
                 parseCanonical(parts[1], out.branchWeight) &&
                 parseCanonical(parts[2], out.memWeight);
            break;
          }
          case 'a':
            ok = parseCanonical(val, out.auxStores);
            break;
          case 'x': // any spelling but x00..x11 fails the name() check
            out.exchanges = val[0] == '1';
            out.earlyExits = val.size() > 1 && val[1] == '1';
            break;
          case 'g': {
            const auto parts = split(val, 'x');
            ok = parts.size() == 3 &&
                 parseCanonical(parts[0], out.ctas) &&
                 parseCanonical(parts[1], out.threadsPerCta) &&
                 parseCanonical(parts[2], out.concCtasPerSm);
            break;
          }
          case 'p':
            for (const std::string &id : split(val, '.'))
                ok = ok && parseCanonical(id, out.prune.emplace_back());
            break;
          default:
            ok = false;
            break;
        }
        if (!ok) {
            error = "bad gen field '" + field + "' in " + name;
            return false;
        }
    }
    try {
        out.validate();
    } catch (const ConfigError &e) {
        error = e.what();
        return false;
    }
    // One spelling per spec: routing hashes the request string while
    // the result key hashes name(), so an alias (a missing, repeated or
    // reordered field, a leading zero, an unsorted prune list) would
    // put one result at two ring positions.
    if (out.name() != name) {
        error = "gen name is not canonical (expected " + out.name() +
                "): " + name;
        return false;
    }
    spec = std::move(out);
    return true;
}

void
GenSpec::validate()
{
    fatalIf(ctas == 0 || threadsPerCta == 0 || concCtasPerSm == 0,
            "gen spec needs nonzero launch geometry: " + name());
    fatalIf(threadsPerCta > 1024,
            "gen spec threadsPerCta too large: " + name());
    fatalIf(ctas > 4096, "gen spec grid too large: " + name());
    fatalIf(regs < 4 || regs > 48,
            "gen spec regs out of [4, 48]: " + name());
    fatalIf(longLived > regs,
            "gen spec longLived exceeds regs: " + name());
    fatalIf(depth > 4, "gen spec depth out of [0, 4]: " + name());
    fatalIf(blocks == 0 || blocks > 64,
            "gen spec blocks out of [1, 64]: " + name());
    fatalIf(loopWeight > 16 || branchWeight > 16 || memWeight > 16,
            "gen spec construct weight out of [0, 16]: " + name());
    fatalIf(auxStores > 4, "gen spec auxStores out of [0, 4]: " + name());
    fatalIf(exchanges && !isPow2(threadsPerCta),
            "gen spec exchanges need a power-of-two CTA: " + name());
    std::sort(prune.begin(), prune.end());
    prune.erase(std::unique(prune.begin(), prune.end()), prune.end());
}

} // namespace rfv
