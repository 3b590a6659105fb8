#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace rfv::perfbench {
namespace {

thread_local Tracer *tlTracer = nullptr;
thread_local u64 tlJob = 0;
thread_local u32 tlNextSeq = 0;
thread_local i32 tlOpen = -1; //!< seq of the innermost open span

bool
bySpanId(const Span &a, const Span &b)
{
    return a.job != b.job ? a.job < b.job : a.seq < b.seq;
}

/** Children's durations per (job, parent seq). */
std::map<std::pair<u64, i32>, double>
childTime(const std::vector<Span> &spans)
{
    std::map<std::pair<u64, i32>, double> covered;
    for (const Span &s : spans)
        if (s.parent >= 0)
            covered[{s.job, s.parent}] += s.end - s.start;
    return covered;
}

} // namespace

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::kJob: return "job";
      case Layer::kGen: return "gen";
      case Layer::kSim: return "sim";
      case Layer::kArtifacts: return "artifacts";
      case Layer::kCache: return "cache";
      case Layer::kSweep: return "sweep";
      case Layer::kCodec: return "codec";
      case Layer::kRpc: return "rpc";
      case Layer::kCluster: return "cluster";
    }
    return "?";
}

double
benchNow()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

void
Tracer::record(const Span &span)
{
    MutexLock lk(mu_);
    spans_.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    std::vector<Span> out;
    {
        MutexLock lk(mu_);
        out = spans_;
    }
    std::sort(out.begin(), out.end(), bySpanId);
    return out;
}

std::vector<double>
Tracer::durations(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans())
        if (std::string(s.name) == name)
            out.push_back(s.end - s.start);
    return out;
}

std::map<Layer, double>
Tracer::selfTimeByLayer() const
{
    const std::vector<Span> all = spans();
    const auto covered = childTime(all);
    std::map<Layer, double> self;
    for (const Span &s : all) {
        const auto it = covered.find({s.job, static_cast<i32>(s.seq)});
        const double kids = it == covered.end() ? 0.0 : it->second;
        self[s.layer] += std::max(0.0, (s.end - s.start) - kids);
    }
    return self;
}

double
Tracer::otherFrac() const
{
    const std::vector<Span> all = spans();
    const auto covered = childTime(all);
    double total = 0, uncovered = 0;
    for (const Span &s : all) {
        if (s.layer != Layer::kJob || s.parent >= 0)
            continue;
        const auto it = covered.find({s.job, static_cast<i32>(s.seq)});
        const double kids = it == covered.end() ? 0.0 : it->second;
        total += s.end - s.start;
        uncovered += std::max(0.0, (s.end - s.start) - kids);
    }
    return total > 0 ? uncovered / total : 0.0;
}

bool
Tracer::writeChromeTrace(const std::string &path, u64 jobLimit) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (u32 l = 0; l < kNumLayers; ++l) {
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
           << l << ",\"args\":{\"name\":\""
           << layerName(static_cast<Layer>(l)) << "\"}},\n";
    }
    bool first = true;
    char buf[96];
    for (const Span &s : spans()) {
        if (s.job >= jobLimit)
            continue;
        if (!first)
            os << ",\n";
        first = false;
        std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                      s.start * 1e6, (s.end - s.start) * 1e6);
        os << "{\"name\":\"" << s.name << "\",\"cat\":\""
           << layerName(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << static_cast<u32>(s.layer) << "," << buf
           << ",\"args\":{\"job\":" << s.job << ",\"span\":" << s.seq
           << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

JobScope::JobScope(Tracer *tracer, u64 job)
{
    tlTracer = tracer;
    tlJob = job;
    tlNextSeq = 0;
    tlOpen = -1;
}

JobScope::~JobScope()
{
    tlTracer = nullptr;
}

ScopedSpan::ScopedSpan(const char *name, Layer layer)
    : ScopedSpan(name, layer, benchNow())
{
}

ScopedSpan::ScopedSpan(const char *name, Layer layer, double start)
{
    if (!tlTracer)
        return;
    active_ = true;
    span_.name = name;
    span_.layer = layer;
    span_.job = tlJob;
    span_.seq = tlNextSeq++;
    span_.parent = tlOpen;
    outerParent_ = tlOpen;
    tlOpen = static_cast<i32>(span_.seq);
    span_.start = start;
}

ScopedSpan::~ScopedSpan()
{
    if (!active_ || !tlTracer)
        return;
    span_.end = benchNow();
    tlOpen = outerParent_;
    tlTracer->record(span_);
}

void
recordChildSpan(const char *name, Layer layer, double start, double end)
{
    if (!tlTracer)
        return;
    Span s;
    s.name = name;
    s.layer = layer;
    s.job = tlJob;
    s.seq = tlNextSeq++;
    s.parent = tlOpen;
    s.start = start;
    s.end = end;
    tlTracer->record(s);
}

} // namespace rfv::perfbench
