/**
 * @file
 * In-memory span recorder for the traced benchmark mode.
 *
 * The benchmark wraps each call it makes into a layer's public
 * function (SweepEngine::prepare, ResultCache::lookup, SimdClient::run,
 * ClusterCoordinator::run, ...) in a ScopedSpan.  A span records its
 * name, layer, start, end, job id and parent span; spans stay in
 * memory and are written out once, at exit, as Chrome trace-event
 * JSON (one track per layer).
 *
 * Span identity is (job, seq): seq counts spans in creation order
 * within one job, and one job's spans are created by one thread, so
 * a fixed seed gives the same ids, names and nesting on every run and
 * the exported file differs only in its timestamps.
 */
#ifndef RFV_PERFBENCH_TRACE_H
#define RFV_PERFBENCH_TRACE_H

#include <map>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/types.h"

namespace rfv::perfbench {

/** Trace tracks: the ledger root plus one per measured layer. */
enum class Layer : u8 {
    kJob,       //!< a job's end-to-end span (ledger root, not a layer)
    kGen,       //!< open-loop generator waiting to send
    kSim,       //!< src/sim via SweepEngine::executeLive
    kArtifacts, //!< src/compiler + src/analysis via ArtifactStore
    kCache,     //!< ResultCache
    kSweep,     //!< SweepEngine / WorkStealingPool
    kCodec,     //!< encodeResult / decodeResult
    kRpc,       //!< SimdClient / SimdServer
    kCluster,   //!< ClusterCoordinator
};
inline constexpr u32 kNumLayers = 9;

const char *layerName(Layer layer);

struct Span {
    const char *name = ""; //!< static string literal
    Layer layer = Layer::kJob;
    u64 job = 0;
    u32 seq = 0;       //!< creation order within the job
    i32 parent = -1;   //!< parent's seq, -1 for a root
    double start = 0;  //!< benchNow() seconds
    double end = 0;
};

/** Steady-clock seconds since process start; every span uses it. */
double benchNow();

class Tracer {
  public:
    /** Append one finished span (thread-safe). */
    void record(const Span &span) RFV_EXCLUDES(mu_);

    /** All spans, ordered by (job, seq). */
    std::vector<Span> spans() const RFV_EXCLUDES(mu_);

    /** Durations (seconds) of every span named @p name. */
    std::vector<double> durations(const char *name) const;

    /**
     * Per-layer self time: each span's duration minus the part its
     * children cover, summed by layer (seconds).
     */
    std::map<Layer, double> selfTimeByLayer() const;

    /**
     * Share of the job roots' total time that no layer's self time
     * covers (the root spans' own self time).
     */
    double otherFrac() const;

    /**
     * Write the spans of jobs [0, @p jobLimit) as Chrome trace-event
     * JSON.  Returns false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path, u64 jobLimit) const;

  private:
    mutable Mutex mu_;
    std::vector<Span> spans_ RFV_GUARDED_BY(mu_);
};

/**
 * Binds the calling thread to one job for the scope's lifetime: the
 * spans it opens get this job id, consecutive seq numbers and the
 * innermost open span as parent.  A null tracer disables tracing.
 */
class JobScope {
  public:
    JobScope(Tracer *tracer, u64 job);
    ~JobScope();

    JobScope(const JobScope &) = delete;
    JobScope &operator=(const JobScope &) = delete;
};

/** Times one call into a layer; a no-op outside a traced JobScope. */
class ScopedSpan {
  public:
    ScopedSpan(const char *name, Layer layer);
    /** A span that began at @p start (benchNow() seconds) already. */
    ScopedSpan(const char *name, Layer layer, double start);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Span span_;
    i32 outerParent_ = -1;
    bool active_ = false;
};

/**
 * Record a finished child of the innermost open span, e.g. the wait
 * before an open-loop send, or the job seconds a server reports inside
 * a client round trip (placed at the end of the round trip: only the
 * duration is observable, and self time needs only the duration).
 */
void recordChildSpan(const char *name, Layer layer, double start,
                     double end);

} // namespace rfv::perfbench

#endif // RFV_PERFBENCH_TRACE_H
