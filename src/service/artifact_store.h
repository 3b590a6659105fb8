/**
 * @file
 * Content-addressed store of immutable per-program artifacts, shared
 * across every job of a sweep (and across repeats of the same job).
 *
 * A batch manifest runs the same workload under many configurations;
 * without sharing, every job re-assembles the kernel, re-runs the
 * compile pipeline, re-verifies and re-builds the DecodeCache — all
 * deterministic functions of (program, options).  The store memoizes
 * each level by content hash:
 *
 *   input program   keyed by workload name (assembled once, hashed once)
 *   compiled kernel keyed by (input hash, CompileOptions)
 *   verify result   keyed by compiled-program hash
 *   decode cache    keyed by (compiled hash, decode-relevant GpuConfig)
 *
 * All getters are thread-safe: the first caller builds while
 * concurrent callers for the same key block on a shared_future, so an
 * artifact is built exactly once per process regardless of scheduling
 * (this is the fix for the duplicate DecodeCache construction the
 * one-shot drivers suffered when sweeping configs in-process).  The
 * DecodeCache's build-time cross-check against the on-demand decode
 * path still runs — once, on the building thread.
 */
#ifndef RFV_SERVICE_ARTIFACT_STORE_H
#define RFV_SERVICE_ARTIFACT_STORE_H

#include <future>
#include <memory>
#include <string>
#include <unordered_map>

#include "analysis/verifier.h"
#include "common/sync.h"
#include "compiler/pipeline.h"
#include "service/hash.h"
#include "sim/decode_cache.h"

namespace rfv {

/** Assembled (metadata-free) input program plus its content hash. */
struct InputArtifact {
    Program program;
    Hash128 hash;
};

/** One compile-pipeline output plus the compiled program's hash. */
struct CompiledArtifact {
    CompiledKernel kernel;
    Hash128 programHash; //!< hash of kernel.program (post-compile)
};

/** One DecodeCache (immutable after construction). */
struct DecodeArtifact {
    DecodeCache cache;

    DecodeArtifact(const Program &prog, const GpuConfig &cfg)
        : cache(prog, cfg)
    {
    }
};

class ArtifactStore {
  public:
    struct Stats {
        Counter programsBuilt;
        Counter programsReused;
        Counter compilesBuilt;
        Counter compilesReused;
        Counter verifiesBuilt;
        Counter verifiesReused;
        Counter decodesBuilt;
        Counter decodesReused;

        template <class Fn>
        static void
        fields(Fn &&fn)
        {
            fn("programs_built", &Stats::programsBuilt);
            fn("programs_reused", &Stats::programsReused);
            fn("compiles_built", &Stats::compilesBuilt);
            fn("compiles_reused", &Stats::compilesReused);
            fn("verifies_built", &Stats::verifiesBuilt);
            fn("verifies_reused", &Stats::verifiesReused);
            fn("decodes_built", &Stats::decodesBuilt);
            fn("decodes_reused", &Stats::decodesReused);
        }
    };

    /** Assemble (via @p build) or reuse the input program for @p name. */
    std::shared_ptr<const InputArtifact>
    inputProgram(const std::string &name,
                 const std::function<Program()> &build);

    /** Compile or reuse @p input under @p opts. */
    std::shared_ptr<const CompiledArtifact>
    compiled(const std::shared_ptr<const InputArtifact> &input,
             const CompileOptions &opts);

    /** Run or reuse the release-soundness verifier for @p ck. */
    std::shared_ptr<const VerifyResult>
    verifyFor(const std::shared_ptr<const CompiledArtifact> &ck);

    /** Build or reuse the DecodeCache for @p ck under @p gpu. */
    std::shared_ptr<const DecodeArtifact>
    decode(const std::shared_ptr<const CompiledArtifact> &ck,
           const GpuConfig &gpu);

    Stats stats() const { return stats_; }

  private:
    /**
     * get-or-build memo: exactly one build per key; racing callers
     * block on the builder's shared_future.  A build that throws
     * propagates to every waiter.
     */
    template <typename V>
    class Memo {
      public:
        Memo(Counter &built, Counter &reused)
            : built_(built), reused_(reused)
        {
        }

        std::shared_ptr<const V>
        getOrBuild(const std::string &key,
                   const std::function<std::shared_ptr<const V>()> &build)
        {
            std::shared_future<std::shared_ptr<const V>> fut;
            std::promise<std::shared_ptr<const V>> mine;
            bool builder = false;
            {
                MutexLock lk(mu_);
                auto it = map_.find(key);
                if (it != map_.end()) {
                    ++reused_;
                    fut = it->second;
                } else {
                    fut = mine.get_future().share();
                    map_.emplace(key, fut);
                    builder = true;
                }
            }
            if (builder) {
                ++built_;
                try {
                    mine.set_value(build());
                } catch (...) {
                    mine.set_exception(std::current_exception());
                }
            }
            return fut.get();
        }

      private:
        Counter &built_;
        Counter &reused_;
        Mutex mu_;
        std::unordered_map<std::string,
                           std::shared_future<std::shared_ptr<const V>>>
            map_ RFV_GUARDED_BY(mu_);
    };

    Stats stats_; //!< declared first: each Memo counts into two fields
    Memo<InputArtifact> inputs_{stats_.programsBuilt, stats_.programsReused};
    Memo<CompiledArtifact> compiles_{stats_.compilesBuilt,
                                     stats_.compilesReused};
    Memo<VerifyResult> verifies_{stats_.verifiesBuilt,
                                 stats_.verifiesReused};
    Memo<DecodeArtifact> decodes_{stats_.decodesBuilt, stats_.decodesReused};
};

} // namespace rfv

#endif // RFV_SERVICE_ARTIFACT_STORE_H
