/**
 * @file
 * Content hashing for the batch engine: programs, configurations and
 * cache keys.
 *
 * Two independent 64-bit lanes give a 128-bit digest — not
 * cryptographic, but collision odds are negligible for the corpus
 * sizes a sweep cache sees, and the function is exactly reproducible
 * across builds and platforms (explicit field-by-field hashing, no
 * raw struct memory, no pointer values).
 *
 * Canonicalization: the result-cache key must identify the *simulated
 * outcome*, so fields proven not to affect results are normalized out
 * before hashing — RunConfig::label (cosmetic) and eventDriven
 * (bit-identical by test_event_equivalence).  Every other GpuConfig and
 * RunConfig field feeds the key, so changing any of them invalidates
 * cached results (tests/test_sweep_cache.cc exercises this field by
 * field).
 */
#ifndef RFV_SERVICE_HASH_H
#define RFV_SERVICE_HASH_H

#include <cstddef>
#include <string>

#include "compiler/pipeline.h"
#include "core/run_config.h"
#include "isa/program.h"

namespace rfv {

/** 128-bit content digest. */
struct Hash128 {
    u64 hi = 0;
    u64 lo = 0;

    /** 32 lowercase hex chars (filename-safe cache key). */
    std::string hex() const;

    bool operator==(const Hash128 &) const = default;
};

/** Incremental two-lane hasher. */
class Hasher {
  public:
    void bytes(const void *data, size_t len);

    void
    u64v(u64 v)
    {
        bytes(&v, sizeof(v));
    }

    void
    u32v(u32 v)
    {
        u64v(v);
    }

    void
    i32v(i32 v)
    {
        u64v(static_cast<u64>(static_cast<i64>(v)));
    }

    void
    boolv(bool v)
    {
        u64v(v ? 1 : 0);
    }

    /** Doubles hash by bit pattern: exact, no rounding ambiguity. */
    void f64v(double v);

    /** Length-prefixed, so "ab"+"c" and "a"+"bc" differ. */
    void str(const std::string &s);

    template <typename E>
    void
    enumv(E e)
    {
        u64v(static_cast<u64>(e));
    }

    Hash128
    digest() const
    {
        return {hi_, lo_};
    }

  private:
    u64 hi_ = 0xcbf29ce484222325ull; //!< FNV-1a lane
    u64 lo_ = 0x9e3779b97f4a7c15ull; //!< mix-rotate lane
};

/**
 * Hash a program's semantic content: every instruction field the
 * simulator or compiler can observe, plus kernel-level metadata.
 * The program *name* is excluded — identical code under different
 * names is the same content (the result-cache key carries the
 * workload identity separately).
 */
Hash128 hashProgram(const Program &prog);

/**
 * Feed every result-relevant GpuConfig field into @p h, with the
 * canonicalized field (eventDriven) normalized out.
 */
void addGpuConfig(Hasher &h, const GpuConfig &cfg);

/** Feed a full CompileOptions into @p h. */
void addCompileOptions(Hasher &h, const CompileOptions &opts);

/**
 * Canonical configuration digest of a RunConfig: the derived GpuConfig
 * (via Simulator::gpuConfig) plus the compile- and launch-relevant
 * RunConfig extras.  label and eventDriven do not feed the digest.
 */
Hash128 canonicalConfigHash(const RunConfig &cfg);

/** Test seam: same as above but with an explicit derived GpuConfig. */
Hash128 canonicalConfigHash(const RunConfig &cfg, const GpuConfig &gpu);

/**
 * Result-cache key: workload identity x program content x canonical
 * config x launch geometry x simulator version.
 */
Hash128 resultKey(const std::string &workload, const Hash128 &programHash,
                  const Hash128 &configHash, const LaunchParams &launch,
                  const std::string &simVersion);

/**
 * Cluster routing key: workload identity x canonical config.  A
 * strict coarsening of resultKey — every field of the full key is a
 * function of (workload, config), so all cache keys that share a
 * routing key land on the same ring owner — computable identically
 * by client and server without assembling or compiling the program
 * (the expensive inputs to resultKey).
 */
Hash128 routingKey(const std::string &workload, const RunConfig &cfg);

} // namespace rfv

#endif // RFV_SERVICE_HASH_H
