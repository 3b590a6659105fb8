/**
 * @file
 * Seed-addressed generated-kernel specification.
 *
 * A GenSpec is the *complete* identity of one generated kernel: the
 * seed plus every knob the generator consults — CFG shape, register
 * pressure, memory intensity, launch geometry, and the minimizer's
 * prune list.  The canonical `gen:` name encoding makes generated
 * kernels first-class workloads: anything that names workloads by
 * string (sweep manifests, the simd daemon, cluster routing keys, the
 * result cache) addresses a generated kernel exactly as it addresses
 * a Table-1 benchmark, and two processes that parse the same name
 * build byte-identical programs.
 *
 * The encoding is colon/dot-separated (never commas) so spec names
 * survive the CSV outputs of run_sweep/simd_client unquoted.
 */
#ifndef RFV_GEN_GEN_SPEC_H
#define RFV_GEN_GEN_SPEC_H

#include <string>
#include <vector>

#include "common/types.h"

namespace rfv {

/** Name prefix that routes a workload string to the generator. */
inline constexpr const char *kGenWorkloadPrefix = "gen:";

/** Words in the read-only input region of every generated kernel. */
inline constexpr u32 kGenInputWords = 4096;

/** Everything the kernel generator consults.  Deterministic identity. */
struct GenSpec {
    u64 seed = 1; //!< root of the generator's SeedSeq streams

    // ---- CFG shape -----------------------------------------------------
    u32 depth = 2;        //!< max nesting depth for loops/ifs
    u32 blocks = 8;       //!< top-level constructs
    u32 loopWeight = 2;   //!< relative weight of loop constructs
    u32 branchWeight = 3; //!< relative weight of if/else constructs

    // ---- register-pressure profile -------------------------------------
    u32 regs = 16;      //!< virtual value registers (>= 4)
    u32 longLived = 4;  //!< regs folded into the final checksum (kept
                        //!< live to the kernel's last instruction)

    // ---- memory intensity ----------------------------------------------
    u32 memWeight = 3;     //!< relative weight of global-load constructs
    u32 auxStores = 0;     //!< extra per-thread output words (aux stg)
    bool exchanges = false; //!< shared-memory exchange stages (pow2 CTA)
    bool earlyExits = true; //!< guarded per-lane exit constructs

    // ---- launch geometry -----------------------------------------------
    u32 ctas = 8;
    u32 threadsPerCta = 64;
    u32 concCtasPerSm = 4;

    /**
     * IR node ids dropped before lowering (delta-debugging shrink
     * state).  Pruning never perturbs the RNG: the IR is built in
     * full first, then pruned, so the surviving constructs are
     * byte-identical to the unpruned kernel's.  Kept sorted/unique by
     * validate().
     */
    std::vector<u32> prune;

    bool operator==(const GenSpec &) const = default;

    /**
     * Canonical name, e.g.
     * `gen:s5:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4:p3.17`.
     * parse(name(x)) == x for every valid spec.
     */
    std::string name() const;

    /**
     * Parse a canonical name.  Returns false with @p error set on
     * anything malformed (wrong prefix, unknown field, unparsable
     * number, impossible knobs) and on any name other than name() of
     * the spec it reads (a missing, repeated or reordered field, a
     * leading zero, an unsorted or duplicate prune list) — never a
     * silent default, never an alias.
     */
    static bool parse(const std::string &name, GenSpec &spec,
                      std::string &error);

    /**
     * Clamp-free strict validation; throws ConfigError on impossible
     * knobs (zero geometry, non-power-of-two CTA with exchanges,
     * pressure bounds).  Also canonicalizes the prune list
     * (sort + dedup) so equal kernels have equal names.
     */
    void validate();
};

} // namespace rfv

#endif // RFV_GEN_GEN_SPEC_H
