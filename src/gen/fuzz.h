/**
 * @file
 * Differential fuzz driver over generated kernels.
 *
 * Each *scenario* is a (GenSpec, RunConfig) pair derived from a root
 * seed through SeedSeq child streams, executed under four oracles:
 *
 *   1. self-check   — the generated kernel's output image matches the
 *                     host reference (GenWorkload::verify, exercised
 *                     through the cached SweepEngine::execute path so
 *                     generated jobs behave exactly like sweep jobs)
 *   2. soundness    — the static release-flag verifier reports zero
 *                     errors on the virtualized compilation
 *   3. diff-loop    — the event-driven and naive cycle loops produce
 *                     bit-identical results (sim/energy/compile)
 *   4. replay       — one live outcome survives the result codec
 *                     (ResultCache::serialize/deserialize, also the
 *                     wire's RESULT blob) unchanged, LoopStats
 *                     included, and the cache-backed execute() path
 *                     replays the same results
 *
 * Scenarios can additionally *inject* a release-flag fault
 * (applyReleaseMutation on the compiled program) and assert the
 * layered defense handles it — static verifier diag drift, runtime
 * lifecycle-lint trap, or provably benign output; a fault that evades
 * both layers and corrupts the output is a failure.  The fuzzer
 * fuzzes its own referee.
 *
 * Any failing scenario is shrunk by the delta-debugging minimizer
 * (minimize.h) and rendered as a one-line corpus entry; the committed
 * regression corpus (tests/corpus/fuzz/) is replayed by test_fuzz and
 * `run_fuzz --corpus`.
 */
#ifndef RFV_GEN_FUZZ_H
#define RFV_GEN_FUZZ_H

#include <optional>
#include <string>
#include <vector>

#include "gen/gen_spec.h"
#include "service/sweep.h"

namespace rfv {

/** The four scenario oracles plus the fault-injection meta-oracle. */
enum class FuzzOracle : u8 {
    kSelfCheck,
    kSoundness,
    kDiffLoop,
    kReplay,
    kMutation, //!< injected fault: detected, benign, or SILENT (fail)
};

const char *fuzzOracleName(FuzzOracle o);

/** One derived (kernel, config) test case. */
struct FuzzScenario {
    u64 index = 0;
    GenSpec spec;
    RunConfig config;
    bool injectMutation = false;
    u32 mutationIndex = 0; //!< draw into enumerateReleaseMutations()
};

/** One confirmed oracle violation (pre- and post-minimization). */
struct FuzzFailure {
    FuzzScenario scenario;
    FuzzOracle oracle = FuzzOracle::kSelfCheck;
    std::string detail;
    GenSpec minimized;  //!< == scenario.spec until minimized
    u32 shrinkTests = 0; //!< predicate evaluations the minimizer spent
};

struct FuzzOptions {
    u64 seed = 1;        //!< root of all scenario derivation
    u64 scenarios = 100;
    u32 jobs = 1;        //!< scenario-level worker threads
    std::string cacheDir; //!< self-check oracle cache ("" = memory only)
    bool useCache = true;
    /** Every Nth scenario injects a release-flag fault (0 = never). */
    u64 mutateEvery = 0;
    bool minimize = true;    //!< shrink failures before reporting
    u32 minimizeBudget = 400; //!< predicate-evaluation cap per failure
};

struct FuzzReport {
    u64 scenarios = 0;
    u64 oracleChecks = 0;     //!< individual oracle evaluations
    u64 mutationsCaught = 0;  //!< faults flagged statically or at runtime
    /**
     * Injected faults that evaded both detection layers but left the
     * output correct (e.g. a release moved past the register's last
     * read).  These are not failures — only *silent corruption* is —
     * mirroring test_verifier_mutation.cc's ≥95% layered-rate contract
     * rather than demanding an impossible 100%.
     */
    u64 mutationsBenign = 0;
    std::vector<FuzzFailure> failures;
    double wallSeconds = 0;

    bool ok() const { return failures.empty(); }
};

/**
 * Scenario @p index of root @p seed.  Frozen derivation: committed
 * corpus entries name scenarios by (seed, index), so changing the knob
 * draws below is corpus-invalidating (see SeedSeq).
 */
FuzzScenario deriveScenario(u64 seed, u64 index, u64 mutateEvery);

/**
 * Run every oracle on @p sc; first violation wins.  Thread-safe for
 * distinct scenarios over a shared engine.  nullopt = all green.
 */
std::optional<FuzzFailure> checkScenario(SweepEngine &engine,
                                         const FuzzScenario &sc,
                                         FuzzReport *report = nullptr);

/** Drive @p opts.scenarios scenarios, minimizing any failures. */
FuzzReport runFuzz(const FuzzOptions &opts);

// ---- Regression corpus ---------------------------------------------------

/**
 * One committed reproducer.  Line format (space-separated, no commas —
 * corpus lines must survive CSV-ish logs unquoted):
 *
 *   spec=<gen:...> config=<label> oracle=<name> expect=<pass|caught>
 *       [mutation=<idx>] [# comment]
 *
 * The spec is a canonical GenSpec::name() and idx a canonical decimal
 * below 2^32; any other spelling is a malformed line.
 */
struct CorpusEntry {
    GenSpec spec;
    std::string configLabel;
    FuzzOracle oracle = FuzzOracle::kSelfCheck;
    bool expectCaught = false; //!< true: injected fault must be caught
    u32 mutationIndex = 0;
};

/** The RunConfig behind a corpus config label (fatal on unknown). */
RunConfig fuzzConfigForLabel(const std::string &label);

/** Render @p f as a corpus line (minimized spec, matching oracle). */
std::string corpusLine(const FuzzFailure &f);

/** Parse one corpus line; false on blank/comment lines. */
bool parseCorpusLine(const std::string &line, CorpusEntry &entry,
                     std::string &error);

/**
 * Re-run one corpus entry.  Green means: a `pass` entry passes every
 * oracle, a `caught` entry's injected fault is still detected.
 * Returns the failure detail, or nullopt when green.
 */
std::optional<std::string> replayCorpusEntry(SweepEngine &engine,
                                             const CorpusEntry &entry);

} // namespace rfv

#endif // RFV_GEN_FUZZ_H
