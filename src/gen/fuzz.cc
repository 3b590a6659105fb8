#include "gen/fuzz.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "analysis/mutation.h"
#include "analysis/verifier.h"
#include "common/decimal.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "gen/minimize.h"
#include "sim/gpu.h"

namespace rfv {

namespace {

// SeedSeq child-stream layout under one scenario node.  Frozen:
// corpus entries address scenarios by (seed, index).
constexpr u64 kStreamKnobs = 0; //!< spec knob draws
constexpr u64 kStreamSpec = 1;  //!< becomes GenSpec::seed

/** The config palette scenarios draw from (index order frozen). */
RunConfig
paletteConfig(u32 pick)
{
    switch (pick % 4) {
      case 0: return RunConfig::baseline();
      case 1: return RunConfig::virtualized(false);
      case 2: return RunConfig::virtualized(true);
      default: return RunConfig::gpuShrink(50);
    }
}

/**
 * Bit-identity comparison for the differential oracles.  LoopStats is
 * deliberately excluded: the event-driven loop *accounts* cycles
 * differently from the naive loop (skipped vs stepped) while producing
 * the same architectural results — which is exactly the equivalence
 * under test — and the result-cache key canonicalizes eventDriven, so
 * a cached replay may carry the other loop's accounting.
 */
bool
equivalentOutcomes(const RunOutcome &a, const RunOutcome &b)
{
    return a.workload == b.workload && a.launch == b.launch &&
           a.compile == b.compile && a.sim == b.sim &&
           a.energy == b.energy && a.verified == b.verified &&
           a.verify == b.verify;
}

/**
 * Outcome of one injected release-flag fault, mirroring the layered
 * criterion in test_verifier_mutation.cc: the static verifier should
 * notice almost everything, the runtime lifecycle lint catches most of
 * the rest, and a handful of flips are genuinely benign (e.g. a
 * release moved past the register's last read).  Only a flip that
 * evades both layers AND corrupts the output is a fuzz failure.
 */
enum class MutationVerdict : u8 {
    kNoMetadata, //!< program has no release flags to flip
    kStatic,     //!< verifier diag-key set moved vs the clean program
    kRuntime,    //!< lifecycle lint (or a validator panic) trapped
    kBenign,     //!< ran clean and the output is still correct
    kSilent,     //!< undetected wrong output — the worst case
};

std::set<u64>
diagKeys(const VerifyResult &r)
{
    std::set<u64> keys;
    for (const auto &d : r.diags)
        keys.insert(d.key());
    return keys;
}

MutationVerdict
judgeMutation(SweepEngine &engine, const GenSpec &spec,
              const RunConfig &config, u32 mutationIndex,
              std::string *detail)
{
    SweepJob job;
    job.workload = spec.name();
    job.config = config;
    const PreparedJob p = engine.prepare(job);
    const Program &prog = p.compiled->kernel.program;
    const auto mutations = enumerateReleaseMutations(prog);
    if (mutations.empty())
        return MutationVerdict::kNoMetadata;
    const ReleaseMutation &m = mutations[mutationIndex % mutations.size()];
    if (detail)
        *detail = m.str();
    const Program mutant = applyReleaseMutation(prog, m);

    if (diagKeys(verifyReleaseSoundness(mutant)) !=
        diagKeys(verifyReleaseSoundness(prog)))
        return MutationVerdict::kStatic;

    GpuConfig cfg = p.gpu;
    cfg.regFile.lifecycleLint = true;
    // A premature free can deadlock the mutant; bound the run well
    // below the production ceiling so a hang reads as detection (the
    // cycle-limit panic) rather than a stuck fuzzer.
    cfg.maxCycles = std::min<Cycle>(cfg.maxCycles, 1'000'000);
    GlobalMemory mem(p.workload->memoryBytes(p.launch));
    p.workload->setup(mem, p.launch);
    try {
        Gpu gpu(cfg, mutant, p.launch, mem);
        gpu.run();
    } catch (const InternalError &) {
        return MutationVerdict::kRuntime;
    }

    try {
        p.workload->verify(mem, p.launch);
    } catch (const InternalError &) {
        return MutationVerdict::kSilent;
    }
    return MutationVerdict::kBenign;
}

/**
 * The failure text of a mutation verdict, or nullopt when it passes.
 * @p detail names the injected fault.  Corpus `caught` entries
 * (@p expectCaught) pin *detection*, not mere absence of corruption:
 * a fault that degrades to benign means the detector regressed.
 */
std::optional<std::string>
mutationFailure(MutationVerdict v, const std::string &detail,
                bool expectCaught)
{
    if (v == MutationVerdict::kNoMetadata)
        return std::string("mutation oracle needs release "
                           "metadata (virtualized config)");
    if (v == MutationVerdict::kSilent)
        return "SILENT corruption: injected release-flag fault " + detail +
               " produced wrong output with no static or "
               "runtime detection";
    if (expectCaught && v == MutationVerdict::kBenign)
        return "injected release-flag fault " + detail +
               " is no longer detected (was expect=caught)";
    return std::nullopt;
}

FuzzFailure
makeFailure(const FuzzScenario &sc, FuzzOracle oracle,
            std::string detail)
{
    FuzzFailure f;
    f.scenario = sc;
    f.oracle = oracle;
    f.detail = std::move(detail);
    f.minimized = sc.spec;
    return f;
}

/**
 * Evaluate one oracle on (spec, config).  Shared by the fresh-scenario
 * path and corpus replay so a committed reproducer re-runs the exact
 * check that found it.
 */
std::optional<std::string>
runOracle(SweepEngine &engine, const GenSpec &spec,
          const RunConfig &config, FuzzOracle oracle, u32 mutationIndex,
          bool expectCaught)
{
    SweepJob job;
    job.workload = spec.name();
    job.config = config;

    switch (oracle) {
      case FuzzOracle::kSelfCheck: {
        // Through the cached execute() path: generated jobs exercise
        // the same artifact-store + result-cache machinery as sweep
        // manifests (and CI replays them warm).
        const SweepJobResult r = engine.execute(job);
        if (!r.ok())
            return serviceStatusName(r.status) + std::string(": ") + r.error;
        return std::nullopt;
      }
      case FuzzOracle::kSoundness: {
        const SweepJobResult r = engine.execute(job);
        if (!r.ok())
            return serviceStatusName(r.status) + std::string(": ") + r.error;
        if (!r.outcome.verified)
            return std::string("soundness oracle needs a verifying "
                               "config (verifyReleases=true)");
        if (!r.outcome.verify.ok())
            return "release-flag verifier reported " +
                   std::to_string(r.outcome.verify.numErrors) +
                   " error(s): " + r.outcome.verify.str();
        return std::nullopt;
      }
      case FuzzOracle::kDiffLoop: {
        SweepJob naive = job;
        naive.config.eventDriven = !job.config.eventDriven;
        // executeLive on both sides: the cache canonicalizes away
        // eventDriven (it does not change results — that is the claim
        // under test), so a cached compare would test nothing.
        const RunOutcome a = engine.executeLive(engine.prepare(job));
        const RunOutcome b = engine.executeLive(engine.prepare(naive));
        if (!equivalentOutcomes(a, b))
            return std::string("event-driven and naive cycle loops "
                               "disagree (sim/energy/compile)");
        return std::nullopt;
      }
      case FuzzOracle::kReplay: {
        const RunOutcome live = engine.executeLive(engine.prepare(job));
        // The codec must be exact, LoopStats included: it is both the
        // disk-tier entry format and the wire's RESULT blob.
        std::stringstream blob;
        ResultCache::serialize(blob, live);
        try {
            if (!(ResultCache::deserialize(blob) == live))
                return std::string("result codec round trip changed "
                                   "the outcome");
        } catch (const std::exception &e) {
            return std::string("result codec cannot read its own "
                               "output: ") +
                   e.what();
        }
        // A memory-tier hit after the self-check oracle (a disk-tier
        // hit on a warm cache directory) must replay the live run.
        const SweepJobResult r = engine.execute(job);
        if (!r.ok())
            return serviceStatusName(r.status) + std::string(": ") + r.error;
        if (!equivalentOutcomes(r.outcome, live))
            return std::string("cached replay and live run disagree "
                               "(sim/energy/compile)");
        return std::nullopt;
      }
      case FuzzOracle::kMutation: {
        std::string detail;
        const MutationVerdict v = judgeMutation(
            engine, spec, config, mutationIndex, &detail);
        return mutationFailure(v, detail, expectCaught);
      }
    }
    return std::string("unknown oracle");
}

} // namespace

const char *
fuzzOracleName(FuzzOracle o)
{
    switch (o) {
      case FuzzOracle::kSelfCheck: return "selfcheck";
      case FuzzOracle::kSoundness: return "soundness";
      case FuzzOracle::kDiffLoop: return "diff-loop";
      case FuzzOracle::kReplay: return "replay";
      case FuzzOracle::kMutation: return "mutation";
    }
    return "?";
}

FuzzScenario
deriveScenario(u64 seed, u64 index, u64 mutateEvery)
{
    FuzzScenario sc;
    sc.index = index;
    const SeedSeq node = SeedSeq(seed).child(index);
    Rng rng = node.child(kStreamKnobs).rng();

    GenSpec &s = sc.spec;
    s.seed = node.child(kStreamSpec).seed();
    // Knob draws in FROZEN order (see header).
    s.depth = 1 + static_cast<u32>(rng.below(3));        // 1..3
    s.blocks = 4 + static_cast<u32>(rng.below(7));       // 4..10
    s.loopWeight = static_cast<u32>(rng.below(4));       // 0..3
    s.branchWeight = static_cast<u32>(rng.below(5));     // 0..4
    s.memWeight = static_cast<u32>(rng.below(5));        // 0..4
    s.regs = 8 + static_cast<u32>(rng.below(17));        // 8..24
    s.longLived = static_cast<u32>(rng.below(s.regs / 2 + 1));
    s.auxStores =
        rng.chance(1, 4) ? 1 + static_cast<u32>(rng.below(2)) : 0;
    s.exchanges = rng.chance(1, 3);
    s.earlyExits = rng.chance(1, 2);
    s.threadsPerCta = 32u << rng.below(4);               // 32..256
    s.ctas = 4 + static_cast<u32>(rng.below(13));        // 4..16
    s.concCtasPerSm = 2 + static_cast<u32>(rng.below(5)); // 2..6

    const u32 pick = static_cast<u32>(rng.below(4));
    sc.injectMutation = mutateEvery > 0 && index % mutateEvery == 0;
    // Injection needs release metadata, so force a virtualized config
    // for those scenarios; others draw from the full palette.
    sc.config =
        sc.injectMutation ? paletteConfig(1 + pick % 2) : paletteConfig(pick);
    sc.mutationIndex = static_cast<u32>(rng.below(1u << 16));
    // The soundness oracle needs the verifier's diagnostics.
    if (sc.config.virtualize)
        sc.config.verifyReleases = true;
    return sc;
}

std::optional<FuzzFailure>
checkScenario(SweepEngine &engine, const FuzzScenario &sc,
              FuzzReport *report)
{
    // Oracle order: cheapest structural check last (mutation), the
    // self-check first — a wrong-output kernel makes every other
    // comparison moot.
    const FuzzOracle oracles[] = {
        FuzzOracle::kSelfCheck,
        FuzzOracle::kSoundness,
        FuzzOracle::kDiffLoop,
        FuzzOracle::kReplay,
    };
    for (FuzzOracle o : oracles) {
        if (o == FuzzOracle::kSoundness && !sc.config.verifyReleases)
            continue; // baseline compilations have nothing to verify
        if (report)
            ++report->oracleChecks;
        auto detail = runOracle(engine, sc.spec, sc.config, o,
                                sc.mutationIndex, false);
        if (detail)
            return makeFailure(sc, o, std::move(*detail));
    }
    if (sc.injectMutation) {
        if (report)
            ++report->oracleChecks;
        std::string detail;
        const MutationVerdict v = judgeMutation(
            engine, sc.spec, sc.config, sc.mutationIndex, &detail);
        if (auto failure = mutationFailure(v, detail, false))
            return makeFailure(sc, FuzzOracle::kMutation,
                               std::move(*failure));
        if (report) {
            if (v == MutationVerdict::kBenign)
                ++report->mutationsBenign;
            else
                ++report->mutationsCaught;
        }
    }
    return std::nullopt;
}

FuzzReport
runFuzz(const FuzzOptions &opts)
{
    const auto start = std::chrono::steady_clock::now();

    SweepOptions sweepOpts;
    sweepOpts.jobs = 1; // parallelism lives at the scenario level
    sweepOpts.cacheDir = opts.cacheDir;
    sweepOpts.useCache = opts.useCache;
    SweepEngine engine(sweepOpts);

    FuzzReport report;
    report.scenarios = opts.scenarios;

    Mutex mu;
    FuzzReport shared; // counters + failures merged under mu
    WorkStealingPool pool(opts.jobs);
    pool.run(static_cast<u32>(opts.scenarios), [&](u32 i, u32 /*worker*/) {
        const FuzzScenario sc = deriveScenario(opts.seed, i, opts.mutateEvery);
        FuzzReport local;
        auto failure = checkScenario(engine, sc, &local);
        MutexLock lock(mu);
        shared.oracleChecks += local.oracleChecks;
        shared.mutationsCaught += local.mutationsCaught;
        shared.mutationsBenign += local.mutationsBenign;
        if (failure)
            shared.failures.push_back(std::move(*failure));
    });
    report.oracleChecks = shared.oracleChecks;
    report.mutationsCaught = shared.mutationsCaught;
    report.mutationsBenign = shared.mutationsBenign;
    report.failures = std::move(shared.failures);

    // Deterministic output order regardless of worker interleaving.
    std::sort(report.failures.begin(), report.failures.end(),
              [](const FuzzFailure &a, const FuzzFailure &b) {
                  return a.scenario.index < b.scenario.index;
              });

    if (opts.minimize) {
        for (FuzzFailure &f : report.failures) {
            const RunConfig &config = f.scenario.config;
            const FuzzOracle oracle = f.oracle;
            const u32 mutIdx = f.scenario.mutationIndex;
            const bool expectCaught = oracle == FuzzOracle::kMutation;
            const auto stillFails = [&](const GenSpec &candidate) {
                // Fresh live-only engine per probe: a shrunken spec
                // must reproduce from nothing but its name.
                SweepOptions probeOpts;
                probeOpts.useCache = false;
                SweepEngine probe(probeOpts);
                return runOracle(probe, candidate, config, oracle,
                                 mutIdx, expectCaught)
                    .has_value();
            };
            const MinimizeResult m = minimizeSpec(
                f.scenario.spec, stillFails, opts.minimizeBudget);
            f.minimized = m.spec;
            f.shrinkTests = m.testsRun;
        }
    }

    report.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return report;
}

RunConfig
fuzzConfigForLabel(const std::string &label)
{
    const RunConfig palette[] = {
        RunConfig::baseline(),
        RunConfig::virtualized(false),
        RunConfig::virtualized(true),
        RunConfig::gpuShrink(50),
        RunConfig::gpuShrink(75),
        RunConfig::hardwareOnly(false),
    };
    for (const RunConfig &cfg : palette) {
        if (cfg.label == label) {
            RunConfig out = cfg;
            if (out.virtualize)
                out.verifyReleases = true;
            return out;
        }
    }
    fatal("unknown fuzz config label: " + label);
}

std::string
corpusLine(const FuzzFailure &f)
{
    std::string line = "spec=" + f.minimized.name() +
                       " config=" + f.scenario.config.label +
                       " oracle=" + fuzzOracleName(f.oracle);
    if (f.oracle == FuzzOracle::kMutation)
        line += " expect=caught mutation=" +
                std::to_string(f.scenario.mutationIndex);
    else
        line += " expect=pass";
    return line;
}

bool
parseCorpusLine(const std::string &line, CorpusEntry &entry,
                std::string &error)
{
    // Strip comments; blank lines return false with an empty error.
    error.clear();
    std::string body = line.substr(0, line.find('#'));
    CorpusEntry out;
    bool haveSpec = false, haveConfig = false, haveOracle = false,
         haveExpect = false;
    size_t pos = 0;
    while (pos < body.size()) {
        while (pos < body.size() && body[pos] == ' ')
            ++pos;
        size_t end = body.find(' ', pos);
        if (end == std::string::npos)
            end = body.size();
        const std::string tok = body.substr(pos, end - pos);
        pos = end;
        if (tok.empty())
            continue;
        const size_t eq = tok.find('=');
        if (eq == std::string::npos) {
            error = "corpus token missing '=': " + tok;
            return false;
        }
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        if (key == "spec") {
            if (!GenSpec::parse(val, out.spec, error))
                return false;
            haveSpec = true;
        } else if (key == "config") {
            out.configLabel = val;
            haveConfig = true;
        } else if (key == "oracle") {
            haveOracle = false;
            for (u8 o = 0; o <= static_cast<u8>(FuzzOracle::kMutation);
                 ++o) {
                if (val == fuzzOracleName(static_cast<FuzzOracle>(o))) {
                    out.oracle = static_cast<FuzzOracle>(o);
                    haveOracle = true;
                }
            }
            if (!haveOracle) {
                error = "unknown corpus oracle: " + val;
                return false;
            }
        } else if (key == "expect") {
            if (val != "pass" && val != "caught") {
                error = "corpus expect must be pass|caught: " + val;
                return false;
            }
            out.expectCaught = val == "caught";
            haveExpect = true;
        } else if (key == "mutation") {
            if (!parseCanonical(val, out.mutationIndex)) {
                error = "bad corpus mutation index: " + val;
                return false;
            }
        } else {
            error = "unknown corpus key: " + key;
            return false;
        }
    }
    if (!haveSpec && !haveConfig && !haveOracle && !haveExpect)
        return false; // blank/comment-only line
    if (!(haveSpec && haveConfig && haveOracle && haveExpect)) {
        error = "corpus line missing required keys: " + line;
        return false;
    }
    entry = std::move(out);
    return true;
}

std::optional<std::string>
replayCorpusEntry(SweepEngine &engine, const CorpusEntry &entry)
{
    const RunConfig config = fuzzConfigForLabel(entry.configLabel);
    return runOracle(engine, entry.spec, config, entry.oracle,
                     entry.mutationIndex, entry.expectCaught);
}

} // namespace rfv
