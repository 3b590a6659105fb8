/**
 * @file
 * Fuzz subsystem contracts: scenario derivation stability, corpus
 * parsing, the delta-debugging minimizer, and replay of the committed
 * regression corpus (every fixed bug stays fixed, every pinned
 * injected fault stays detected).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "gen/fuzz.h"
#include "gen/kernel_generator.h"
#include "gen/minimize.h"

namespace rfv {
namespace {

constexpr const char *kCorpusPath =
    RFV_SOURCE_DIR "/tests/corpus/fuzz/regressions.txt";

TEST(FuzzScenario, DerivationIsDeterministic)
{
    for (u64 index : {0ull, 1ull, 17ull, 999ull}) {
        const FuzzScenario a = deriveScenario(7, index, 5);
        const FuzzScenario b = deriveScenario(7, index, 5);
        EXPECT_EQ(a.spec, b.spec);
        EXPECT_EQ(a.config.label, b.config.label);
        EXPECT_EQ(a.mutationIndex, b.mutationIndex);
        EXPECT_EQ(a.injectMutation, b.injectMutation);
    }
}

/**
 * Frozen derivation pin: corpus entries and CI logs address scenarios
 * by (seed, index), so the knob-draw order is part of the corpus
 * format.  A change here is corpus-invalidating — see SeedSeq.
 */
TEST(FuzzScenario, DerivationIsFrozen)
{
    const FuzzScenario sc = deriveScenario(1, 0, 5);
    EXPECT_EQ(sc.spec.name(), "gen:s4537502152590461987:d3:b5:r19:l1:w2.1.4:a0:x10:g11x64x6");
    EXPECT_TRUE(sc.injectMutation);

    // Distinct indices draw distinct kernels (no stream aliasing).
    const FuzzScenario other = deriveScenario(1, 1, 5);
    EXPECT_NE(other.spec, sc.spec);
    EXPECT_FALSE(other.injectMutation);
}

TEST(FuzzScenario, MutationCadence)
{
    for (u64 i = 0; i < 12; ++i) {
        EXPECT_EQ(deriveScenario(3, i, 4).injectMutation, i % 4 == 0);
        EXPECT_FALSE(deriveScenario(3, i, 0).injectMutation);
    }
    // Injection scenarios always get a virtualized (release-metadata)
    // config, and every virtualized scenario verifies.
    for (u64 i = 0; i < 40; i += 4) {
        const FuzzScenario sc = deriveScenario(3, i, 4);
        EXPECT_TRUE(sc.config.virtualize) << i;
        EXPECT_TRUE(sc.config.verifyReleases) << i;
    }
}

TEST(Corpus, ParseRoundTripAndErrors)
{
    CorpusEntry e;
    std::string error;

    ASSERT_TRUE(parseCorpusLine(
        "spec=gen:s1:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4 "
        "config=virtualized-128KB oracle=mutation expect=caught "
        "mutation=54516 # pinned",
        e, error))
        << error;
    EXPECT_EQ(e.spec.seed, 1u);
    EXPECT_EQ(e.configLabel, "virtualized-128KB");
    EXPECT_EQ(e.oracle, FuzzOracle::kMutation);
    EXPECT_TRUE(e.expectCaught);
    EXPECT_EQ(e.mutationIndex, 54516u);

    // Blank and comment-only lines: false with no error.
    EXPECT_FALSE(parseCorpusLine("", e, error));
    EXPECT_TRUE(error.empty());
    EXPECT_FALSE(parseCorpusLine("   # note", e, error));
    EXPECT_TRUE(error.empty());

    const char *bad[] = {
        "spec=gen:s1:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4", // missing keys
        "spec=nope config=c oracle=selfcheck expect=pass", // bad spec
        "spec=gen:s1:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4 config=c "
        "oracle=wat expect=pass",                          // bad oracle
        "spec=gen:s1:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4 config=c "
        "oracle=selfcheck expect=maybe",                   // bad expect
        "spec=gen:s1:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4 config=c "
        "oracle=mutation expect=caught mutation=12x",      // bad index
        "spec=gen:s1:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4 config=c "
        "oracle=mutation expect=caught mutation=",         // no digits
        "spec=gen:s1:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4 config=c "
        "oracle=mutation expect=caught mutation=4294967296", // > u32
        "notakeyvalue",                                    // no '='
    };
    for (const char *line : bad) {
        EXPECT_FALSE(parseCorpusLine(line, e, error)) << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

TEST(Corpus, FailureRendersAsParsableLine)
{
    FuzzFailure f;
    f.scenario = deriveScenario(1, 0, 1); // mutation scenario
    f.oracle = FuzzOracle::kMutation;
    f.minimized = f.scenario.spec;

    CorpusEntry e;
    std::string error;
    ASSERT_TRUE(parseCorpusLine(corpusLine(f), e, error)) << error;
    EXPECT_EQ(e.spec, f.minimized);
    EXPECT_EQ(e.configLabel, f.scenario.config.label);
    EXPECT_TRUE(e.expectCaught);
    EXPECT_EQ(e.mutationIndex, f.scenario.mutationIndex);
}

// ---- Minimizer -----------------------------------------------------------

TEST(Minimizer, ShrinksKnobsToPredicateBoundary)
{
    GenSpec start;
    start.blocks = 8;
    start.depth = 2;
    start.validate();

    // Synthetic known-failure: reproduces whenever blocks >= 2.  The
    // minimizer must land exactly on the boundary.
    const MinimizeResult m = minimizeSpec(
        start, [](const GenSpec &s) { return s.blocks >= 2; }, 200);
    EXPECT_EQ(m.spec.blocks, 2u);
    EXPECT_EQ(m.spec.depth, 0u);    // irrelevant knob shrunk away
    EXPECT_FALSE(m.spec.earlyExits); // feature classes dropped
    EXPECT_GT(m.testsRun, 0u);
    EXPECT_LE(m.testsRun, 200u);
}

TEST(Minimizer, BudgetZeroLeavesSpecUntouched)
{
    GenSpec start;
    start.validate();
    const GenSpec before = start;
    const MinimizeResult m =
        minimizeSpec(start, [](const GenSpec &) { return true; }, 0);
    EXPECT_EQ(m.spec, before);
    EXPECT_EQ(m.testsRun, 0u);
}

/** True when @p spec's IR still contains a global-load construct. */
bool
hasLoad(const GenSpec &spec)
{
    struct Walk {
        static bool
        any(const std::vector<GenNode> &nodes)
        {
            return std::any_of(
                nodes.begin(), nodes.end(), [](const GenNode &n) {
                    return n.kind == GenNode::Kind::kLoad ||
                           any(n.body) || any(n.elseBody);
                });
        }
    };
    return Walk::any(buildGenIr(spec).top);
}

TEST(Minimizer, PrunesNodesIrrelevantToAStructuralFailure)
{
    // Seeded known-failure mutant: "any kernel containing a load
    // fails".  The minimizer should strip everything else.
    GenSpec start;
    start.seed = 9;
    start.memWeight = 4;
    start.blocks = 10;
    start.depth = 3;
    start.validate();
    ASSERT_TRUE(hasLoad(start));

    const MinimizeResult m = minimizeSpec(start, hasLoad, 400);
    EXPECT_TRUE(hasLoad(m.spec));

    const size_t before = collectNodeIds(buildGenIr(start)).size();
    const size_t after = collectNodeIds(buildGenIr(m.spec)).size();
    EXPECT_LT(after, before);

    // Canonical prune list: every surviving id earns its place (the
    // node reappears when that id alone is lifted).
    for (u32 id : m.spec.prune) {
        GenSpec lifted = m.spec;
        lifted.prune.erase(
            std::remove(lifted.prune.begin(), lifted.prune.end(), id),
            lifted.prune.end());
        const std::vector<u32> alive =
            collectNodeIds(buildGenIr(lifted));
        EXPECT_TRUE(std::find(alive.begin(), alive.end(), id) !=
                    alive.end())
            << "prune id " << id << " does no work";
    }
}

// ---- End-to-end ----------------------------------------------------------

/**
 * Scenario count for the end-to-end smoke.  The tsan matrix job
 * extends the seed range via RFV_STRESS_ITERS (multi-threaded
 * scenario dispatch over a shared engine is exactly the surface a
 * race detector wants to soak); the default keeps ctest snappy.
 */
u64
smokeScenarios()
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe) — read-only env probe
    if (const char *env = std::getenv("RFV_STRESS_ITERS"))
        return std::strtoull(env, nullptr, 10);
    return 6;
}

TEST(Fuzz, SmokeRunIsGreenAndCountsInjectedFaults)
{
    FuzzOptions opts;
    opts.seed = 1;
    opts.scenarios = smokeScenarios();
    opts.jobs = 4;
    opts.mutateEvery = 3; // every third scenario injects a fault
    opts.useCache = false;
    opts.minimize = false;
    const FuzzReport report = runFuzz(opts);
    EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                     ? ""
                                     : report.failures[0].detail);
    EXPECT_EQ(report.scenarios, opts.scenarios);
    EXPECT_EQ(report.mutationsCaught + report.mutationsBenign,
              (opts.scenarios + 2) / 3);
    EXPECT_GT(report.oracleChecks, opts.scenarios * 3);
}

TEST(Fuzz, CommittedCorpusReplaysGreen)
{
    std::ifstream in(kCorpusPath);
    ASSERT_TRUE(in) << kCorpusPath;

    SweepOptions sweepOpts; // in-memory engine: no cache directory
    SweepEngine engine(sweepOpts);
    u32 entries = 0;
    std::string line;
    while (std::getline(in, line)) {
        CorpusEntry entry;
        std::string error;
        if (!parseCorpusLine(line, entry, error)) {
            ASSERT_TRUE(error.empty()) << error;
            continue;
        }
        ++entries;
        const auto detail = replayCorpusEntry(engine, entry);
        EXPECT_FALSE(detail.has_value())
            << entry.spec.name() << " ["
            << fuzzOracleName(entry.oracle) << "]: " << *detail;
    }
    // The corpus must keep covering both expectation kinds.
    EXPECT_GE(entries, 5u);
}

} // namespace
} // namespace rfv
