/**
 * @file
 * Cache-key derivation: every result-relevant field of the
 * configuration, program, launch and simulator version must produce a
 * distinct key (stale results can never be replayed), while the
 * canonicalized execution knobs — proven result-neutral by the
 * equivalence suites — must NOT change the key (so sweeps share
 * results across thread counts and loop flavours).
 */
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <vector>

#include "core/simulator.h"
#include "service/hash.h"
#include "service/result_cache.h"
#include "service/version.h"
#include "workloads/workload.h"

namespace rfv {
namespace {

// ---- GpuConfig, field by field -----------------------------------------

struct GpuFieldCase {
    const char *name;
    void (*mutate)(GpuConfig &);
};

Hash128
gpuDigest(const GpuConfig &gpu)
{
    Hasher h;
    addGpuConfig(h, gpu);
    return h.digest();
}

const GpuFieldCase kGpuFields[] = {
    {"numSms", [](GpuConfig &g) { g.numSms += 1; }},
    {"maxCtasPerSm", [](GpuConfig &g) { g.maxCtasPerSm += 1; }},
    {"maxWarpsPerSm", [](GpuConfig &g) { g.maxWarpsPerSm += 1; }},
    {"issuePerCycle", [](GpuConfig &g) { g.issuePerCycle += 1; }},
    {"readyQueueSize", [](GpuConfig &g) { g.readyQueueSize += 1; }},
    {"scheduler",
     [](GpuConfig &g) { g.scheduler = SchedulerPolicy::kRoundRobin; }},
    {"icacheInstrs", [](GpuConfig &g) { g.icacheInstrs += 8; }},
    {"icacheLineInstrs", [](GpuConfig &g) { g.icacheLineInstrs *= 2; }},
    {"icacheMissLatency", [](GpuConfig &g) { g.icacheMissLatency += 1; }},
    {"dcacheLines", [](GpuConfig &g) { g.dcacheLines += 16; }},
    {"dcacheLineBytes", [](GpuConfig &g) { g.dcacheLineBytes *= 2; }},
    {"dcacheHitLatency", [](GpuConfig &g) { g.dcacheHitLatency += 1; }},
    {"aluLatency", [](GpuConfig &g) { g.aluLatency += 1; }},
    {"mulLatency", [](GpuConfig &g) { g.mulLatency += 1; }},
    {"fpuLatency", [](GpuConfig &g) { g.fpuLatency += 1; }},
    {"sfuLatency", [](GpuConfig &g) { g.sfuLatency += 1; }},
    {"sharedLatency", [](GpuConfig &g) { g.sharedLatency += 1; }},
    {"globalLatency", [](GpuConfig &g) { g.globalLatency += 1; }},
    {"mshrsPerSm", [](GpuConfig &g) { g.mshrsPerSm += 1; }},
    {"dramCyclesPerTransaction",
     [](GpuConfig &g) { g.dramCyclesPerTransaction += 1; }},
    {"clockGhz", [](GpuConfig &g) { g.clockGhz += 0.1; }},
    {"renamingLatency", [](GpuConfig &g) { g.renamingLatency += 1; }},
    {"flagMissBubble",
     [](GpuConfig &g) { g.flagMissBubble = !g.flagMissBubble; }},
    {"spillCooldown", [](GpuConfig &g) { g.spillCooldown += 1; }},
    {"maxCycles", [](GpuConfig &g) { g.maxCycles += 1; }},
    {"regFile.sizeBytes",
     [](GpuConfig &g) { g.regFile.sizeBytes /= 2; }},
    {"regFile.numBanks", [](GpuConfig &g) { g.regFile.numBanks *= 2; }},
    {"regFile.subarraysPerBank",
     [](GpuConfig &g) { g.regFile.subarraysPerBank *= 2; }},
    {"regFile.mode",
     [](GpuConfig &g) { g.regFile.mode = RegFileMode::kVirtualized; }},
    {"regFile.bankRestrictedRenaming",
     [](GpuConfig &g) {
         g.regFile.bankRestrictedRenaming =
             !g.regFile.bankRestrictedRenaming;
     }},
    {"regFile.powerGating",
     [](GpuConfig &g) { g.regFile.powerGating = !g.regFile.powerGating; }},
    {"regFile.wakeupLatency",
     [](GpuConfig &g) { g.regFile.wakeupLatency += 1; }},
    {"regFile.poisonOnRelease",
     [](GpuConfig &g) {
         g.regFile.poisonOnRelease = !g.regFile.poisonOnRelease;
     }},
    {"regFile.lifecycleLint",
     [](GpuConfig &g) {
         g.regFile.lifecycleLint = !g.regFile.lifecycleLint;
     }},
    {"regFile.flagCacheEntries",
     [](GpuConfig &g) { g.regFile.flagCacheEntries += 1; }},
};

TEST(SweepCacheKey, EveryGpuConfigFieldInvalidates)
{
    const GpuConfig base;
    const Hash128 baseDigest = gpuDigest(base);
    for (const GpuFieldCase &fc : kGpuFields) {
        GpuConfig mutated = base;
        fc.mutate(mutated);
        EXPECT_NE(gpuDigest(mutated), baseDigest)
            << "changing GpuConfig::" << fc.name
            << " must change the cache key";
    }
}

TEST(SweepCacheKey, CanonicalizedGpuFieldsDoNotInvalidate)
{
    const GpuConfig base;

    GpuConfig ev = base;
    ev.eventDriven = !ev.eventDriven;
    EXPECT_EQ(gpuDigest(ev), gpuDigest(base))
        << "eventDriven is result-neutral (test_event_equivalence) and "
           "must be canonicalized out";
}

// ---- RunConfig extras ---------------------------------------------------

struct RunFieldCase {
    const char *name;
    void (*mutate)(RunConfig &);
};

const RunFieldCase kRunFields[] = {
    {"virtualize", [](RunConfig &c) { c.virtualize = !c.virtualize; }},
    {"aggressiveDiverged",
     [](RunConfig &c) { c.aggressiveDiverged = !c.aggressiveDiverged; }},
    {"renamingTableBytes",
     [](RunConfig &c) { c.renamingTableBytes += 64; }},
    {"compilerSpill",
     [](RunConfig &c) { c.compilerSpill = !c.compilerSpill; }},
    {"verifyReleases",
     [](RunConfig &c) { c.verifyReleases = !c.verifyReleases; }},
    {"roundsPerSm", [](RunConfig &c) { c.roundsPerSm += 1; }},
    // Fields that land in the derived GpuConfig.
    {"mode", [](RunConfig &c) { c.mode = RegFileMode::kVirtualized; }},
    {"rfSizeBytes", [](RunConfig &c) { c.rfSizeBytes /= 2; }},
    {"powerGating",
     [](RunConfig &c) { c.powerGating = !c.powerGating; }},
    {"wakeupLatency", [](RunConfig &c) { c.wakeupLatency += 1; }},
    {"flagCacheEntries", [](RunConfig &c) { c.flagCacheEntries += 1; }},
    {"bankRestricted",
     [](RunConfig &c) { c.bankRestricted = !c.bankRestricted; }},
    {"numSms", [](RunConfig &c) { c.numSms += 1; }},
};

TEST(SweepCacheKey, EveryRunConfigFieldInvalidates)
{
    const RunConfig base;
    const Hash128 baseDigest = canonicalConfigHash(base);
    for (const RunFieldCase &fc : kRunFields) {
        RunConfig mutated = base;
        fc.mutate(mutated);
        EXPECT_NE(canonicalConfigHash(mutated), baseDigest)
            << "changing RunConfig::" << fc.name
            << " must change the cache key";
    }
}

TEST(SweepCacheKey, CanonicalizedRunConfigFieldsDoNotInvalidate)
{
    const RunConfig base;
    const Hash128 baseDigest = canonicalConfigHash(base);

    RunConfig label = base;
    label.label = "renamed-for-the-report";
    EXPECT_EQ(canonicalConfigHash(label), baseDigest);

    RunConfig ev = base;
    ev.eventDriven = !ev.eventDriven;
    EXPECT_EQ(canonicalConfigHash(ev), baseDigest);
}

// ---- program content ----------------------------------------------------

TEST(SweepCacheKey, ProgramBytesInvalidate)
{
    const Program base = findWorkload("MatrixMul")->buildKernel();
    const Hash128 baseHash = hashProgram(base);

    // Identical rebuild hashes identically (the artifact-store
    // assumption: one build per workload name is enough).
    EXPECT_EQ(hashProgram(findWorkload("MatrixMul")->buildKernel()),
              baseHash);

    Program renamed = base;
    renamed.name = "SomethingElse";
    EXPECT_EQ(hashProgram(renamed), baseHash)
        << "the name is identity, not content; resultKey carries it "
           "separately";

    Program moreRegs = base;
    moreRegs.numRegs += 1;
    EXPECT_NE(hashProgram(moreRegs), baseHash);

    Program tweakedOp = base;
    ASSERT_FALSE(tweakedOp.code.empty());
    tweakedOp.code[0].dst += 1;
    EXPECT_NE(hashProgram(tweakedOp), baseHash);

    Program truncated = base;
    truncated.code.pop_back();
    EXPECT_NE(hashProgram(truncated), baseHash);
}

// ---- the composed result key -------------------------------------------

TEST(SweepCacheKey, ResultKeyComponents)
{
    const Hash128 prog{1, 2}, cfg{3, 4};
    const LaunchParams launch{64, 256, 8};
    const Hash128 base =
        resultKey("MatrixMul", prog, cfg, launch, kSimulatorVersion);

    EXPECT_NE(resultKey("BFS", prog, cfg, launch, kSimulatorVersion),
              base);
    EXPECT_NE(
        resultKey("MatrixMul", {1, 3}, cfg, launch, kSimulatorVersion),
        base);
    EXPECT_NE(
        resultKey("MatrixMul", prog, {3, 5}, launch, kSimulatorVersion),
        base);

    LaunchParams grid = launch;
    grid.gridCtas += 1;
    EXPECT_NE(resultKey("MatrixMul", prog, cfg, grid, kSimulatorVersion),
              base);
    LaunchParams tpc = launch;
    tpc.threadsPerCta += 32;
    EXPECT_NE(resultKey("MatrixMul", prog, cfg, tpc, kSimulatorVersion),
              base);
    LaunchParams conc = launch;
    conc.concCtasPerSm -= 1;
    EXPECT_NE(resultKey("MatrixMul", prog, cfg, conc, kSimulatorVersion),
              base);

    // Bumping kSimulatorVersion is the blanket invalidation lever for
    // behaviour-changing simulator PRs.
    EXPECT_NE(resultKey("MatrixMul", prog, cfg, launch, "rfv-sim-next"),
              base);
}

// ---- outcome codec ------------------------------------------------------

TEST(SweepCacheCodec, RoundTripIsExact)
{
    RunConfig cfg = RunConfig::gpuShrink(50);
    cfg.numSms = 2;
    cfg.roundsPerSm = 1;
    cfg.verifyReleases = true; // populate the verify payload too
    const RunOutcome out =
        Simulator(cfg).runWorkload(*findWorkload("Reduction"));

    std::stringstream ss;
    ResultCache::serialize(ss, out);
    const RunOutcome back = ResultCache::deserialize(ss);
    EXPECT_TRUE(back == out)
        << "deserialize(serialize(x)) must be field-exact, including "
           "energy doubles and verifier diagnostics";
}

TEST(SweepCacheCodec, MalformedInputThrows)
{
    std::stringstream empty;
    EXPECT_THROW(ResultCache::deserialize(empty), std::runtime_error);

    std::stringstream junk("not a result file at all\n");
    EXPECT_THROW(ResultCache::deserialize(junk), std::runtime_error);

    // A truncated but well-prefixed entry must also be rejected.
    RunConfig cfg;
    cfg.numSms = 1;
    cfg.roundsPerSm = 1;
    const RunOutcome out =
        Simulator(cfg).runWorkload(*findWorkload("VectorAdd"));
    std::stringstream ss;
    ResultCache::serialize(ss, out);
    const std::string text = ss.str();
    std::stringstream cut(text.substr(0, text.size() / 2));
    EXPECT_THROW(ResultCache::deserialize(cut), std::runtime_error);
}

/** An outcome with every line kind: regStats, diags, nonzero doubles. */
RunOutcome
handBuiltOutcome()
{
    RunOutcome o;
    o.workload = "MatrixMul";
    o.configLabel = "virt 50%";
    o.launch = LaunchParams{12, 256, 4};
    o.compile.inputRegs = 24;
    o.compile.finalRegs = 21;
    o.compile.regStats = {{3, 7, 40}, {1, 2, 9}, {0, 0, 0}};
    o.sim.cycles = 123456;
    o.sim.issuedInstrs = 98765;
    o.sim.peakResidentWarps = 48;
    o.sim.rf.bankReads = {5, 6, 7, 8};
    o.sim.rf.bankWrites = {1, 0, 2, 3};
    o.sim.rf.allocWatermark = 300;
    o.loop.skippedCycles = 42;
    o.energy = EnergyBreakdown{1.5e-6, 2.25e-7, 3.0e-9, 0.1};
    o.verified = true;
    o.verify.releasesChecked = 17;
    o.verify.numErrors = 1;
    o.verify.numWarnings = 1;
    o.verify.diags = {
        {VerifyKind::kUseAfterRelease, VerifySeverity::kError, 7, 1,
         "use after release of r1"},
        {VerifyKind::kBadMetadata, VerifySeverity::kWarning, 12, 3, ""},
    };
    return o;
}

TEST(SweepCacheCodec, AcceptedEntriesReserializeByteForByte)
{
    // The reader is the exact inverse of the writer: whatever it
    // accepts must re-serialize to the very bytes it was given, so a
    // tampered disk entry or frame either fails closed or is already
    // canonical.  Mutate every line of a real entry and check that.
    std::ostringstream os;
    ResultCache::serialize(os, handBuiltOutcome());
    const std::string entry = os.str();
    std::vector<std::string> lines;
    for (std::size_t at = 0; at < entry.size();) {
        const std::size_t nl = entry.find('\n', at);
        lines.push_back(entry.substr(at, nl - at));
        at = nl + 1;
    }
    const auto join = [](const std::vector<std::string> &ls) {
        std::string text;
        for (const std::string &l : ls)
            text += l + '\n';
        return text;
    };
    ASSERT_EQ(join(lines), entry);

    u64 accepted = 0, rejected = 0;
    const auto check = [&](const std::string &text, const std::string &what) {
        std::istringstream is(text);
        RunOutcome back;
        try {
            back = ResultCache::deserialize(is);
        } catch (const std::runtime_error &) {
            ++rejected;
            return;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": not a runtime_error: " << e.what();
            return;
        }
        ++accepted;
        std::ostringstream again;
        ResultCache::serialize(again, back);
        EXPECT_EQ(again.str(), text) << what;
    };

    check(entry, "unmutated");
    EXPECT_EQ(accepted, 1u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        const std::size_t sp = line.rfind(' ');
        const std::string prefix =
            sp == std::string::npos ? "" : line.substr(0, sp + 1);
        std::string upper = line.substr(prefix.size());
        for (char &ch : upper)
            ch = static_cast<char>(std::toupper(static_cast<u8>(ch)));
        const std::string values[] = {
            "", "-1", "+1", "01", "2", "4294967296",
            "18446744073709551616", "zzzzzzzzzzzzzzzz", upper,
            "3FF0000000000000"};
        std::vector<std::string> mutated = lines;
        for (const std::string &v : values) {
            mutated[i] = prefix + v;
            check(join(mutated), "line " + std::to_string(i) + " = '" +
                                     mutated[i] + "'");
        }
        mutated[i] = line + ' ';
        check(join(mutated), "trailing space on line " + std::to_string(i));

        mutated = lines;
        mutated.erase(mutated.begin() + static_cast<long>(i));
        check(join(mutated), "dropped line " + std::to_string(i));
        mutated = lines;
        mutated.insert(mutated.begin() + static_cast<long>(i), line);
        check(join(mutated), "duplicated line " + std::to_string(i));
    }
    check(entry + 'x', "byte after end");
    check(entry + '\n', "newline after end");

    // Both branches are exercised: e.g. "2" is a valid u32 value but
    // not a valid bool, and "4294967296" fits only u64 fields.
    EXPECT_GT(accepted, 1u);
    EXPECT_GT(rejected, lines.size());
}

} // namespace
} // namespace rfv
