/**
 * @file
 * Generator determinism and spec-name contracts.
 *
 * The load-bearing promises: a GenSpec's canonical name round-trips
 * through parse() exactly; buildGenIr/lowerGenIr are pure functions of
 * the spec (byte-identical programs across threads and across
 * processes — the latter pinned by golden content hashes); pruning a
 * node id never perturbs the RNG draws of the surviving constructs.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/sync.h"
#include "gen/kernel_generator.h"
#include "gen/reference.h"
#include "service/hash.h"

namespace rfv {
namespace {

GenSpec
richSpec()
{
    GenSpec s;
    s.seed = 42;
    s.depth = 3;
    s.blocks = 10;
    s.loopWeight = 2;
    s.branchWeight = 3;
    s.memWeight = 3;
    s.regs = 20;
    s.longLived = 6;
    s.auxStores = 2;
    s.exchanges = true;
    s.earlyExits = true;
    s.ctas = 6;
    s.threadsPerCta = 64;
    s.concCtasPerSm = 3;
    return s;
}

TEST(GenSpec, NameRoundTrips)
{
    GenSpec specs[] = {GenSpec{}, richSpec()};
    specs[1].prune = {3, 7};
    for (GenSpec &s : specs) {
        s.validate();
        const std::string name = s.name();
        GenSpec back;
        std::string error;
        ASSERT_TRUE(GenSpec::parse(name, back, error)) << error;
        EXPECT_EQ(back, s) << name;
        EXPECT_EQ(back.name(), name);
    }
}

TEST(GenSpec, ParseRejectsMalformed)
{
    GenSpec ok;
    ok.validate();
    const std::string good = ok.name();

    const std::string bad[] = {
        "vectoradd",                      // wrong prefix
        "gen:",                           // empty
        "gen:s1:d2",                      // missing required fields
        good + ":s9",                     // duplicate field
        good + ":q5",                     // unknown field
        "gen:sxyz:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4", // bad number
        // Aliases of a valid spec: only name() itself is accepted, so
        // one kernel has one routing key and one result key.
        "gen:s05:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4",  // leading zero
        "gen:d2:s5:b8:r16:l4:w2.3.3:a0:x01:g8x64x4",   // reordered
        "gen:s5:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4:p17.3", // unsorted
        "gen:s5:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4:p3.3",  // duplicate
        "gen:s5:d2:b8:r16:l4:w02.3.3:a0:x01:g8x64x4",  // padded weight
    };
    for (const std::string &name : bad) {
        GenSpec spec;
        std::string error;
        EXPECT_FALSE(GenSpec::parse(name, spec, error)) << name;
        EXPECT_FALSE(error.empty()) << name;
    }
}

TEST(GenSpec, ValidateRejectsImpossibleKnobs)
{
    GenSpec zeroGeometry;
    zeroGeometry.ctas = 0;
    EXPECT_THROW(zeroGeometry.validate(), ConfigError);

    GenSpec oddExchange = richSpec();
    oddExchange.threadsPerCta = 48; // exchanges need a power of two
    EXPECT_THROW(oddExchange.validate(), ConfigError);

    GenSpec starved;
    starved.regs = 2; // below the 4-register floor
    EXPECT_THROW(starved.validate(), ConfigError);
}

TEST(Generator, ByteIdenticalAcrossThreads)
{
    GenSpec spec = richSpec();
    spec.validate();
    const Hash128 expected = hashProgram(lowerGenIr(buildGenIr(spec)));

    constexpr u32 kThreads = 8;
    std::vector<Hash128> got(kThreads);
    {
        std::vector<Thread> pool;
        pool.reserve(kThreads);
        for (u32 t = 0; t < kThreads; ++t)
            pool.emplace_back([&, t] {
                got[t] = hashProgram(lowerGenIr(buildGenIr(spec)));
            });
        for (Thread &th : pool)
            th.join();
    }
    for (u32 t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], expected) << "thread " << t;
}

/**
 * Golden content hashes: cross-process determinism, pinned.  These
 * freeze the generator — any change to RNG stream layout, construct
 * selection, or lowering shows up here before it silently invalidates
 * the committed regression corpus.  Updating them is a corpus reset
 * and needs the corpus re-validated (`run_fuzz --corpus=...`).
 */
TEST(Generator, GoldenProgramHashes)
{
    struct Golden {
        const char *name;
        const char *hash;
    };
    const Golden goldens[] = {
        {"gen:s1:d2:b8:r16:l4:w2.3.3:a0:x01:g8x64x4",
         "00b59fc7461d22bf29eea9fe7e076f67"},
        {"gen:s42:d3:b10:r20:l6:w2.3.3:a2:x11:g6x64x3",
         "876bd76e26f5de65405a81eb53908593"},
        {"gen:s5319003550425516616:d1:b2:r4:l0:w1.0.3:a0:x00:g5x32x1",
         "4983fa6d4c5a2ad63b3c66f37d0901b6"},
    };
    for (const Golden &g : goldens) {
        GenSpec spec;
        std::string error;
        ASSERT_TRUE(GenSpec::parse(g.name, spec, error)) << error;
        EXPECT_EQ(hashProgram(lowerGenIr(buildGenIr(spec))).hex(), g.hash)
            << g.name;
    }
}

TEST(Generator, InputAndInitialOutputDeterministic)
{
    GenSpec spec = richSpec();
    spec.validate();
    const std::vector<u32> words = genInputWords(spec);
    ASSERT_EQ(words.size(), kGenInputWords);
    EXPECT_EQ(words, genInputWords(spec));
    for (u32 i : {0u, 1u, 63u, 4095u})
        EXPECT_EQ(genInitialOutputWord(spec, i),
                  genInitialOutputWord(spec, i));
}

TEST(Generator, PruneDropsSubtreesWithoutPerturbingSurvivors)
{
    GenSpec spec = richSpec();
    spec.validate();
    const GenIr base = buildGenIr(spec);
    const std::vector<u32> ids = collectNodeIds(base);
    ASSERT_FALSE(ids.empty());

    // Prune the first top-level construct: its whole subtree must
    // vanish, every other id must survive with identical lowering
    // downstream of it (the epilogue is position-independent).
    const u32 victim = base.top.front().id;
    GenSpec pruned = spec;
    pruned.prune = {victim};
    pruned.validate();
    const std::vector<u32> after = collectNodeIds(buildGenIr(pruned));
    EXPECT_LT(after.size(), ids.size());
    for (u32 id : after) {
        EXPECT_NE(id, victim);
        EXPECT_TRUE(std::find(ids.begin(), ids.end(), id) != ids.end());
    }

    // Pruning everything still lowers: the self-check epilogue alone
    // is a valid kernel.
    GenSpec bare = spec;
    bare.prune = ids;
    bare.validate();
    const Program p = lowerGenIr(buildGenIr(bare));
    EXPECT_GT(p.code.size(), 0u);
}

TEST(Generator, GeneratedKernelsAreStructured)
{
    u32 sawBranch = 0, sawLoad = 0, sawBarrier = 0;
    for (u64 seed = 1; seed < 40; ++seed) {
        GenSpec spec;
        spec.seed = seed;
        const Program prog = lowerGenIr(buildGenIr(spec));
        prog.validate();
        for (const Instr &ins : prog.code) {
            sawBranch += ins.op == Opcode::kBra;
            sawLoad += ins.op == Opcode::kLdGlobal;
            sawBarrier += ins.op == Opcode::kBar;
        }
    }
    EXPECT_GT(sawBranch, 20u);
    EXPECT_GT(sawLoad, 20u);
    EXPECT_GT(sawBarrier, 3u);
}

TEST(Reference, ShapeAndDeterminism)
{
    GenSpec spec = richSpec();
    spec.validate();
    const GenIr ir = buildGenIr(spec);

    const u32 total = spec.ctas * spec.threadsPerCta;
    const std::vector<u32> out =
        referenceOutput(ir, spec.ctas, spec.threadsPerCta);
    ASSERT_EQ(out.size(), total * (1 + spec.auxStores));
    EXPECT_EQ(out, referenceOutput(ir, spec.ctas, spec.threadsPerCta));

    // Launch-scaling independence: the oracle follows the *actual*
    // geometry, and the per-thread checksums of the common threads
    // of a smaller grid match prefix-for-prefix only when the kernel
    // has no launch-dependent addressing — here we just pin the shape.
    const std::vector<u32> half =
        referenceOutput(ir, spec.ctas / 2, spec.threadsPerCta);
    EXPECT_EQ(half.size(),
              (spec.ctas / 2) * spec.threadsPerCta *
                  (1 + spec.auxStores));
}

} // namespace
} // namespace rfv
