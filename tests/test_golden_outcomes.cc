/**
 * @file
 * Golden outcomes: pins every RunOutcome of the paper manifest — the
 * 16 Table-1 workloads under baseline, virtualized, shrink50,
 * shrink50-gating and spill50 (80 jobs) — to a digest of its
 * ResultCache::serialize form, LoopStats included — and to its
 * result-cache key.  A change that is meant to be simulation-neutral
 * (a faster SM step, a cheaper memory model, a deleted config knob)
 * must leave every line of tests/golden/paper_outcomes.txt as it is;
 * an unchanged key column shows that disk-cache entries written before
 * the change still hit.
 *
 * On a mismatch the test writes the digests it computed to
 * paper_outcomes.actual in its working directory; a change that moves
 * results on purpose (and bumps kSimulatorVersion) copies that file
 * over the committed one.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "service/hash.h"
#include "service/request.h"
#include "service/sweep.h"

namespace rfv {
namespace {

const char *const kPaperConfigs[] = {
    "baseline", "virtualized", "shrink50", "shrink50-gating", "spill50",
};

const char *const kGoldenPath =
    RFV_SOURCE_DIR "/tests/golden/paper_outcomes.txt";

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    return lines;
}

TEST(GoldenOutcomes, PaperManifestIsBitIdentical)
{
    std::vector<SweepJob> jobs;
    std::vector<std::string> labels;
    for (const char *config : kPaperConfigs) {
        for (const auto &w : allWorkloads()) {
            ServiceRequest req;
            req.workload = w->name();
            req.configName = config;
            SweepJob job;
            std::string error;
            ASSERT_EQ(buildJob(req, job, error), ServiceStatus::kOk)
                << error;
            jobs.push_back(job);
            labels.push_back(w->name() + " " + config);
        }
    }
    ASSERT_EQ(jobs.size(), 80u);

    SweepOptions opts;
    opts.jobs = 4;
    opts.useCache = false;
    SweepEngine engine(opts);
    const std::vector<SweepJobResult> results = engine.run(jobs);

    std::vector<std::string> actual;
    for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok())
            << labels[i] << ": " << results[i].error;
        std::ostringstream os;
        ResultCache::serialize(os, results[i].outcome);
        Hasher h;
        h.str(os.str());
        actual.push_back(labels[i] + " " + h.digest().hex() + " " +
                         results[i].key);
    }

    const std::vector<std::string> golden = readLines(kGoldenPath);
    if (golden != actual) {
        std::ofstream out("paper_outcomes.actual");
        out << "# workload config digest(ResultCache::serialize) "
               "resultKey\n";
        for (const std::string &line : actual)
            out << line << '\n';
    }
    ASSERT_EQ(golden.size(), actual.size())
        << "golden file " << kGoldenPath << " is missing or stale";
    for (size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(golden[i], actual[i]) << "outcome or result key moved";
}

} // namespace
} // namespace rfv
