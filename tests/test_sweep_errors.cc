/**
 * @file
 * SweepEngine error-path hardening: an unknown workload, an invalid
 * config override, or a malformed manifest line is a per-job
 * structured error — the batch keeps going, the good jobs finish, and
 * the failure is classified into the service-status taxonomy.  Also
 * covers cooperative cancellation (SweepOptions::cancel) and the
 * manifest/override parsing shared by run_sweep, simd_client and the
 * daemon.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "service/request.h"
#include "service/sweep.h"

namespace rfv {
namespace {

SweepJob
goodJob()
{
    SweepJob job;
    job.workload = "MatrixMul";
    runConfigByName("shrink50", job.config);
    job.config.numSms = 1;
    job.config.roundsPerSm = 1;
    return job;
}

// ---- SweepEngine::execute classification --------------------------------

TEST(SweepErrors, UnknownWorkloadIsAStructuredError)
{
    SweepOptions opts;
    opts.useCache = false;
    SweepEngine engine(opts);

    SweepJob bad = goodJob();
    bad.workload = "NoSuchWorkload";
    const SweepJobResult res = engine.execute(bad);
    EXPECT_EQ(res.status, ServiceStatus::kUnknownWorkload);
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("NoSuchWorkload"), std::string::npos)
        << res.error;
}

TEST(SweepErrors, BatchSurvivesABadJobInTheMiddle)
{
    SweepOptions opts;
    opts.useCache = false;
    opts.jobs = 2;
    SweepEngine engine(opts);

    std::vector<SweepJob> manifest;
    manifest.push_back(goodJob());
    SweepJob bad = goodJob();
    bad.workload = "Nonexistent";
    manifest.push_back(bad);
    manifest.push_back(goodJob());

    const auto results = engine.run(manifest);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_EQ(results[1].status, ServiceStatus::kUnknownWorkload);
    EXPECT_TRUE(results[2].ok());
    EXPECT_TRUE(results[0].outcome == results[2].outcome)
        << "identical good jobs must agree despite the failure between";

    const SweepStats &st = engine.stats();
    EXPECT_EQ(st.jobsTotal, 3u);
    EXPECT_EQ(st.jobsRun, 2u);
    EXPECT_EQ(st.jobsFailed, 1u);
    EXPECT_NE(st.summary().find("1 failed"), std::string::npos)
        << st.summary();
}

TEST(SweepErrors, CancelFlagSkipsPendingJobs)
{
    SweepOptions opts;
    opts.useCache = false;
    std::atomic<bool> cancel{true}; // set before run(): nothing starts
    opts.cancel = &cancel;
    SweepEngine engine(opts);

    const std::vector<SweepJob> manifest(3, goodJob());
    const auto results = engine.run(manifest);
    ASSERT_EQ(results.size(), 3u);
    for (const SweepJobResult &res : results) {
        EXPECT_EQ(res.status, ServiceStatus::kCancelled);
        EXPECT_FALSE(res.ok());
    }
    const SweepStats &st = engine.stats();
    EXPECT_EQ(st.jobsCancelled, 3u);
    EXPECT_EQ(st.jobsRun, 0u);
    EXPECT_NE(st.summary().find("3 cancelled"), std::string::npos)
        << st.summary();
}

TEST(SweepErrors, HitRateExcludesCancelledJobs)
{
    // A cancelled job never consulted the cache; counting it in the
    // denominator made partial sweeps report misleadingly low rates
    // (and trip run_sweep's --expect-hit-rate gate).
    SweepStats st;
    st.jobsTotal = 6;
    st.jobsCached = 3;
    st.jobsCancelled = 3;
    EXPECT_DOUBLE_EQ(st.hitRate(), 1.0)
        << "every job that actually ran was a cache hit";

    st.jobsCached = 0;
    st.jobsCancelled = 6;
    EXPECT_DOUBLE_EQ(st.hitRate(), 0.0)
        << "an all-cancelled sweep must not divide by zero";

    st.jobsCached = 2;
    st.jobsCancelled = 2;
    EXPECT_DOUBLE_EQ(st.hitRate(), 0.5);

    // Defensive: inconsistent counters (cancelled > total) clamp
    // rather than underflow the unsigned denominator.
    st.jobsTotal = 1;
    st.jobsCached = 0;
    st.jobsCancelled = 5;
    EXPECT_DOUBLE_EQ(st.hitRate(), 0.0);
}

// ---- config names and overrides -----------------------------------------

TEST(RequestParsing, EveryAdvertisedConfigNameResolves)
{
    for (const std::string &name : runConfigNames()) {
        RunConfig cfg;
        EXPECT_TRUE(runConfigByName(name, cfg)) << name;
    }
    RunConfig cfg;
    EXPECT_FALSE(runConfigByName("warp-drive", cfg));
}

TEST(RequestParsing, OverridesMutateTheRightFields)
{
    RunConfig cfg;
    ASSERT_TRUE(runConfigByName("baseline", cfg));
    std::string error;
    EXPECT_EQ(applyConfigOverride(cfg, "numSms", "3", error),
              ServiceStatus::kOk);
    EXPECT_EQ(cfg.numSms, 3u);
    EXPECT_EQ(applyConfigOverride(cfg, "powerGating", "true", error),
              ServiceStatus::kOk);
    EXPECT_TRUE(cfg.powerGating);
    EXPECT_EQ(applyConfigOverride(cfg, "label", "my-label", error),
              ServiceStatus::kOk);
    EXPECT_EQ(cfg.label, "my-label");
}

TEST(RequestParsing, BadOverridesAreRejectedWithDiagnostics)
{
    RunConfig cfg;
    ASSERT_TRUE(runConfigByName("baseline", cfg));
    std::string error;
    EXPECT_EQ(applyConfigOverride(cfg, "flux", "1", error),
              ServiceStatus::kBadConfig);
    EXPECT_NE(error.find("flux"), std::string::npos) << error;
    EXPECT_EQ(applyConfigOverride(cfg, "numSms", "-1", error),
              ServiceStatus::kBadConfig);
    EXPECT_EQ(applyConfigOverride(cfg, "numSms", "4x", error),
              ServiceStatus::kBadConfig);
    EXPECT_EQ(applyConfigOverride(cfg, "powerGating", "maybe", error),
              ServiceStatus::kBadConfig);
}

TEST(RequestParsing, BuildJobClassifiesFailures)
{
    std::string error;
    SweepJob job;

    ServiceRequest empty;
    EXPECT_EQ(buildJob(empty, job, error), ServiceStatus::kBadRequest);

    ServiceRequest badConfig;
    badConfig.workload = "BFS";
    badConfig.configName = "warp-drive";
    EXPECT_EQ(buildJob(badConfig, job, error),
              ServiceStatus::kBadConfig);

    ServiceRequest good;
    good.workload = "BFS";
    good.configName = "shrink50";
    good.overrides = {{"numSms", "2"}};
    EXPECT_EQ(buildJob(good, job, error), ServiceStatus::kOk) << error;
    EXPECT_EQ(job.workload, "BFS");
    EXPECT_EQ(job.config.numSms, 2u);
}

TEST(RequestParsing, RemovedLoopKnobsFailClosed)
{
    // The intra-run parallel loop and its overlap checker are gone:
    // their former `set=` keys must be rejected like any unknown key,
    // not silently accepted as no-ops.
    for (const auto &[key, value] :
         {std::pair<std::string, std::string>{"numWorkerThreads", "4"},
          {"checkSmOverlap", "1"}}) {
        ServiceRequest req;
        req.workload = "BFS";
        req.configName = "baseline";
        req.overrides = {{key, value}};
        SweepJob job;
        std::string error;
        EXPECT_EQ(buildJob(req, job, error), ServiceStatus::kBadConfig)
            << key;
        EXPECT_EQ(error, "unknown config override key '" + key + "'");
    }
}

// ---- manifest parsing ----------------------------------------------------

TEST(ManifestParsing, GoodLinesCommentsAndOverrides)
{
    std::istringstream in("# a comment\n"
                          "\n"
                          "MatrixMul baseline\n"
                          "BFS shrink50 numSms=2 roundsPerSm=1 # tail\n");
    const auto entries = parseManifest(in, "m.txt");
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].status, ServiceStatus::kOk);
    EXPECT_EQ(entries[0].workload, "MatrixMul");
    EXPECT_EQ(entries[0].configName, "baseline");
    EXPECT_EQ(entries[0].source, "m.txt:3");
    EXPECT_EQ(entries[1].status, ServiceStatus::kOk);
    EXPECT_EQ(entries[1].config.numSms, 2u);
    EXPECT_EQ(entries[1].config.roundsPerSm, 1u);
    ASSERT_EQ(entries[1].overrides.size(), 2u);
    EXPECT_EQ(entries[1].overrides[0],
              (std::pair<std::string, std::string>{"numSms", "2"}));
}

TEST(ManifestParsing, MalformedLinesAreStructuredErrorsNotAborts)
{
    std::istringstream in("MatrixMul\n"
                          "MatrixMul warp-drive\n"
                          "MatrixMul baseline numSms=oops\n"
                          "MatrixMul baseline justaword\n"
                          "BFS virtualized\n");
    const auto entries = parseManifest(in, "m.txt");
    ASSERT_EQ(entries.size(), 5u);
    EXPECT_EQ(entries[0].status, ServiceStatus::kBadRequest);
    EXPECT_NE(entries[0].error.find("m.txt:1"), std::string::npos);
    EXPECT_EQ(entries[1].status, ServiceStatus::kBadConfig);
    EXPECT_NE(entries[1].error.find("warp-drive"), std::string::npos);
    EXPECT_EQ(entries[2].status, ServiceStatus::kBadConfig);
    EXPECT_NE(entries[2].error.find("oops"), std::string::npos);
    EXPECT_EQ(entries[3].status, ServiceStatus::kBadRequest);
    EXPECT_EQ(entries[4].status, ServiceStatus::kOk)
        << "a good line after bad ones still parses";
}

} // namespace
} // namespace rfv
