/**
 * @file
 * Self-test of the benchmark's statistics on fixed synthetic inputs.
 * Every run executes it before measuring; `--selftest` runs it alone.
 */
#include "selftest.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "stats.h"

namespace rfv::perfbench {
namespace {

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

/**
 * Replays one connection of an open-loop generator on a fake clock: a
 * request is sent at its due time, or as soon as the previous one on
 * the connection has been answered.
 */
std::vector<OpenLoopSample>
replayConnection(double rate, const std::vector<double> &service)
{
    std::vector<OpenLoopSample> out;
    double freeAt = 0;
    for (size_t k = 0; k < service.size(); ++k) {
        OpenLoopSample s;
        s.due = dueTime(0, rate, k);
        s.sent = std::max(s.due, freeAt);
        s.done = s.sent + service[k];
        freeAt = s.done;
        out.push_back(s);
    }
    return out;
}

} // namespace

bool
runSelfTest(std::string &failure)
{
    const auto fail = [&](const std::string &what) {
        failure = what;
        return false;
    };

    // Nearest-rank percentiles: the textbook example and 1..100.
    const std::vector<double> five = {15, 20, 35, 40, 50};
    if (!near(percentile(five, 0.05), 15) ||
        !near(percentile(five, 0.30), 20) ||
        !near(percentile(five, 0.40), 20) ||
        !near(percentile(five, 0.50), 35) ||
        !near(percentile(five, 1.00), 50))
        return fail("nearest-rank percentile of {15,20,35,40,50}");
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    if (!near(percentile(hundred, 0.50), 50) ||
        !near(percentile(hundred, 0.99), 99) ||
        !near(percentile(hundred, 0.999), 100))
        return fail("nearest-rank percentile of 1..100");
    if (!near(median({3, 1, 2}), 2) || !near(median({4, 1, 3, 2}), 2.5))
        return fail("median");

    // Windowed percentiles: windows 1..1000, 1001..2000, 2001..3000
    // have p99s 990, 1990, 2990; the partial tail is dropped.
    std::vector<double> ramp;
    for (int i = 1; i <= 3500; ++i)
        ramp.push_back(i);
    if (!near(windowedPercentile(ramp, 0.99), 1990) ||
        !near(windowedPercentile(
                  std::vector<double>(ramp.begin(), ramp.begin() + 999),
                  0.99),
              0))
        return fail("windowed percentiles");

    // A percentile needs ten samples beyond it: no p99 below 1000.
    if (!percentileReportable(1000, 0.99) ||
        percentileReportable(999, 0.99) ||
        !percentileReportable(20, 0.50) ||
        percentileReportable(19, 0.50) || percentileReportable(0, 0.5) ||
        !near(reportedPercentile(std::vector<double>(ramp.begin(),
                                                     ramp.begin() + 1000),
                                 0.99),
              990) ||
        reportedPercentile(std::vector<double>(ramp.begin(),
                                               ramp.begin() + 999),
                           0.99) != 0)
        return fail("ten-samples-beyond reporting rule");

    // Open-loop due-time accounting at 100 req/s on one connection: a
    // 50 ms stall on request 0 delays requests 1..4, and each of them
    // is charged from its due time, not from when it could be sent.
    const auto s = replayConnection(100, {0.050, 0.001, 0.001, 0.001,
                                          0.001, 0.001, 0.001});
    const double wantLatency[] = {0.050, 0.041, 0.032, 0.023,
                                  0.014, 0.005, 0.001};
    const double wantLag[] = {0, 0.040, 0.031, 0.022, 0.013, 0.004, 0};
    for (size_t k = 0; k < s.size(); ++k)
        if (!near(latencyFromDue(s[k]), wantLatency[k]) ||
            !near(sendLag(s[k]), wantLag[k]))
            return fail("open-loop accounting at request " +
                        std::to_string(k));

    // Growing backlog: service at 80% of the interval keeps up (flat
    // lag); at 125% of it the lag grows with every request.
    if (backlogGrowing(replayConnection(100, std::vector<double>(400,
                                                                 0.008)),
                       0.001))
        return fail("backlog flagged for a generator that keeps up");
    if (!backlogGrowing(replayConnection(100, std::vector<double>(
                                                  400, 0.0125)),
                        0.001))
        return fail("backlog not flagged for an overloaded server");
    return true;
}

} // namespace rfv::perfbench
