#include "stats.h"

#include <algorithm>
#include <cmath>

namespace rfv::perfbench {

std::size_t
nearestRank(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) -
                                           1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

bool
percentileReportable(std::size_t n, double q)
{
    return n > 0 && n - nearestRank(n, q) >= kMinSamplesBeyond;
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    const std::size_t rank = nearestRank(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
reportedPercentile(const std::vector<double> &samples, double q)
{
    return percentileReportable(samples.size(), q) ? percentile(samples, q)
                                                   : 0.0;
}

double
windowedPercentile(const std::vector<double> &samples, double q)
{
    std::vector<double> windows;
    for (std::size_t at = 0; at + kLatencyWindow <= samples.size();
         at += kLatencyWindow)
        windows.push_back(percentile(
            std::vector<double>(samples.begin() + at,
                                samples.begin() + at + kLatencyWindow),
            q));
    return median(windows);
}
double
median(std::vector<double> samples)
{
    const std::size_t n = samples.size();
    if (n == 0)
        return 0;
    std::sort(samples.begin(), samples.end());
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
dueTime(double start, double rate, std::size_t k)
{
    return start + static_cast<double>(k) / rate;
}

double
latencyFromDue(const OpenLoopSample &s)
{
    return s.done - s.due;
}

double
sendLag(const OpenLoopSample &s)
{
    return s.sent - s.due;
}

bool
backlogGrowing(std::vector<OpenLoopSample> samples, double toleranceS)
{
    if (samples.size() < 8)
        return false;
    std::sort(samples.begin(), samples.end(),
              [](const OpenLoopSample &a, const OpenLoopSample &b) {
                  return a.due < b.due;
              });
    const std::size_t quarter = samples.size() / 4;
    std::vector<double> first, last;
    for (std::size_t i = 0; i < quarter; ++i) {
        first.push_back(sendLag(samples[i]));
        last.push_back(sendLag(samples[samples.size() - 1 - i]));
    }
    return median(last) - median(first) > toleranceS;
}

} // namespace rfv::perfbench
