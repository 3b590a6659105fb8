/**
 * @file
 * Statistics used by every benchmark workload: nearest-rank
 * percentiles with a minimum-tail rule, medians, open-loop due-time
 * accounting and the growing-backlog test behind max_rate_rps.
 *
 * All functions are pure so selftest.cc can pin them on fixed inputs.
 */
#ifndef RFV_PERFBENCH_STATS_H
#define RFV_PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace rfv::perfbench {

/**
 * A percentile is reported only when at least this many samples lie
 * strictly beyond it, so a p99 needs 1000 samples and a p50 needs 20.
 */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/** 1-based nearest rank of quantile @p q (0 < q <= 1) among @p n. */
std::size_t nearestRank(std::size_t n, double q);

/** True when @p n samples leave kMinSamplesBeyond beyond quantile q. */
bool percentileReportable(std::size_t n, double q);

/**
 * Nearest-rank percentile of @p samples (copied and sorted).  Returns
 * 0 for an empty input; callers check percentileReportable() first.
 */
double percentile(std::vector<double> samples, double q);

/** percentile() when percentileReportable(), otherwise 0. */
double reportedPercentile(const std::vector<double> &samples, double q);

/** Samples per latency window: the fewest that report a p99. */
inline constexpr std::size_t kLatencyWindow = 1000;

/**
 * Median, over consecutive windows of kLatencyWindow samples (a
 * trailing partial window is dropped), of each window's percentile
 * @p q, so one host stall moves one window rather than the whole
 * run's tail.  0 when there is no full window.
 */
double windowedPercentile(const std::vector<double> &samples, double q);

/** The middle sample, or the mean of the middle two for even n. */
double median(std::vector<double> samples);

/** One request of an open-loop schedule, all times in seconds. */
struct OpenLoopSample {
    double due = 0;  //!< when the schedule said to send it
    double sent = 0; //!< when the generator actually sent it
    double done = 0; //!< when its decoded response was in hand
};

/** Due time of request @p k at @p rate requests/s from @p start. */
double dueTime(double start, double rate, std::size_t k);

/**
 * Latency from due time to response, so a stall is charged to every
 * request queued behind it (no coordinated omission).
 */
double latencyFromDue(const OpenLoopSample &s);

/** How late the generator sent. */
double sendLag(const OpenLoopSample &s);

/**
 * Growing-backlog test over one fixed-rate phase: the median send lag
 * of the requests due in the last quarter of the phase exceeds that
 * of the first quarter by more than @p toleranceS.  A generator that
 * keeps up has flat lag; an overloaded one falls further behind with
 * every request.
 */
bool backlogGrowing(std::vector<OpenLoopSample> samples,
                    double toleranceS);

} // namespace rfv::perfbench

#endif // RFV_PERFBENCH_STATS_H
