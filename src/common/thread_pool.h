/**
 * @file
 * WorkStealingPool: the one pool for job-grain work (whole
 * simulations in a sweep, fuzz scenarios).  Jobs are dealt
 * round-robin into per-worker deques; owners pop from the front, idle
 * workers steal from the back of a victim's deque, and workers with
 * nothing left to steal leave the round (no spinning while a long job
 * drains).  Between rounds workers park on a condition variable.
 */
#ifndef RFV_COMMON_THREAD_POOL_H
#define RFV_COMMON_THREAD_POOL_H

#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "common/sync.h"
#include "common/types.h"

namespace rfv {

/**
 * Work-stealing scheduler for coarse jobs (whole simulations).
 *
 * run(n, fn) executes fn(job, worker) exactly once for every job in
 * [0, n), on @p numThreads workers including the calling thread.
 * Jobs are dealt round-robin into per-worker deques up front; an
 * owner pops from the front of its own deque, and a worker whose
 * deque is empty steals from the back of the first non-empty victim.
 * A worker that finds every deque empty leaves the round, so nobody
 * spins while the last long job drains.  Exceptions are captured and
 * the first is rethrown on the calling thread.
 */
class WorkStealingPool {
  public:
    /** Total worker count including the caller; clamped to >= 1. */
    explicit WorkStealingPool(u32 numThreads);
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    /** Workers including the calling thread. */
    u32 size() const { return static_cast<u32>(slots_.size()); }

    /** Run all jobs; fn(jobIndex, workerId). */
    void run(u32 count, const std::function<void(u32, u32)> &fn);

    /** Jobs executed by a worker other than the one they were dealt to. */
    u64 steals() const { return steals_; }

    /** Times a worker blocked waiting for work (idle parking events). */
    u64 parks() const { return parks_; }

  private:
    struct alignas(64) Slot {
        Mutex mu;
        std::deque<u32> jobs RFV_GUARDED_BY(mu);
    };

    void workerLoop(u32 self);
    void workRound(u32 self, const std::function<void(u32, u32)> &fn);
    bool popOwn(u32 self, u32 &job);
    bool trySteal(u32 self, u32 &job);

    std::vector<std::unique_ptr<Slot>> slots_; //!< one per worker, [0]=caller
    std::vector<Thread> workers_;              //!< size()-1 spawned threads

    Mutex mu_;
    CondVar roundCv_; //!< workers wait for a round/stop
    CondVar doneCv_;  //!< caller waits for the round end
    u64 generation_ RFV_GUARDED_BY(mu_) = 0;
    bool stop_ RFV_GUARDED_BY(mu_) = false;
    const std::function<void(u32, u32)> *fn_ RFV_GUARDED_BY(mu_) = nullptr;
    u32 remaining_ RFV_GUARDED_BY(mu_) = 0; //!< jobs not yet done this round
    u32 exited_ RFV_GUARDED_BY(mu_) = 0; //!< spawned workers out of the round

    Counter steals_;
    Counter parks_;

    std::exception_ptr firstError_ RFV_GUARDED_BY(mu_);
};

} // namespace rfv

#endif // RFV_COMMON_THREAD_POOL_H
