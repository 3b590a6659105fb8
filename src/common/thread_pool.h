/**
 * @file
 * The two worker fleets of the repository.
 *
 * WorkStealingPool is the one pool for job-grain work in finite
 * rounds (whole simulations in a sweep, fuzz scenarios), where the
 * caller takes part.  Jobs are dealt round-robin into per-worker
 * deques; owners pop from the front, idle workers steal from the back
 * of a victim's deque, and workers with nothing left to steal leave
 * the round (no spinning while a long job drains).  Between rounds
 * workers park on a condition variable.
 *
 * WorkQueue is the one bounded background queue for unbounded
 * streams of items handed off by other threads: the daemon's
 * admission queue, its replicator and the result cache's write-behind
 * publisher.
 */
#ifndef RFV_COMMON_THREAD_POOL_H
#define RFV_COMMON_THREAD_POOL_H

#include <algorithm>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
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

/** What WorkQueue::push() did with an item. */
enum class QueuePush { kAccepted, kFull, kClosed };

/**
 * Bounded FIFO handed to a fixed set of worker threads, each running
 * work(item) for one item at a time.
 *
 * push() never blocks: a full or closed queue refuses the item, and
 * the caller decides what a refusal means (shed, drop, count).  An
 * accepted item is always run: close() refuses later pushes, lets the
 * workers finish the whole backlog, then joins them, and the decision
 * to accept and the decision to exit are taken under the same lock.
 * @p work runs with no lock held and must not throw.
 */
template <class T>
class WorkQueue {
  public:
    /** Point-in-time gauges, read under one lock. */
    struct Gauges {
        u64 queued = 0;    //!< accepted, not yet started
        u64 inWork = 0;    //!< being run by a worker
        u64 highWater = 0; //!< largest `queued` ever seen
    };

    /** Starts max(@p workers, 1) threads; holds <= @p capacity items. */
    WorkQueue(u32 workers, u64 capacity, std::function<void(T &)> work)
        : capacity_(capacity), work_(std::move(work))
    {
        workers = std::max<u32>(workers, 1);
        workers_.reserve(workers);
        for (u32 i = 0; i < workers; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~WorkQueue() { close(); }

    WorkQueue(const WorkQueue &) = delete;
    WorkQueue &operator=(const WorkQueue &) = delete;

    /** Enqueue @p item; a refused item is destroyed. */
    QueuePush
    push(T item) RFV_EXCLUDES(mu_)
    {
        {
            MutexLock lk(mu_);
            if (closed_)
                return QueuePush::kClosed;
            if (items_.size() >= capacity_)
                return QueuePush::kFull;
            items_.push_back(std::move(item));
            highWater_ = std::max<u64>(highWater_, items_.size());
        }
        workCv_.notifyOne();
        return QueuePush::kAccepted;
    }

    /**
     * Refuse later pushes, run the backlog, join the workers.
     * Idempotent; called by the owner, not concurrently with itself.
     */
    void
    close() RFV_EXCLUDES(mu_)
    {
        {
            MutexLock lk(mu_);
            closed_ = true;
        }
        workCv_.notifyAll();
        for (Thread &t : workers_)
            if (t.joinable())
                t.join();
    }

    /** Block until nothing is queued or running. */
    void
    drain() RFV_EXCLUDES(mu_)
    {
        MutexLock lk(mu_);
        while (!items_.empty() || inWork_ > 0)
            idleCv_.wait(lk);
    }

    Gauges
    gauges() const RFV_EXCLUDES(mu_)
    {
        MutexLock lk(mu_);
        return {items_.size(), inWork_, highWater_};
    }

  private:
    void
    workerLoop() RFV_EXCLUDES(mu_)
    {
        for (;;) {
            std::optional<T> item;
            {
                MutexLock lk(mu_);
                while (items_.empty() && !closed_)
                    workCv_.wait(lk);
                if (items_.empty())
                    return; // closed and the backlog is done
                item.emplace(std::move(items_.front()));
                items_.pop_front();
                ++inWork_;
            }
            work_(*item);
            item.reset(); // the item's resources go before drain() returns
            {
                MutexLock lk(mu_);
                --inWork_;
                if (items_.empty() && inWork_ == 0)
                    idleCv_.notifyAll();
            }
        }
    }

    const u64 capacity_;
    const std::function<void(T &)> work_;

    mutable Mutex mu_;
    CondVar workCv_; //!< an item arrived, or close()
    CondVar idleCv_; //!< nothing queued or running
    std::deque<T> items_ RFV_GUARDED_BY(mu_);
    u64 inWork_ RFV_GUARDED_BY(mu_) = 0;
    u64 highWater_ RFV_GUARDED_BY(mu_) = 0;
    bool closed_ RFV_GUARDED_BY(mu_) = false;
    std::vector<Thread> workers_; //!< started last, after every field
};

} // namespace rfv

#endif // RFV_COMMON_THREAD_POOL_H
