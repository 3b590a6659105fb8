#include "common/thread_pool.h"

namespace rfv {

WorkStealingPool::WorkStealingPool(u32 num_threads)
{
    const u32 n = num_threads == 0 ? 1 : num_threads;
    slots_.reserve(n);
    for (u32 i = 0; i < n; ++i)
        slots_.push_back(std::make_unique<Slot>());
    workers_.reserve(n - 1);
    for (u32 i = 1; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

WorkStealingPool::~WorkStealingPool()
{
    {
        MutexLock lk(mu_);
        stop_ = true;
        roundCv_.notifyAll();
    }
    for (auto &w : workers_)
        w.join();
}

bool
WorkStealingPool::popOwn(u32 self, u32 &job)
{
    Slot &s = *slots_[self];
    MutexLock lk(s.mu);
    if (s.jobs.empty())
        return false;
    job = s.jobs.front();
    s.jobs.pop_front();
    return true;
}

bool
WorkStealingPool::trySteal(u32 self, u32 &job)
{
    const u32 n = size();
    for (u32 off = 1; off < n; ++off) {
        Slot &v = *slots_[(self + off) % n];
        MutexLock lk(v.mu);
        if (v.jobs.empty())
            continue;
        // Steal from the opposite end the owner pops from: the owner
        // keeps its cache-warm front, thieves drain the cold back.
        job = v.jobs.back();
        v.jobs.pop_back();
        ++steals_;
        return true;
    }
    return false;
}

void
WorkStealingPool::workRound(u32 self,
                            const std::function<void(u32, u32)> &fn)
{
    u32 job = 0;
    while (popOwn(self, job) || trySteal(self, job)) {
        try {
            fn(job, self);
        } catch (...) {
            MutexLock lk(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        MutexLock lk(mu_);
        if (--remaining_ == 0)
            doneCv_.notifyAll();
    }
}

void
WorkStealingPool::workerLoop(u32 self)
{
    u64 seen = 0;
    for (;;) {
        const std::function<void(u32, u32)> *fn = nullptr;
        {
            MutexLock lk(mu_);
            if (generation_ == seen && !stop_) {
                ++parks_;
                // While-loop wait: the predicate reads mu_-guarded
                // round state, which the analysis can only verify in
                // this scope (where MutexLock holds mu_).
                do {
                    roundCv_.wait(lk);
                } while (generation_ == seen && !stop_);
            }
            if (stop_)
                return;
            seen = generation_;
            fn = fn_;
        }
        workRound(self, *fn);
        {
            MutexLock lk(mu_);
            ++exited_;
            doneCv_.notifyAll();
        }
    }
}

void
WorkStealingPool::run(u32 count, const std::function<void(u32, u32)> &fn)
{
    if (count == 0)
        return;

    // Deal jobs round-robin; manifest order is preserved within each
    // deque, so --jobs=1 degenerates to exact manifest order.
    for (u32 i = 0; i < count; ++i) {
        Slot &s = *slots_[i % size()];
        MutexLock lk(s.mu);
        s.jobs.push_back(i);
    }

    {
        MutexLock lk(mu_);
        fn_ = &fn;
        remaining_ = count;
        exited_ = 0;
        firstError_ = nullptr;
        ++generation_;
        roundCv_.notifyAll();
    }

    workRound(0, fn); // the caller is worker 0

    std::exception_ptr err;
    {
        MutexLock lk(mu_);
        while (remaining_ != 0 ||
               exited_ != static_cast<u32>(workers_.size()))
            doneCv_.wait(lk);
        err = firstError_;
        firstError_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace rfv
