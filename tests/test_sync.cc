/**
 * @file
 * Runtime behavior of the capability-annotated sync primitives
 * (common/sync.h): mutual exclusion, condition-wait wakeups,
 * reader/writer semantics, and — the part std::thread gets wrong —
 * Thread's join-on-destroy and join-before-move-assign guarantees.
 * Also the bounded WorkQueue built from them (common/thread_pool.h).
 *
 * The compile-time half of the contract (unguarded access is a build
 * break) lives in tests/test_sync_negative/.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/thread_pool.h"

namespace rfv {
namespace {

TEST(Sync, MutexLockProvidesMutualExclusion)
{
    Mutex mu;
    i64 counter = 0; // non-atomic on purpose: the lock is the proof
    constexpr u32 kThreads = 8;
    constexpr u32 kIters = 20000;

    {
        std::vector<Thread> threads;
        for (u32 t = 0; t < kThreads; ++t) {
            threads.emplace_back([&] {
                for (u32 i = 0; i < kIters; ++i) {
                    MutexLock lk(mu);
                    ++counter;
                }
            });
        }
    } // Thread joins on destruction

    MutexLock lk(mu);
    EXPECT_EQ(counter, static_cast<i64>(kThreads) * kIters);
}

TEST(Sync, WriterLockExcludesReadersAndWriters)
{
    SharedMutex mu;
    i64 value = 0;
    std::atomic<i64> mismatches{0};
    constexpr u32 kWriters = 2, kReaders = 4;
    constexpr u32 kIters = 5000;

    {
        std::vector<Thread> threads;
        for (u32 w = 0; w < kWriters; ++w) {
            threads.emplace_back([&] {
                for (u32 i = 0; i < kIters; ++i) {
                    WriterLock lk(mu);
                    // Torn-read detector: both halves move together
                    // under the writer lock, so a reader holding the
                    // shared lock can never see them disagree.
                    value += 1000001; // 1000001 = 1000000 + 1
                }
            });
        }
        for (u32 r = 0; r < kReaders; ++r) {
            threads.emplace_back([&] {
                for (u32 i = 0; i < kIters; ++i) {
                    ReaderLock lk(mu);
                    if (value % 1000001 != 0)
                        mismatches.fetch_add(1);
                }
            });
        }
    }

    EXPECT_EQ(mismatches.load(), 0);
    ReaderLock lk(mu);
    EXPECT_EQ(value, static_cast<i64>(kWriters) * kIters * 1000001);
}

TEST(Sync, CondVarWhileLoopWaitDeliversItemsInOrder)
{
    Mutex mu;
    CondVar cv;
    std::deque<int> queue;
    bool done = false;
    std::vector<int> received;

    Thread consumer([&] {
        for (;;) {
            MutexLock lk(mu);
            while (queue.empty() && !done)
                cv.wait(lk);
            if (queue.empty())
                return; // done and drained
            received.push_back(queue.front());
            queue.pop_front();
        }
    });

    constexpr int kItems = 100;
    for (int i = 0; i < kItems; ++i) {
        {
            MutexLock lk(mu);
            queue.push_back(i);
        }
        cv.notifyOne();
    }
    {
        MutexLock lk(mu);
        done = true;
    }
    cv.notifyAll();
    consumer.join();

    ASSERT_EQ(received.size(), static_cast<size_t>(kItems));
    for (int i = 0; i < kItems; ++i)
        EXPECT_EQ(received[i], i);
}

TEST(Sync, CondVarWaitForTimesOutWithoutNotify)
{
    Mutex mu;
    CondVar cv;
    MutexLock lk(mu);
    const auto t0 = std::chrono::steady_clock::now();
    const bool notified =
        cv.waitFor(lk, std::chrono::milliseconds(20));
    EXPECT_FALSE(notified);
    EXPECT_GE(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(15));
}

TEST(Sync, ThreadJoinsOnDestruction)
{
    std::atomic<bool> ran{false};
    {
        Thread t([&] { ran.store(true); });
        // no explicit join: the destructor must supply it
    }
    EXPECT_TRUE(ran.load());
}

TEST(Sync, ThreadMoveAssignJoinsTheOutgoingThread)
{
    std::atomic<int> finished{0};
    Thread t([&] { finished.fetch_add(1); });
    // Move-assignment must join the running thread first (std::thread
    // would call std::terminate here if it were still joinable).
    t = Thread([&] { finished.fetch_add(1); });
    EXPECT_GE(finished.load(), 1); // first thread joined by the move
    t.join();
    EXPECT_EQ(finished.load(), 2);
    EXPECT_FALSE(t.joinable());
}

TEST(Sync, DefaultThreadIsNotJoinable)
{
    Thread t;
    EXPECT_FALSE(t.joinable());
}

TEST(Sync, CounterSumsConcurrentIncrementsAndCopiesAsASnapshot)
{
    constexpr u32 kThreads = 8;
    constexpr u32 kIters = 20000;
    Counter counter;
    u64 midRun = 0;
    {
        std::vector<Thread> threads;
        for (u32 t = 0; t < kThreads; ++t) {
            threads.emplace_back([&counter, t] {
                for (u32 i = 0; i < kIters; ++i) {
                    if (t % 2)
                        counter += 2;
                    else
                        ++counter;
                }
            });
        }
        const Counter copy = counter; // taken while the threads run
        midRun = copy;
    } // Thread joins on destruction

    const u64 total = (kThreads / 2) * kIters * 3;
    EXPECT_EQ(static_cast<u64>(counter), total);
    EXPECT_LE(midRun, total);

    Counter snapshot;
    snapshot = counter;
    ++counter;
    EXPECT_EQ(static_cast<u64>(snapshot), total);
    EXPECT_EQ(static_cast<u64>(counter), total + 1);
}

TEST(Sync, HardwareConcurrencyIsAtLeastOne)
{
    EXPECT_GE(hardwareConcurrency(), 1u);
}

/** Holds WorkQueue workers inside their work until opened. */
class Gate {
  public:
    void
    pass()
    {
        entered_.fetch_add(1);
        MutexLock lk(mu_);
        while (!open_)
            cv_.wait(lk);
    }

    void
    open()
    {
        {
            MutexLock lk(mu_);
            open_ = true;
        }
        cv_.notifyAll();
    }

    /** Spin until @p n workers are inside pass(). */
    void
    awaitEntered(u32 n) const
    {
        while (entered_.load() < n)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

  private:
    Mutex mu_;
    CondVar cv_;
    bool open_ RFV_GUARDED_BY(mu_) = false;
    std::atomic<u32> entered_{0};
};

TEST(WorkQueue, OneWorkerRunsItemsInFifoOrder)
{
    std::vector<int> received; // touched by the one worker, then here
    WorkQueue<int> q(1, 1000, [&](int &v) { received.push_back(v); });
    constexpr int kItems = 200;
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(q.push(i), QueuePush::kAccepted);
    q.close(); // joins: the worker's writes are visible from here on

    ASSERT_EQ(received.size(), static_cast<size_t>(kItems));
    for (int i = 0; i < kItems; ++i)
        EXPECT_EQ(received[i], i);
}

TEST(WorkQueue, RefusesWhenFullAndAfterClose)
{
    Gate gate;
    WorkQueue<int> q(1, 2, [&](int &) { gate.pass(); });
    ASSERT_EQ(q.push(0), QueuePush::kAccepted);
    gate.awaitEntered(1); // item 0 is in work, the queue is empty
    EXPECT_EQ(q.push(1), QueuePush::kAccepted);
    EXPECT_EQ(q.push(2), QueuePush::kAccepted);
    EXPECT_EQ(q.push(3), QueuePush::kFull); // never blocks
    gate.open();
    q.close();
    EXPECT_EQ(q.push(4), QueuePush::kClosed);
    q.close(); // idempotent
    EXPECT_EQ(q.push(5), QueuePush::kClosed);
}

TEST(WorkQueue, CloseRunsTheWholeBacklogBeforeJoining)
{
    Gate gate;
    std::atomic<u32> ran{0};
    WorkQueue<int> q(1, 64, [&](int &) {
        gate.pass();
        ran.fetch_add(1);
    });
    constexpr u32 kItems = 50;
    for (u32 i = 0; i < kItems; ++i)
        ASSERT_EQ(q.push(static_cast<int>(i)), QueuePush::kAccepted);
    gate.awaitEntered(1);
    Thread opener([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        gate.open();
    });
    q.close(); // blocks until the gate opens and the backlog is run
    EXPECT_EQ(ran.load(), kItems);
    const auto g = q.gauges();
    EXPECT_EQ(g.queued, 0u);
    EXPECT_EQ(g.inWork, 0u);
}

TEST(WorkQueue, DrainWaitsForTheItemInWork)
{
    Gate gate;
    std::atomic<u32> done{0};
    WorkQueue<int> q(1, 4, [&](int &) {
        gate.pass();
        done.fetch_add(1);
    });
    ASSERT_EQ(q.push(0), QueuePush::kAccepted);
    gate.awaitEntered(1); // nothing queued, one item in work

    std::atomic<bool> drained{false};
    std::atomic<u32> doneAtDrain{0};
    Thread waiter([&] {
        q.drain();
        doneAtDrain = done.load();
        drained = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(drained.load());
    gate.open();
    waiter.join();
    EXPECT_TRUE(drained.load());
    EXPECT_EQ(doneAtDrain.load(), 1u);
    q.drain(); // an idle queue returns at once
}

TEST(WorkQueue, GaugesTrackQueuedInWorkAndHighWater)
{
    Gate gate;
    WorkQueue<int> q(1, 8, [&](int &) { gate.pass(); });
    auto g = q.gauges();
    EXPECT_EQ(g.queued, 0u);
    EXPECT_EQ(g.inWork, 0u);
    EXPECT_EQ(g.highWater, 0u);

    ASSERT_EQ(q.push(0), QueuePush::kAccepted);
    gate.awaitEntered(1);
    for (int i = 1; i <= 3; ++i)
        ASSERT_EQ(q.push(i), QueuePush::kAccepted);
    g = q.gauges();
    EXPECT_EQ(g.queued, 3u);
    EXPECT_EQ(g.inWork, 1u);
    EXPECT_EQ(g.highWater, 3u);

    gate.open();
    q.drain();
    g = q.gauges();
    EXPECT_EQ(g.queued, 0u);
    EXPECT_EQ(g.inWork, 0u);
    EXPECT_EQ(g.highWater, 3u); // a high-water mark never falls
}

TEST(WorkQueue, NWorkersRunEveryItemExactlyOnce)
{
    constexpr u32 kWorkers = 4;
    constexpr u32 kItems = 4000;
    Gate gate;
    std::vector<std::atomic<u32>> hits(kItems);
    WorkQueue<u32> q(kWorkers, kItems, [&](u32 &i) {
        if (i < kWorkers)
            gate.pass(); // the first kWorkers items meet at the gate
        hits[i].fetch_add(1);
    });
    for (u32 i = 0; i < kItems; ++i)
        ASSERT_EQ(q.push(i), QueuePush::kAccepted);
    gate.awaitEntered(kWorkers); // every worker holds one item at once
    EXPECT_EQ(q.gauges().inWork, kWorkers);
    gate.open();
    q.close();
    for (u32 i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "item " << i;
}

} // namespace
} // namespace rfv
