/**
 * @file
 * Runtime behavior of the capability-annotated sync primitives
 * (common/sync.h): mutual exclusion, condition-wait wakeups,
 * reader/writer semantics, and — the part std::thread gets wrong —
 * Thread's join-on-destroy and join-before-move-assign guarantees.
 *
 * The compile-time half of the contract (unguarded access is a build
 * break) lives in tests/test_sync_negative/.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <vector>

#include "common/sync.h"

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

} // namespace
} // namespace rfv
