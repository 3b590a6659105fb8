/**
 * @file
 * Capability-annotated synchronization primitives — the only place in
 * the repository allowed to name a raw `std::mutex`,
 * `std::shared_mutex`, `std::condition_variable` or `std::thread`
 * (enforced by tools/lint/concurrency_lint.py).
 *
 * Every lock in the concurrent core (WorkStealingPool, ResultCache,
 * ArtifactStore, SimdServer) is one of these wrappers, and every field
 * a lock guards is annotated with RFV_GUARDED_BY.  Under Clang,
 * `-Wthread-safety -Wthread-safety-beta` (promoted to errors by the
 * RFV_THREAD_SAFETY CMake option and the thread-safety CI job) then
 * *proves* the lock discipline at compile time: an unguarded access
 * to a guarded field, a call to an RFV_REQUIRES helper without the
 * lock, or an acquisition that violates a declared RFV_ACQUIRED_AFTER
 * order is a build break, not a TSan roll of the dice.  Under GCC (and
 * any compiler without the attributes) the macros expand to nothing
 * and the wrappers are zero-cost aliases of the std primitives.
 *
 * Design rules the wrappers bake in:
 *
 *  - RAII only.  Mutex/SharedMutex expose *no* lock()/unlock();
 *    acquisition is only possible through the scoped MutexLock /
 *    ReaderLock / WriterLock types, so an early return or exception
 *    can never leak a held lock.  (The linter independently forbids
 *    manual .lock()/.unlock() calls outside this header.)
 *
 *  - Condition waits that inspect RFV_GUARDED_BY state use the
 *    plain `wait(MutexLock &)` overload inside a while-loop in the
 *    *caller*, where the analysis can see the capability is held:
 *
 *        MutexLock lk(mu_);
 *        while (queue_.empty() && !stop_)
 *            cv_.wait(lk);
 *
 *    The predicate overload `wait(lk, pred)` exists for predicates
 *    over atomics only: Clang analyzes a lambda body as its own
 *    function, so a lambda touching guarded fields would warn even
 *    though the wait holds the lock.
 *
 *  - Threads are rfv::Thread: join-on-destroy (never std::terminate,
 *    never a detach — detaching is also linter-forbidden), move-only,
 *    and move-assignment joins the outgoing thread first.
 */
#ifndef RFV_COMMON_SYNC_H
#define RFV_COMMON_SYNC_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "common/types.h"

// ---- Clang thread-safety attribute macros ------------------------------
//
// Gated on __has_attribute so the header is a no-op under GCC, MSVC,
// and older Clangs; the spelling set matches
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define RFV_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef RFV_THREAD_ANNOTATION
#define RFV_THREAD_ANNOTATION(x) // no-op outside Clang
#endif

/** Marks a type as a lockable capability (e.g. a mutex). */
#define RFV_CAPABILITY(name) RFV_THREAD_ANNOTATION(capability(name))

/** Marks an RAII type that acquires in its ctor, releases in its dtor. */
#define RFV_SCOPED_CAPABILITY RFV_THREAD_ANNOTATION(scoped_lockable)

/** Field may only be touched while holding the named capability. */
#define RFV_GUARDED_BY(x) RFV_THREAD_ANNOTATION(guarded_by(x))

/** Pointee may only be touched while holding the named capability. */
#define RFV_PT_GUARDED_BY(x) RFV_THREAD_ANNOTATION(pt_guarded_by(x))

/** Caller must hold the capability (exclusively) to call this. */
#define RFV_REQUIRES(...)                                                 \
    RFV_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Caller must hold the capability (at least shared) to call this. */
#define RFV_REQUIRES_SHARED(...)                                          \
    RFV_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/** Function acquires the capability (exclusively). */
#define RFV_ACQUIRE(...)                                                  \
    RFV_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function acquires the capability (shared). */
#define RFV_ACQUIRE_SHARED(...)                                           \
    RFV_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/** Function releases the capability. */
#define RFV_RELEASE(...)                                                  \
    RFV_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function releases a shared hold on the capability. */
#define RFV_RELEASE_SHARED(...)                                           \
    RFV_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/** Caller must NOT hold the capability (deadlock prevention). */
#define RFV_EXCLUDES(...) RFV_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Declared lock-order edge: this capability after the named ones. */
#define RFV_ACQUIRED_AFTER(...)                                           \
    RFV_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Declared lock-order edge: this capability before the named ones. */
#define RFV_ACQUIRED_BEFORE(...)                                          \
    RFV_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/** Function returns a reference to the named capability. */
#define RFV_RETURN_CAPABILITY(x) RFV_THREAD_ANNOTATION(lock_returned(x))

namespace rfv {

class CondVar;
class MutexLock;
class ReaderLock;
class WriterLock;

/**
 * Plain exclusive mutex capability.  Deliberately exposes no
 * lock()/unlock(): acquisition is only possible through MutexLock, so
 * every critical section is a scope.
 */
class RFV_CAPABILITY("mutex") Mutex {
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

  private:
    friend class MutexLock;
    std::mutex mu_;
};

/**
 * Reader/writer mutex capability.  Acquired only through ReaderLock
 * (shared) and WriterLock (exclusive).
 */
class RFV_CAPABILITY("shared_mutex") SharedMutex {
  public:
    SharedMutex() = default;
    SharedMutex(const SharedMutex &) = delete;
    SharedMutex &operator=(const SharedMutex &) = delete;

  private:
    friend class ReaderLock;
    friend class WriterLock;
    std::shared_mutex mu_;
};

/** Scoped exclusive hold of a Mutex (the only way to acquire one). */
class RFV_SCOPED_CAPABILITY MutexLock {
  public:
    explicit MutexLock(Mutex &mu) RFV_ACQUIRE(mu) : lk_(mu.mu_) {}
    ~MutexLock() RFV_RELEASE() {}

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    friend class CondVar;
    std::unique_lock<std::mutex> lk_;
};

/** Scoped shared (reader) hold of a SharedMutex. */
class RFV_SCOPED_CAPABILITY ReaderLock {
  public:
    explicit ReaderLock(SharedMutex &mu) RFV_ACQUIRE_SHARED(mu)
        : lk_(mu.mu_)
    {
    }
    ~ReaderLock() RFV_RELEASE() {}

    ReaderLock(const ReaderLock &) = delete;
    ReaderLock &operator=(const ReaderLock &) = delete;

  private:
    std::shared_lock<std::shared_mutex> lk_;
};

/** Scoped exclusive (writer) hold of a SharedMutex. */
class RFV_SCOPED_CAPABILITY WriterLock {
  public:
    explicit WriterLock(SharedMutex &mu) RFV_ACQUIRE(mu) : lk_(mu.mu_) {}
    ~WriterLock() RFV_RELEASE() {}

    WriterLock(const WriterLock &) = delete;
    WriterLock &operator=(const WriterLock &) = delete;

  private:
    std::unique_lock<std::shared_mutex> lk_;
};

/**
 * Condition variable bound to Mutex/MutexLock.
 *
 * Guarded-state predicates belong in a while-loop at the call site
 * (see the header comment); the predicate overloads are for atomics.
 */
class CondVar {
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

    /** One wakeup; caller re-checks its predicate in a while-loop. */
    void wait(MutexLock &lk) { cv_.wait(lk.lk_); }

    /** Predicate wait — for predicates over atomics ONLY (see above). */
    template <typename Pred>
    void
    wait(MutexLock &lk, Pred pred)
    {
        cv_.wait(lk.lk_, std::move(pred));
    }

    /** Timed single wakeup; true = notified, false = timed out. */
    template <typename Rep, typename Period>
    bool
    waitFor(MutexLock &lk, const std::chrono::duration<Rep, Period> &d)
    {
        return cv_.wait_for(lk.lk_, d) == std::cv_status::no_timeout;
    }

    /** Timed predicate wait — predicates over atomics ONLY. */
    template <typename Rep, typename Period, typename Pred>
    bool
    waitFor(MutexLock &lk, const std::chrono::duration<Rep, Period> &d,
            Pred pred)
    {
        return cv_.wait_for(lk.lk_, d, std::move(pred));
    }

  private:
    std::condition_variable cv_;
};

/**
 * Join-on-destroy thread.  Mirrors std::thread's interface where the
 * repo uses it, but destruction and move-assignment join instead of
 * calling std::terminate, and there is deliberately no detach().
 */
class Thread {
  public:
    Thread() = default;

    template <typename Fn, typename... Args>
    explicit Thread(Fn &&fn, Args &&...args)
        : t_(std::forward<Fn>(fn), std::forward<Args>(args)...)
    {
    }

    Thread(const Thread &) = delete;
    Thread &operator=(const Thread &) = delete;

    Thread(Thread &&other) noexcept = default;

    Thread &
    operator=(Thread &&other) noexcept
    {
        if (t_.joinable())
            t_.join(); // join-before-replace, never std::terminate
        t_ = std::move(other.t_);
        return *this;
    }

    ~Thread()
    {
        if (t_.joinable())
            t_.join();
    }

    bool joinable() const { return t_.joinable(); }
    void join() { t_.join(); }

  private:
    std::thread t_;
};

/**
 * Monotonic event counter of the service stats structs: bumped by any
 * thread without a lock, copied as a snapshot, read as a u64.  Each
 * such struct has one walk, `static void fields(fn)`, calling
 * fn(wire_name, &Struct::member) in output order for its serializers.
 */
class Counter {
  public:
    Counter() = default;
    Counter(u64 v) : v_(v) {} // a value converts to its own snapshot
    Counter(const Counter &other) : v_(static_cast<u64>(other)) {}

    Counter &
    operator=(const Counter &other)
    {
        v_.store(other, kOrder);
        return *this;
    }

    operator u64() const { return v_.load(kOrder); }

    Counter &
    operator++()
    {
        v_.fetch_add(1, kOrder);
        return *this;
    }

    Counter &
    operator+=(u64 n)
    {
        v_.fetch_add(n, kOrder);
        return *this;
    }

  private:
    // relaxed: monotonic statistics; no counter orders another access.
    // A struct snapshot reads its counters one by one, so identities
    // between counters hold once traffic has stopped.
    static constexpr std::memory_order kOrder = std::memory_order_relaxed;

    std::atomic<u64> v_{0};
};

/** Hint for sizing worker fleets (>= 1 even when unknown). */
inline u32
hardwareConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : static_cast<u32>(hw);
}

} // namespace rfv

#endif // RFV_COMMON_SYNC_H
