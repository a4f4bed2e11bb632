/**
 * @file
 * Clang Thread Safety Analysis support: portable annotation macros and
 * an annotated mutex wrapper, so every mutex-guarded invariant in the
 * concurrent subsystems (thread pool, evaluation cache, batch runner,
 * job server, portfolio search) is machine-checked at compile time.
 *
 * Under clang the macros expand to the `capability` attribute family
 * and `-Wthread-safety` proves that every access to a
 * `CAFQA_GUARDED_BY(m)` field happens with `m` held and that every
 * `CAFQA_REQUIRES(m)` helper is only called under the lock; everywhere
 * else they expand to nothing. The CI clang build compiles `src/` with
 * `-Wthread-safety -Werror`, so a missing lock is a build failure, not
 * a TSan lottery ticket.
 *
 * Conventions (enforced by `tools/lint_invariants`):
 *  - Shared state uses `cafqa::Mutex`, never a naked `std::mutex`
 *    member — the wrapper carries the `capability` attribute the
 *    analysis needs.
 *  - Lock with `MutexLock` (scoped; supports the unlock/relock dance
 *    worker loops need) and block with `CondVar`, which pairs with
 *    `MutexLock` the way `std::condition_variable` pairs with
 *    `std::unique_lock`.
 *  - A method that needs the lock already held takes the
 *    `Locked()`-suffix name and a `CAFQA_REQUIRES(mutex_)` annotation;
 *    the locking wrapper keeps the public name.
 *  - Condition-variable predicates are open-coded in the waiting
 *    function (a `while (!pred) cv.wait(lock)` loop) instead of being
 *    passed as lambdas: the analysis is intraprocedural, so guarded
 *    reads inside a predicate lambda could not be proven.
 *  - Every long-lived mutex carries a REGISTERED NAME (the string
 *    passed to the constructor, equal to the declared identifier minus
 *    any trailing underscore; `tools/lint_invariants` checks the
 *    convention and that no name is registered twice). Under the
 *    `CAFQA_LOCK_ORDER_CHECK` CMake option every acquisition is
 *    validated at runtime against the committed acyclic manifest
 *    `tools/lint/lock_order.manifest` (compiled to a static table)
 *    using a thread-local held-stack — an acquisition whose (held,
 *    next) name pair has no manifest edge aborts with both endpoints
 *    named. Unnamed mutexes (tests, benches) are exempt from the
 *    runtime check.
 */
#ifndef CAFQA_COMMON_THREAD_SAFETY_HPP
#define CAFQA_COMMON_THREAD_SAFETY_HPP

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define CAFQA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CAFQA_THREAD_ANNOTATION(x) // no-op outside clang
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define CAFQA_CAPABILITY(x) CAFQA_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires in its constructor and releases in
 *  its destructor. */
#define CAFQA_SCOPED_CAPABILITY CAFQA_THREAD_ANNOTATION(scoped_lockable)

/** Field may only be read or written with `x` held. */
#define CAFQA_GUARDED_BY(x) CAFQA_THREAD_ANNOTATION(guarded_by(x))

/** Pointer field whose *pointee* is guarded by `x`. */
#define CAFQA_PT_GUARDED_BY(x) CAFQA_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function requires the listed capabilities held on entry (the
 *  `Locked()`-suffix helper contract). */
#define CAFQA_REQUIRES(...) \
    CAFQA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the listed capabilities and holds them on exit. */
#define CAFQA_ACQUIRE(...) \
    CAFQA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the listed capabilities. */
#define CAFQA_RELEASE(...) \
    CAFQA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function attempts the acquisition; holds it iff it returned `r`. */
#define CAFQA_TRY_ACQUIRE(r, ...) \
    CAFQA_THREAD_ANNOTATION(try_acquire_capability(r, __VA_ARGS__))

/** Function must be called with the listed capabilities NOT held
 *  (deadlock prevention on self-locking public entry points). */
#define CAFQA_EXCLUDES(...) \
    CAFQA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Declares the capability returned by a getter. */
#define CAFQA_RETURN_CAPABILITY(x) \
    CAFQA_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch; every use needs a comment saying why the analysis
 *  cannot see the synchronization (e.g. happens-before via join()). */
#define CAFQA_NO_THREAD_SAFETY_ANALYSIS \
    CAFQA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cafqa {

class Mutex;

namespace detail {

#if defined(CAFQA_LOCK_ORDER_CHECK)
/** Aborts unless every currently-held registered name has a manifest
 *  edge to `mutex`'s name. Called BEFORE blocking on the underlying
 *  `std::mutex`, so a bad ordering aborts deterministically instead of
 *  deadlocking when the schedule cooperates. */
void lock_order_check(const Mutex& mutex) noexcept;
/** Pushes `mutex` onto the calling thread's held-stack. */
void lock_order_push(const Mutex& mutex) noexcept;
/** Removes `mutex` from the calling thread's held-stack. */
void lock_order_pop(const Mutex& mutex) noexcept;
#else
inline void lock_order_check(const Mutex&) noexcept {}
inline void lock_order_push(const Mutex&) noexcept {}
inline void lock_order_pop(const Mutex&) noexcept {}
#endif

} // namespace detail

/**
 * `std::mutex` with the `capability` attribute. Satisfies Lockable, so
 * `std::lock_guard<Mutex>` and `std::unique_lock<Mutex>` still compile
 * — but prefer `MutexLock`, which the analysis understands.
 *
 * The optional constructor argument registers a lock-order name (see
 * the file comment); pass the declared identifier minus any trailing
 * underscore, as a string literal (the pointer is stored, not copied).
 */
class CAFQA_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    explicit Mutex(const char* name) : name_(name) {}
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() CAFQA_ACQUIRE()
    {
        detail::lock_order_check(*this);
        mutex_.lock();
        detail::lock_order_push(*this);
    }
    void unlock() CAFQA_RELEASE()
    {
        detail::lock_order_pop(*this);
        mutex_.unlock();
    }
    bool try_lock() CAFQA_TRY_ACQUIRE(true)
    {
        detail::lock_order_check(*this);
        const bool acquired = mutex_.try_lock();
        if (acquired) { detail::lock_order_push(*this); }
        return acquired;
    }

    /** Registered lock-order name; nullptr when unregistered. */
    const char* name() const noexcept { return name_; }

  private:
    friend class MutexLock;
    std::mutex mutex_;
    const char* name_ = nullptr;
};

/**
 * Scoped lock over `Mutex`, annotated so the analysis tracks the held
 * set across the constructor/destructor and the explicit
 * `unlock()`/`lock()` pair (the worker-loop "drop the lock around user
 * code" dance). Waiting is `CondVar::wait(MutexLock&)`.
 */
class CAFQA_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex& mutex) CAFQA_ACQUIRE(mutex)
        : lock_(mutex.mutex_, std::defer_lock), mutex_(&mutex)
    {
        detail::lock_order_check(mutex);
        lock_.lock();
        detail::lock_order_push(mutex);
    }

    /** Releases iff still held (`std::unique_lock` tracks ownership,
     *  and clang models scoped-capability destructors the same way). */
    ~MutexLock() CAFQA_RELEASE()
    {
        if (lock_.owns_lock()) { detail::lock_order_pop(*mutex_); }
    }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

    /** Drop the lock mid-scope (re-acquire with `lock()`). */
    void unlock() CAFQA_RELEASE()
    {
        detail::lock_order_pop(*mutex_);
        lock_.unlock();
    }

    /** Re-acquire after `unlock()`. */
    void lock() CAFQA_ACQUIRE()
    {
        detail::lock_order_check(*mutex_);
        lock_.lock();
        detail::lock_order_push(*mutex_);
    }

  private:
    friend class CondVar;
    std::unique_lock<std::mutex> lock_;
    Mutex* mutex_;
};

/**
 * Condition variable paired with `MutexLock`. `wait` atomically
 * releases and re-acquires the lock, so from the analysis' point of
 * view the capability is held across the call — exactly the libc++
 * annotation model for `std::condition_variable::wait`.
 */
class CondVar
{
  public:
    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

    /** The lock stays logically held across the call (the re-acquire
     *  is not a new ordering event), so the lock-order held-stack is
     *  deliberately left untouched. */
    void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  private:
    std::condition_variable cv_;
};

} // namespace cafqa

#endif // CAFQA_COMMON_THREAD_SAFETY_HPP
