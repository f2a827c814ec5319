#pragma once

/// \file mutex.hpp
/// Capability-annotated mutex wrapper.
///
/// Every lock in this repository goes through `util::Mutex` so that
/// Clang's `-Wthread-safety` static analysis sees it. The
/// `COP_CAPABILITY` / `COP_GUARDED_BY` / `COP_REQUIRES` macros expand to
/// the Clang thread-safety attributes (no-ops on GCC), turning
/// lock-discipline violations — touching a `COP_GUARDED_BY` field without
/// holding its mutex, returning with a lock held, double-locking — into
/// compile errors under the `-Werror=thread-safety` CI job. Lock-order
/// inversions are ThreadSanitizer's job: its deadlock detector records
/// the acquisition order of every mutex and reports an ABBA inversion
/// even when the two orders run serially.
///
/// This header is the single place in src/ allowed to name `std::mutex`
/// directly (enforced by copernicus_lint's bare-mutex check): everything
/// else uses `Mutex`, `LockGuard`, `UniqueLock`.

#include <mutex>

// --- Clang thread-safety attribute macros (no-op elsewhere) -------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define COP_TSA(x) __attribute__((x))
#endif
#endif
#ifndef COP_TSA
#define COP_TSA(x) // not Clang: attributes compile away
#endif

#define COP_CAPABILITY(name) COP_TSA(capability(name))
#define COP_SCOPED_CAPABILITY COP_TSA(scoped_lockable)
#define COP_GUARDED_BY(m) COP_TSA(guarded_by(m))
#define COP_PT_GUARDED_BY(m) COP_TSA(pt_guarded_by(m))
#define COP_REQUIRES(...) COP_TSA(requires_capability(__VA_ARGS__))
#define COP_ACQUIRE(...) COP_TSA(acquire_capability(__VA_ARGS__))
#define COP_RELEASE(...) COP_TSA(release_capability(__VA_ARGS__))
#define COP_TRY_ACQUIRE(...) COP_TSA(try_acquire_capability(__VA_ARGS__))
#define COP_EXCLUDES(...) COP_TSA(locks_excluded(__VA_ARGS__))
#define COP_RETURN_CAPABILITY(x) COP_TSA(lock_returned(x))
#define COP_NO_THREAD_SAFETY_ANALYSIS COP_TSA(no_thread_safety_analysis)

namespace cop::util {

/// Annotated exclusive mutex.
class COP_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() COP_ACQUIRE() { m_.lock(); }
    void unlock() COP_RELEASE() { m_.unlock(); }
    bool try_lock() COP_TRY_ACQUIRE(true) { return m_.try_lock(); }

private:
    std::mutex m_;
};

/// Scoped lock; the annotated replacement for std::lock_guard.
class COP_SCOPED_CAPABILITY LockGuard {
public:
    explicit LockGuard(Mutex& m) COP_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~LockGuard() COP_RELEASE() { m_.unlock(); }

    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;

private:
    Mutex& m_;
};

/// Scoped lock usable with std::condition_variable_any (BasicLockable):
/// the wait path goes through unlock()/lock(), so the capability
/// bookkeeping stays consistent across waits.
class COP_SCOPED_CAPABILITY UniqueLock {
public:
    explicit UniqueLock(Mutex& m) COP_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~UniqueLock() COP_RELEASE() {
        if (owned_) m_.unlock();
    }

    UniqueLock(const UniqueLock&) = delete;
    UniqueLock& operator=(const UniqueLock&) = delete;

    void lock() COP_ACQUIRE() {
        m_.lock();
        owned_ = true;
    }
    void unlock() COP_RELEASE() {
        m_.unlock();
        owned_ = false;
    }

private:
    Mutex& m_;
    bool owned_ = true;
};

} // namespace cop::util
