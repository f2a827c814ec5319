#pragma once

/// \file thread_pool.hpp
/// A fixed-size work-stealing-free thread pool with one chunking path:
/// forChunks (and its grained variant) splits a range into contiguous
/// chunks, and parallelReduceChunked combines per-chunk results in chunk
/// order. This is the "threads within a node" tier of the paper's Fig. 6
/// hierarchy: mdlib uses it to decompose force loops, and the MSM layer to
/// chunk its RMSD sweeps and transition counting.
///
/// Design notes (per C++ Core Guidelines CP.*): tasks communicate only
/// through futures / the forChunks barrier; no shared mutable state leaks
/// out of the pool; joins happen in the destructor so lifetimes are safe.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.hpp"

namespace cop {

class ThreadPool {
public:
    /// Creates `nThreads` workers; nThreads == 0 means "hardware
    /// concurrency, at least 1".
    explicit ThreadPool(std::size_t nThreads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t size() const { return workers_.size(); }

    /// Enqueues a task; returns a future for its result.
    template <typename F>
    auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
        using R = std::invoke_result_t<F>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
        std::future<R> fut = task->get_future();
        {
            util::LockGuard lock(mutex_);
            tasks_.emplace([task] { (*task)(); });
        }
        cv_.notify_one();
        return fut;
    }

    /// Number of chunks forChunks/parallelReduceChunked split an n-element
    /// range into: one per worker plus the calling thread, never more than
    /// n.
    std::size_t chunkCountFor(std::size_t n) const {
        return std::min(n, workers_.size() + 1);
    }

    /// Like chunkCountFor, but never splits below `minGrain` elements per
    /// chunk, so tiny ranges stay on the calling thread instead of paying
    /// submit/future overhead. Used by the incremental MSM layer, whose
    /// per-generation ranges shrink to "new snapshots only".
    std::size_t chunkCountForGrained(std::size_t n,
                                     std::size_t minGrain) const {
        const std::size_t byGrain =
            minGrain > 1 ? std::max<std::size_t>(1, n / minGrain) : n;
        return std::min(chunkCountFor(n), byGrain);
    }

    /// Runs f(chunkIndex, lo, hi) for chunkCountFor(end - begin) contiguous
    /// chunks covering [begin, end). Fully templated — the callable is
    /// invoked once per chunk with no per-index std::function dispatch, so
    /// the chunk body stays inlinable/vectorizable. The calling thread runs
    /// the last chunk, then waits for the submitted ones: a call from
    /// outside the pool always finishes, but a call from inside a pool task
    /// needs another worker free to drain them (on a 1-thread pool it
    /// deadlocks). chunkIndex is dense in [0, nChunks), so it can index
    /// per-thread accumulation buffers.
    template <typename F>
    void forChunks(std::size_t begin, std::size_t end, F&& f) {
        if (begin >= end) return;
        forChunksN(begin, end, chunkCountFor(end - begin),
                   std::forward<F>(f));
    }

    /// forChunks with a minimum per-chunk grain: a range smaller than
    /// 2*minGrain runs entirely on the calling thread. Chunk boundaries must
    /// not affect the caller's result (per-index disjoint writes, or partial
    /// results merged value-exactly), which holds for every use in this
    /// repo — see the deterministic-reduction notes on parallelReduceChunked.
    template <typename F>
    void forChunksGrained(std::size_t begin, std::size_t end,
                          std::size_t minGrain, F&& f) {
        if (begin >= end) return;
        forChunksN(begin, end, chunkCountForGrained(end - begin, minGrain),
                   std::forward<F>(f));
    }

    /// Striped parallel reduction: evaluates chunkFn(lo, hi) -> T on each
    /// chunk concurrently, then combines the partial results **in chunk
    /// order** on the calling thread, so the result is deterministic for a
    /// fixed pool size. This is the O(N)-total replacement for the
    /// serial-loop-over-thread-buffers reduction pattern.
    template <typename T, typename ChunkFn, typename Combine>
    T parallelReduceChunked(std::size_t begin, std::size_t end, T init,
                            ChunkFn&& chunkFn, Combine&& combine) {
        if (begin >= end) return init;
        const std::size_t nChunks = chunkCountFor(end - begin);
        std::vector<T> partials(nChunks, init);
        forChunks(begin, end,
                  [&](std::size_t c, std::size_t lo, std::size_t hi) {
                      partials[c] = chunkFn(lo, hi);
                  });
        T result = std::move(init);
        for (auto& p : partials) result = combine(std::move(result), p);
        return result;
    }

private:
    /// Shared body of forChunks/forChunksGrained: f(chunkIndex, lo, hi) over
    /// exactly nChunks contiguous chunks, the last on the calling thread.
    template <typename F>
    void forChunksN(std::size_t begin, std::size_t end, std::size_t nChunks,
                    F&& f) {
        const std::size_t n = end - begin;
        const std::size_t chunk = (n + nChunks - 1) / nChunks;
        std::vector<std::future<void>> futures;
        futures.reserve(nChunks - 1);
        std::size_t lo = begin;
        for (std::size_t c = 0; c + 1 < nChunks; ++c) {
            const std::size_t hi = std::min(lo + chunk, end);
            futures.push_back(submit([&f, c, lo, hi] { f(c, lo, hi); }));
            lo = hi;
        }
        if (lo < end) f(nChunks - 1, lo, end);
        for (auto& fut : futures) fut.get();
    }

    void workerLoop();

    std::vector<std::thread> workers_;
    /// Leaf lock of the repo-wide hierarchy (DESIGN.md "Concurrency
    /// invariants"): no other Mutex is ever acquired while holding it.
    util::Mutex mutex_;
    std::queue<std::function<void()>> tasks_ COP_GUARDED_BY(mutex_);
    bool stop_ COP_GUARDED_BY(mutex_) = false;
    /// _any variant: waits on util::UniqueLock, so the capability and
    /// lock-order bookkeeping survive the unlock/relock inside wait().
    std::condition_variable_any cv_;
};

} // namespace cop
