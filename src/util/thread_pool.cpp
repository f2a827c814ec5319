#include "util/thread_pool.hpp"

#include <algorithm>

namespace cop {

ThreadPool::ThreadPool(std::size_t nThreads) {
    if (nThreads == 0)
        nThreads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    workers_.reserve(nThreads);
    for (std::size_t i = 0; i < nThreads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
    {
        util::LockGuard lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::workerLoop() {
    for (;;) {
        std::function<void()> task;
        {
            util::UniqueLock lock(mutex_);
            // Condition checked inline (not via a wait predicate lambda)
            // so the guarded reads sit visibly under the held capability.
            while (!stop_ && tasks_.empty()) cv_.wait(lock);
            if (stop_ && tasks_.empty()) return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

} // namespace cop
