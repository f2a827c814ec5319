// Annotated mutex wrapper. Lock-order inversions are left to
// ThreadSanitizer's deadlock detector (the tsan CI job); these tests pin
// the wrapper's own bookkeeping.

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "util/mutex.hpp"

namespace cop::util {
namespace {

TEST(UniqueLock, ManualUnlockRelockStaysBalanced) {
    Mutex m;
    {
        UniqueLock lock(m);
        lock.unlock(); // condition_variable_any wait path
        lock.lock();
    }
    // The destructor released the relocked mutex: another thread takes it.
    bool acquired = false;
    std::thread taker([&] {
        if (m.try_lock()) {
            acquired = true;
            m.unlock();
        }
    });
    taker.join();
    EXPECT_TRUE(acquired) << "scope exit left the relocked mutex held";

    // A lock left released must not be released again at scope exit,
    // where it would free another thread's hold.
    Mutex other;
    std::promise<void> held;
    std::promise<void> release;
    std::thread holder;
    {
        UniqueLock lock(other);
        lock.unlock();
        holder = std::thread([&] {
            other.lock();
            held.set_value();
            release.get_future().wait();
            other.unlock();
        });
        held.get_future().wait();
    }
    if (other.try_lock()) {
        other.unlock();
        ADD_FAILURE() << "scope exit released a mutex another thread holds";
    }
    release.set_value();
    holder.join();
}

} // namespace
} // namespace cop::util
