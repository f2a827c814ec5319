/// Steady-state allocation behaviour of the force engine. The workspace
/// pattern promises: after the first evaluation warmed every buffer, a
/// compute() with no neighbour-list rebuild performs zero heap
/// allocations. Verified with replacement global operator new/delete that
/// count every allocation in the binary (they only count — behaviour is
/// otherwise malloc/free, so the rest of the test binary is unaffected).

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "mdlib/forcefield.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace {
std::atomic<std::size_t> g_allocCount{0};
}

void* operator new(std::size_t size) {
    ++g_allocCount;
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    ++g_allocCount;
    void* p = nullptr;
    if (posix_memalign(&p, std::size_t(align), size ? size : 1) != 0)
        throw std::bad_alloc();
    return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
namespace {
// Every replacement delete frees through this out-of-line call. Were
// std::free inlined into a delete expression, GCC would see a pointer
// from operator new reach free() and flag -Wmismatched-new-delete,
// though the operator new above allocates with malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
} // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    release(p);
}

namespace cop::md {
namespace {

struct LjSystem {
    Topology top;
    Box box;
    ForceFieldParams params;
    std::vector<Vec3> positions;
};

LjSystem makeLj(std::size_t n, double boxLen, std::uint64_t seed) {
    LjSystem sys;
    cop::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i)
        sys.top.addParticle(1.0, i % 2 ? 0.2 : -0.2);
    sys.top.finalize();
    sys.box = Box::cubic(boxLen);
    sys.params.kind = NonbondedKind::LennardJonesRF;
    sys.params.cutoff = 2.5;
    sys.params.useCoulombRF = true;
    const int side = int(std::ceil(std::cbrt(double(n))));
    const double a = boxLen / side;
    std::size_t placed = 0;
    for (int x = 0; x < side && placed < n; ++x)
        for (int y = 0; y < side && placed < n; ++y)
            for (int z = 0; z < side && placed < n; ++z, ++placed)
                sys.positions.push_back({x * a + rng.uniform(-0.05, 0.05),
                                         y * a + rng.uniform(-0.05, 0.05),
                                         z * a + rng.uniform(-0.05, 0.05)});
    return sys;
}

class SteadyStateAllocations
    : public ::testing::TestWithParam<KernelFlavor> {};

TEST_P(SteadyStateAllocations, SerialComputeIsAllocationFree) {
    auto sys = makeLj(216, 8.0, 41);
    sys.params.flavor = GetParam();
    ForceField ff(sys.top, sys.box, sys.params);
    std::vector<Vec3> forces;
    // Warm up: neighbour list build, workspace sizing, bucket split,
    // caller force-vector capacity.
    ff.compute(sys.positions, forces);
    ff.compute(sys.positions, forces);

    const std::size_t before = g_allocCount.load();
    for (int s = 0; s < 10; ++s) ff.compute(sys.positions, forces);
    EXPECT_EQ(g_allocCount.load(), before)
        << "steady-state compute() must not touch the allocator";
}

INSTANTIATE_TEST_SUITE_P(Flavors, SteadyStateAllocations,
                         ::testing::Values(KernelFlavor::Scalar,
                                           KernelFlavor::Blocked4,
                                           KernelFlavor::Soa,
                                           KernelFlavor::SimdAuto));

TEST(ForceWorkspace, ThreadedBuffersAreReusedAcrossSteps) {
    auto sys = makeLj(343, 12.0, 43);
    sys.params.flavor = KernelFlavor::Soa;
    cop::ThreadPool pool(4);
    ForceField ff(sys.top, sys.box, sys.params, &pool);
    std::vector<Vec3> forces;
    ff.compute(sys.positions, forces);

    const auto& ws = ff.workspace();
    const double* sf3 = ws.sf3.data();
    const double* pos3 = ws.pos3.data();
    const std::size_t stride = ws.stride;

    for (int s = 0; s < 5; ++s) ff.compute(sys.positions, forces);
    // Same buffers, same geometry: nothing was reallocated.
    EXPECT_EQ(ws.sf3.data(), sf3);
    EXPECT_EQ(ws.pos3.data(), pos3);
    EXPECT_EQ(ws.stride, stride);
}

TEST(ForceWorkspace, EnsureGrowsButNeverShrinks) {
    ForceWorkspace ws;
    ws.ensure(100, 2);
    const std::size_t stride100 = ws.stride;
    EXPECT_GE(stride100, 100u);
    EXPECT_EQ(ws.sf3.size(), 2 * 3 * stride100);
    ws.ensure(50, 1); // smaller request: no change
    EXPECT_EQ(ws.stride, stride100);
    EXPECT_EQ(ws.sf3.size(), 2 * 3 * stride100);
    ws.ensure(200, 4); // larger: grows
    EXPECT_GE(ws.stride, 200u);
    EXPECT_EQ(ws.sf3.size(), 4 * 3 * ws.stride);
}

} // namespace
} // namespace cop::md
