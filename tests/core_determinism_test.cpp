/// Snapshot byte-determinism regression tests (copernicus-lint satellite:
/// the WAL snapshot and recovery trace hashes require that serialized
/// state never depends on hash-map iteration order or cross-tenant
/// arrival interleaving). Two schedulers fed the same logical state
/// through different interleavings — with per-tenant command order
/// preserved, which IS part of the logical state — must serialize to
/// identical bytes.

#include <vector>

#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "util/serialize.hpp"

namespace cop::core {
namespace {

CommandSpec spec(CommandId id, ProjectId tenant, int cores = 1) {
    CommandSpec s;
    s.id = id;
    s.projectId = tenant;
    s.executable = "mdrun";
    s.steps = 1000;
    s.preferredCores = cores;
    s.input = SharedBytes{std::uint8_t(id & 0xff), 0xab};
    return s;
}

std::vector<std::uint8_t> snapshotBytes(const ShardedScheduler& s) {
    BinaryWriter w;
    s.serialize(w);
    return w.takeBuffer();
}

TEST(SnapshotDeterminism, TenantRegistrationOrderDoesNotLeak) {
    TenantConfig heavy;
    heavy.weight = 3.0;
    TenantConfig light;
    light.weight = 1.0;

    SegmentStore aStore;

    ShardedScheduler a{aStore};
    a.addTenant(1, heavy);
    a.addTenant(2, light);
    a.addTenant(3, light);

    SegmentStore bStore;

    ShardedScheduler b{bStore};
    b.addTenant(3, light);
    b.addTenant(1, heavy);
    b.addTenant(2, light);

    EXPECT_EQ(snapshotBytes(a), snapshotBytes(b));
}

TEST(SnapshotDeterminism, CrossTenantInterleavingDoesNotLeak) {
    SegmentStore aStore;
    ShardedScheduler a{aStore};
    SegmentStore bStore;
    ShardedScheduler b{bStore};
    for (ProjectId t : {1, 2, 3}) {
        a.addTenant(t, TenantConfig{});
        b.addTenant(t, TenantConfig{});
    }

    // Same per-tenant sequences, radically different arrival orders:
    // a sees tenant-major batches, b sees a round-robin interleaving.
    for (ProjectId t : {1, 2, 3})
        for (CommandId i = 0; i < 4; ++i)
            a.push(t, spec(100 * std::uint64_t(t) + i, t));
    for (CommandId i = 0; i < 4; ++i)
        for (ProjectId t : {3, 1, 2})
            b.push(t, spec(100 * std::uint64_t(t) + i, t));

    EXPECT_EQ(snapshotBytes(a), snapshotBytes(b));
}

TEST(SnapshotDeterminism, InFlightOwnerTrackingDoesNotLeak) {
    // owners_ is an unordered_map keyed by CommandId; populating it in
    // different hash-insertion orders (tenant-major vs round-robin pushes)
    // must not change the serialized image. The claim-call history is kept
    // identical on both sides — DRR deficits are legitimate state.
    SegmentStore aStore;
    ShardedScheduler a{aStore};
    SegmentStore bStore;
    ShardedScheduler b{bStore};
    for (ProjectId t : {1, 2}) {
        a.addTenant(t, TenantConfig{});
        b.addTenant(t, TenantConfig{});
    }
    for (ProjectId t : {1, 2})
        for (CommandId i = 0; i < 3; ++i)
            a.push(t, spec(10 * std::uint64_t(t) + i, t));
    for (CommandId i = 0; i < 3; ++i)
        for (ProjectId t : {2, 1})
            b.push(t, spec(10 * std::uint64_t(t) + i, t));

    auto claimedA = a.claim({"mdrun"}, 3, net::NodeId(7));
    auto claimedB = b.claim({"mdrun"}, 3, net::NodeId(7));
    ASSERT_EQ(claimedA.size(), claimedB.size());

    EXPECT_EQ(snapshotBytes(a), snapshotBytes(b));
}

TEST(SnapshotDeterminism, RoundTripThroughRestoreIsByteStable) {
    SegmentStore aStore;
    ShardedScheduler a{aStore};
    for (ProjectId t : {1, 2, 3}) a.addTenant(t, TenantConfig{});
    for (ProjectId t : {1, 2, 3})
        for (CommandId i = 0; i < 3; ++i)
            a.push(t, spec(100 * std::uint64_t(t) + i, t));
    (void)a.claim({"mdrun"}, 4, net::NodeId(9));

    const auto bytes = snapshotBytes(a);
    BinaryReader r{std::span<const std::uint8_t>(bytes)};
    SegmentStore restoredStore;
    ShardedScheduler restored{restoredStore};
    restored.restore(r);
    EXPECT_EQ(snapshotBytes(restored), bytes);
}

} // namespace
} // namespace cop::core
