// Scheduler equivalence and zero-copy data-plane tests.
//
// The indexed CommandQueue replaced the linear-scan queue with the claim
// that assignment order is observably identical to the legacy scan.
// This file holds that claim to account: randomized seeded traces of
// push/claim/complete/requeue/checkpoint ops are replayed against both
// implementations and every observable output (claimed specs, requeued ids,
// completion results, counts) must match exactly. It also pins the
// requeue-to-head-of-priority-level semantics, duplicate-push rejection,
// unknown-checkpoint accounting, and the zero-deep-copy guarantee of the
// SharedBytes checkpoint plane.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/queue.hpp"
#include "support/queue_legacy.hpp"
#include "util/random.hpp"

namespace cop::core {
namespace {

CommandSpec makeCmd(CommandId id, std::string exe, int priority, int cores) {
    CommandSpec c;
    c.id = id;
    c.projectId = 1;
    c.executable = std::move(exe);
    c.steps = 100;
    c.priority = priority;
    c.preferredCores = cores;
    return c;
}

std::vector<CommandId> idsOf(const std::vector<CommandSpec>& specs) {
    std::vector<CommandId> ids;
    ids.reserve(specs.size());
    for (const auto& s : specs) ids.push_back(s.id);
    return ids;
}

/// Replays one randomized op trace against both queues, asserting that
/// every observable output matches. Reports the number of commands the
/// trace claimed (so callers can check the trace was not degenerate);
/// void return because ASSERT_* bails out with a bare `return`.
void replayTrace(std::uint64_t seed, int numOps,
                 std::size_t* totalClaimedOut) {
    const std::vector<std::string> pool{"mdrun", "fe_sample", "analyze",
                                        "score"};
    Rng rng(seed);
    LegacyCommandQueue legacy;
    SegmentStore store;
    CommandQueue indexed{store};
    CommandId nextId = 0;
    std::vector<CommandId> inFlightIds;
    std::size_t totalClaimed = 0;

    const auto eraseInFlight = [&](CommandId id) {
        for (std::size_t i = 0; i < inFlightIds.size(); ++i) {
            if (inFlightIds[i] == id) {
                inFlightIds.erase(inFlightIds.begin() + long(i));
                return;
            }
        }
    };

    for (int op = 0; op < numOps; ++op) {
        const double r = rng.uniform();
        if (r < 0.40) {
            // Push a random command to both queues.
            auto cmd = makeCmd(++nextId, pool[rng.uniformInt(pool.size())],
                               int(rng.uniformInt(4)),
                               1 + int(rng.uniformInt(8)));
            legacy.push(cmd);
            indexed.push(cmd);
        } else if (r < 0.70) {
            // Claim with a random executable offer and core budget.
            std::vector<std::string> offer;
            for (const auto& exe : pool)
                if (rng.uniform() < 0.5) offer.push_back(exe);
            if (offer.empty()) offer.push_back(pool[rng.uniformInt(4)]);
            const int cores = 1 + int(rng.uniformInt(16));
            const auto worker = net::NodeId(1 + rng.uniformInt(4));
            EXPECT_EQ(legacy.hasWorkFor(offer), indexed.hasWorkFor(offer))
                << "seed " << seed << " op " << op;
            const auto a = legacy.claim(offer, cores, worker);
            const auto b = indexed.claim(offer, cores, worker);
            ASSERT_EQ(idsOf(a), idsOf(b)) << "seed " << seed << " op " << op;
            for (std::size_t i = 0; i < a.size(); ++i) {
                // Checkpoint content must travel identically through
                // requeues in both implementations.
                EXPECT_EQ(a[i].input, b[i].input)
                    << "seed " << seed << " op " << op << " claim " << i;
                EXPECT_EQ(a[i].priority, b[i].priority);
                EXPECT_EQ(a[i].preferredCores, b[i].preferredCores);
                inFlightIds.push_back(a[i].id);
            }
            totalClaimed += a.size();
        } else if (r < 0.78) {
            // Complete a random in-flight command.
            if (inFlightIds.empty()) continue;
            const auto id = inFlightIds[rng.uniformInt(inFlightIds.size())];
            const auto a = legacy.complete(id);
            const auto b = indexed.complete(id);
            ASSERT_EQ(a.has_value(), b.has_value())
                << "seed " << seed << " op " << op;
            if (a.has_value()) {
                EXPECT_EQ(a->id, b->id);
                EXPECT_EQ(a->input, b->input);
            }
            eraseInFlight(id);
        } else if (r < 0.86) {
            // Fail a random worker: every command it holds requeues.
            const auto worker = net::NodeId(1 + rng.uniformInt(4));
            const auto a = legacy.requeueWorker(worker);
            const auto b = indexed.requeueWorker(worker);
            ASSERT_EQ(a, b) << "seed " << seed << " op " << op;
            for (const auto id : a) eraseInFlight(id);
        } else if (r < 0.92) {
            // Requeue one in-flight command (lease expiry).
            if (inFlightIds.empty()) continue;
            const auto id = inFlightIds[rng.uniformInt(inFlightIds.size())];
            EXPECT_EQ(legacy.requeueCommand(id), indexed.requeueCommand(id))
                << "seed " << seed << " op " << op;
            eraseInFlight(id);
        } else {
            // Checkpoint update; sometimes aimed at a stale/unknown id.
            CommandId id = 0;
            if (!inFlightIds.empty() && rng.uniform() < 0.8)
                id = inFlightIds[rng.uniformInt(inFlightIds.size())];
            else
                id = nextId + 1000 + rng.uniformInt(100);
            std::vector<std::uint8_t> blob(1 + rng.uniformInt(64));
            for (auto& byte : blob)
                byte = std::uint8_t(rng.uniformInt(256));
            legacy.updateCheckpoint(id, blob);
            indexed.updateCheckpoint(id, SharedBytes(std::move(blob)));
        }
        ASSERT_EQ(legacy.pendingCount(), indexed.pendingCount())
            << "seed " << seed << " op " << op;
        ASSERT_EQ(legacy.inFlightCount(), indexed.inFlightCount())
            << "seed " << seed << " op " << op;
    }

    // Drain both queues completely with small budgets so skipping and
    // ordering at the tail get compared too.
    int guard = 0;
    while (!legacy.empty() || !indexed.empty()) {
        ASSERT_LT(++guard, 1000000);
        const auto a = legacy.claim(pool, 3, 99);
        const auto b = indexed.claim(pool, 3, 99);
        ASSERT_EQ(idsOf(a), idsOf(b)) << "seed " << seed << " during drain";
        for (const auto& s : a) {
            legacy.complete(s.id);
            indexed.complete(s.id);
        }
        if (a.empty()) {
            // Remaining commands all need > 3 cores; widen the budget.
            const auto a2 = legacy.claim(pool, 1 << 20, 99);
            const auto b2 = indexed.claim(pool, 1 << 20, 99);
            ASSERT_EQ(idsOf(a2), idsOf(b2)) << "seed " << seed;
            for (const auto& s : a2) {
                legacy.complete(s.id);
                indexed.complete(s.id);
            }
        }
    }
    EXPECT_EQ(legacy.inFlightCount(), indexed.inFlightCount());
    *totalClaimedOut = totalClaimed;
}

TEST(SchedulerEquivalence, RandomizedTracesMatchLegacy) {
    // ISSUE acceptance: seeded, >= 1000 ops, identical assignment traces.
    for (const std::uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
        std::size_t claimed = 0;
        replayTrace(seed, 1200, &claimed);
        EXPECT_GT(claimed, 100u) << "degenerate trace for seed " << seed;
    }
}

TEST(SchedulerEquivalence, SingleExecutableHighChurnTraceMatches) {
    // One bucket + tiny core budgets maximizes skip/requeue interleaving.
    const std::vector<std::string> pool{"mdrun"};
    Rng rng(77);
    LegacyCommandQueue legacy;
    SegmentStore store;
    CommandQueue indexed{store};
    CommandId nextId = 0;
    for (int op = 0; op < 1500; ++op) {
        const double r = rng.uniform();
        if (r < 0.5) {
            auto cmd = makeCmd(++nextId, "mdrun", int(rng.uniformInt(2)),
                               1 + int(rng.uniformInt(4)));
            legacy.push(cmd);
            indexed.push(cmd);
        } else if (r < 0.8) {
            const auto worker = net::NodeId(1 + rng.uniformInt(2));
            const auto a = legacy.claim(pool, 2, worker);
            const auto b = indexed.claim(pool, 2, worker);
            ASSERT_EQ(idsOf(a), idsOf(b)) << "op " << op;
        } else {
            const auto worker = net::NodeId(1 + rng.uniformInt(2));
            ASSERT_EQ(legacy.requeueWorker(worker),
                      indexed.requeueWorker(worker))
                << "op " << op;
        }
    }
}

TEST(SchedulerEquivalence, RequeueLandsAtHeadOfPriorityLevel) {
    // Satellite regression: a requeued command must land ahead of newer
    // work at the same priority, behind strictly higher priorities, and a
    // later requeue lands ahead of an earlier one. Pinned against the
    // legacy queue, which defined the behavior.
    LegacyCommandQueue legacy;
    SegmentStore store;
    CommandQueue indexed{store};
    const auto runScenario = [](auto& q) {
        q.push(makeCmd(1, "mdrun", 1, 1)); // A
        q.push(makeCmd(2, "mdrun", 1, 1)); // B
        q.claim({"mdrun"}, 2, /*worker=*/7); // A and B in flight
        q.push(makeCmd(3, "mdrun", 1, 1)); // newer same-priority C
        q.push(makeCmd(4, "mdrun", 2, 1)); // higher-priority D
        q.requeueCommand(1);               // A returns first...
        q.requeueCommand(2);               // ...then B: B now ahead of A
        std::vector<CommandId> order;
        for (int i = 0; i < 4; ++i) {
            const auto claimed = q.claim({"mdrun"}, 1, 8);
            for (const auto& spec : claimed) order.push_back(spec.id);
        }
        return order;
    };
    const auto legacyOrder = runScenario(legacy);
    const auto indexedOrder = runScenario(indexed);
    EXPECT_EQ(legacyOrder, indexedOrder);
    // D (priority 2) first; B's requeue beat A's; newer C drains last.
    EXPECT_EQ(legacyOrder, (std::vector<CommandId>{4, 2, 1, 3}));
}

TEST(CommandQueue, DuplicatePushRejected) {
    SegmentStore store;
    CommandQueue q{store};
    q.push(makeCmd(1, "mdrun", 0, 1));
    EXPECT_THROW(q.push(makeCmd(1, "mdrun", 0, 1)), cop::InvalidArgument);
    EXPECT_EQ(q.stats().duplicatePushesRejected, 1u);
    EXPECT_EQ(q.pendingCount(), 1u);

    // Still a duplicate while in flight...
    q.claim({"mdrun"}, 1, 2);
    EXPECT_THROW(q.push(makeCmd(1, "mdrun", 0, 1)), cop::InvalidArgument);
    EXPECT_EQ(q.stats().duplicatePushesRejected, 2u);

    // ...and legal again once the command completed (id retirement).
    q.complete(1);
    EXPECT_NO_THROW(q.push(makeCmd(1, "mdrun", 0, 1)));
    EXPECT_EQ(q.pendingCount(), 1u);
}

TEST(CommandQueue, UnknownCheckpointDropsAreCounted) {
    SegmentStore store;
    CommandQueue q{store};
    q.push(makeCmd(1, "mdrun", 0, 1));
    // Not in flight yet: pending commands don't take checkpoints either.
    q.updateCheckpoint(1, SharedBytes{0x01});
    EXPECT_EQ(q.stats().checkpointsUnknownId, 1u);
    q.claim({"mdrun"}, 1, 2);
    q.updateCheckpoint(1, SharedBytes{0x02});
    q.updateCheckpoint(999, SharedBytes{0x03}); // never existed
    EXPECT_EQ(q.stats().checkpointsUnknownId, 2u);
    EXPECT_EQ(q.stats().checkpointUpdates, 1u);
}

TEST(CommandQueue, CheckpointPlaneIsZeroCopy) {
    SegmentStore store;
    CommandQueue q{store};
    q.push(makeCmd(1, "mdrun", 0, 1));
    q.claim({"mdrun"}, 1, 2);

    SharedBytes blob(std::vector<std::uint8_t>(4096, 0xEE));
    q.updateCheckpoint(1, blob); // refcount bump, not a byte copy
    EXPECT_EQ(q.stats().checkpointUpdates, 1u);
    EXPECT_EQ(q.stats().checkpointBytesShared, 4096u);

    // The requeued spec aliases the same heap buffer end to end.
    q.requeueCommand(1);
    const auto again = q.claim({"mdrun"}, 1, 3);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_TRUE(again[0].input.sharesBufferWith(blob));
}

TEST(CommandQueue, ClaimScanTouchesOnlyOfferedBuckets) {
    // The indexed claim never visits commands for executables the worker
    // lacks: scan steps stay bounded by the matching work, not the queue.
    SegmentStore store;
    CommandQueue q{store};
    for (CommandId id = 1; id <= 500; ++id)
        q.push(makeCmd(id, "other_exe", 0, 1));
    q.push(makeCmd(1000, "mdrun", 0, 1));
    const auto before = q.stats().claimScanSteps;
    const auto claimed = q.claim({"mdrun"}, 4, 1);
    ASSERT_EQ(claimed.size(), 1u);
    EXPECT_LE(q.stats().claimScanSteps - before, 2u)
        << "claim scanned non-matching work";
    // hasWorkFor likewise probes buckets, not commands.
    const auto probesBefore = q.stats().hasWorkProbes;
    EXPECT_FALSE(q.hasWorkFor({"missing_a", "missing_b"}));
    EXPECT_EQ(q.stats().hasWorkProbes - probesBefore, 2u);
}

} // namespace
} // namespace cop::core
