// Envelope coalescing and ack piggybacking (ISSUE 6): per-destination
// transmit queues flush as one Batch frame on count/byte thresholds or the
// Nagle timer; acks ride outgoing batches; a lone envelope keeps its exact
// unbatched wire shape; retransmit/dedup semantics are bit-for-bit those
// of the unbatched endpoint; and flush timers die with the endpoint.

#include <gtest/gtest.h>

#include <vector>

#include "core/copernicus.hpp"
#include "core/envelope.hpp"
#include "net/event_loop.hpp"
#include "net/overlay.hpp"

namespace cop::core::wire {
namespace {

HeartbeatPayload beat(std::uint64_t worker) {
    HeartbeatPayload hb;
    hb.worker = net::NodeId(worker);
    return hb;
}

/// Two trusted, linked nodes with an endpoint each.
struct Pair {
    net::EventLoop loop;
    net::OverlayNetwork net{loop};
    net::Node na{net, "a", net::KeyPair::generate(1)};
    net::Node nb{net, "b", net::KeyPair::generate(2)};
    Endpoint a;
    Endpoint b;

    explicit Pair(BatchPolicy batch = {})
        : a(net, na, batch), b(net, nb, batch) {
        na.trust(nb.publicKey());
        nb.trust(na.publicKey());
        net.connect(na.id(), nb.id(), {});
    }
};

TEST(OverlayBatch, CountThresholdFlushesOneBatchFrame) {
    Pair p;
    int delivered = 0;
    p.b.onEnvelope([&](const Envelope&, const net::Message&) { ++delivered; });

    const auto n = p.a.batchPolicy().maxEnvelopes;
    for (std::size_t i = 0; i < n; ++i)
        p.a.send(p.nb.id(), beat(i), /*reliable=*/false);
    // The count threshold tripped synchronously: no timer wait needed.
    EXPECT_EQ(p.a.stats().flushOnCount, 1u);
    p.loop.run();

    EXPECT_EQ(delivered, int(n));
    EXPECT_EQ(p.a.stats().batchesSent, 1u);
    EXPECT_EQ(p.a.stats().envelopesBatched, n);
    // Exactly one frame crossed the link, carrying all n envelopes.
    const auto stats = p.net.totalStats();
    EXPECT_EQ(stats.messages, 1u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.batchedEnvelopes, n);
    EXPECT_EQ(stats.singletons, 0u);
}

TEST(OverlayBatch, ByteThresholdFlushesBeforeCount) {
    BatchPolicy policy;
    policy.maxBytes = 256;
    Pair p(policy);
    int delivered = 0;
    p.b.onEnvelope([&](const Envelope&, const net::Message&) { ++delivered; });

    // Each checkpoint encodes to ~230 bytes: one queues under the 256-byte
    // cap, the second crosses it and triggers exactly one byte-threshold
    // flush carrying both.
    auto checkpoint = [](std::uint64_t id, std::uint8_t fill) {
        CheckpointPayload cp;
        cp.commandId = id;
        cp.projectId = 1;
        cp.projectServer = net::NodeId(1);
        cp.blob = SharedBytes(std::vector<std::uint8_t>(200, fill));
        return cp;
    };
    p.a.send(p.nb.id(), checkpoint(1, 0xAA), /*reliable=*/false);
    p.a.send(p.nb.id(), checkpoint(2, 0xBB), /*reliable=*/false);
    EXPECT_EQ(p.a.stats().flushOnBytes, 1u);
    EXPECT_EQ(p.a.stats().batchesSent, 1u);
    p.loop.run();
    EXPECT_EQ(delivered, 2);
}

TEST(OverlayBatch, TimerFlushesAfterFlushDelay) {
    Pair p;
    int delivered = 0;
    p.b.onEnvelope([&](const Envelope&, const net::Message&) { ++delivered; });

    p.a.send(p.nb.id(), beat(1), /*reliable=*/false);
    p.a.send(p.nb.id(), beat(2), /*reliable=*/false);

    // Nothing on the wire until the Nagle timer fires.
    p.loop.runUntil(p.a.batchPolicy().flushDelay / 2.0);
    EXPECT_EQ(p.net.totalStats().messages, 0u);

    p.loop.run();
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(p.a.stats().flushOnTimer, 1u);
    EXPECT_EQ(p.a.stats().batchesSent, 1u);
    EXPECT_EQ(p.net.totalStats().messages, 1u);
}

TEST(OverlayBatch, LoneEnvelopeKeepsUnbatchedWireShape) {
    Pair p;
    net::Message seen;
    int delivered = 0;
    p.b.onEnvelope([&](const Envelope&, const net::Message& msg) {
        ++delivered;
        seen = msg;
    });

    const auto id = p.a.send(p.nb.id(), beat(7), /*reliable=*/false);
    p.loop.run();

    ASSERT_EQ(delivered, 1);
    // Same type, same id, no Batch frame anywhere: sparse traffic is
    // bit-for-bit identical to the unbatched endpoint.
    EXPECT_EQ(seen.type, net::MessageType::Heartbeat);
    EXPECT_EQ(seen.id, id);
    EXPECT_EQ(p.a.stats().singletonsSent, 1u);
    EXPECT_EQ(p.a.stats().batchesSent, 0u);
    EXPECT_EQ(p.net.totalStats().batches, 0u);
    EXPECT_EQ(p.net.totalStats().singletons, 1u);
}

TEST(OverlayBatch, AckPiggybacksOnReturnTraffic) {
    Pair p;
    p.b.onEnvelope([&](const Envelope& env, const net::Message&) {
        // Answer every reliable heartbeat with data of our own, queued in
        // the same event-loop tick as the protocol ack.
        if (env.type == net::MessageType::Heartbeat)
            p.b.send(env.from, beat(99), /*reliable=*/false);
    });

    p.a.send(p.nb.id(), beat(1), /*reliable=*/true);
    p.loop.run();

    // The ack and b's reply shared one Batch frame.
    EXPECT_EQ(p.b.stats().acksSent, 1u);
    EXPECT_GE(p.b.stats().acksPiggybacked, 1u);
    EXPECT_EQ(p.b.stats().batchesSent, 1u);
    // And the ack cleared a's pending retransmit state.
    EXPECT_EQ(p.a.stats().retransmits, 0u);
    EXPECT_EQ(p.a.stats().deliveriesFailed, 0u);
}

TEST(OverlayBatch, StandaloneAckFlushesImmediatelyOnIdleLink) {
    Pair p;
    p.b.onEnvelope([](const Envelope&, const net::Message&) {});
    p.a.send(p.nb.id(), beat(1), /*reliable=*/true);
    p.loop.run();

    // No return traffic to ride: the zero-delay ack timer flushed the ack
    // as a singleton, so idle-link ack latency is unchanged.
    EXPECT_EQ(p.b.stats().acksSent, 1u);
    EXPECT_EQ(p.b.stats().acksPiggybacked, 0u);
    EXPECT_EQ(p.b.stats().flushOnAckTimer, 1u);
    EXPECT_EQ(p.b.stats().singletonsSent, 1u);
}

TEST(OverlayBatch, RetransmitReusesIdAndReceiverDedups) {
    // Cut the link so the first transmission (a flushed batch of two) is
    // lost; heal it and let the retransmits go through.
    Pair p;
    int delivered = 0;
    p.b.onEnvelope([&](const Envelope&, const net::Message&) { ++delivered; });

    p.a.send(p.nb.id(), beat(1), /*reliable=*/true);
    p.a.send(p.nb.id(), beat(2), /*reliable=*/true);
    p.net.cutLink(p.na.id(), p.nb.id());
    p.loop.runUntil(1.0); // flush fires into the cut link -> dead letters
    EXPECT_EQ(delivered, 0);

    p.net.healLink(p.na.id(), p.nb.id());
    p.loop.run();

    // Retransmits bypass the queue under their original ids; both arrive
    // exactly once despite multiple attempts.
    EXPECT_EQ(delivered, 2);
    EXPECT_GE(p.a.stats().retransmits, 2u);
    EXPECT_EQ(p.a.stats().deliveriesFailed, 0u);

    // Duplicate redelivery is suppressed by the id window even when the
    // copy arrives inside a batch: resend both again by hand.
    const auto before = p.b.stats().duplicatesDropped;
    p.loop.run();
    EXPECT_EQ(p.b.stats().duplicatesDropped, before);
}

TEST(OverlayBatch, ShutdownCancelsFlushTimersAndDropsQueued) {
    Pair p;
    int delivered = 0;
    p.b.onEnvelope([&](const Envelope&, const net::Message&) { ++delivered; });

    p.a.send(p.nb.id(), beat(1), /*reliable=*/false);
    p.a.send(p.nb.id(), beat(2), /*reliable=*/false);
    p.a.shutdown(); // crash before the flush timer fires

    // The cancelled timer must never fire into freed queue state, and the
    // queued envelopes die with the node.
    p.loop.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(p.net.totalStats().messages, 0u);
    EXPECT_EQ(p.a.stats().batchesSent, 0u);
    EXPECT_EQ(p.a.stats().singletonsSent, 0u);
}

TEST(OverlayBatch, FlushAllDrainsEveryQueueImmediately) {
    Pair p;
    int delivered = 0;
    p.b.onEnvelope([&](const Envelope&, const net::Message&) { ++delivered; });

    p.a.send(p.nb.id(), beat(1), /*reliable=*/false);
    p.a.send(p.nb.id(), beat(2), /*reliable=*/false);
    p.a.flushAll();
    EXPECT_EQ(p.a.stats().batchesSent, 1u);
    p.loop.run();
    EXPECT_EQ(delivered, 2);
}

TEST(OverlayBatch, DeploymentCompletesIdenticallyBatchedAndUnbatched) {
    // The same fixed project must complete with the same command count
    // whether or not the endpoints coalesce — batching is transparent to
    // the protocol.
    struct Fixed : Controller {
        explicit Fixed(int n) : n(n) {}
        void onProjectStart(ProjectContext& ctx) override {
            for (int i = 0; i < n; ++i) {
                CommandSpec spec;
                spec.executable = "echo";
                spec.steps = 10;
                spec.trajectoryId = i;
                ctx.submitCommand(std::move(spec));
            }
        }
        void onCommandFinished(ProjectContext&,
                               const CommandResult&) override {
            ++finished;
        }
        bool isDone(const ProjectContext& ctx) const override {
            return finished >= n && ctx.outstandingCommands() == 0;
        }
        int n = 0;
        int finished = 0;
    };

    auto runOne = [](bool batched) {
        Deployment dep(17);
        ServerConfig sc;
        sc.batch.enabled = batched;
        auto& server = dep.addServer("s0", sc);
        WorkerConfig wc;
        wc.cores = 4;
        wc.batch.enabled = batched;
        ExecutableRegistry reg;
        reg.add("echo", [](const CommandSpec& cmd, int) {
            Execution e;
            e.result.commandId = cmd.id;
            e.result.projectId = cmd.projectId;
            e.result.trajectoryId = cmd.trajectoryId;
            e.result.generation = cmd.generation;
            e.result.success = true;
            e.simSeconds = 25.0;
            return e;
        });
        dep.addWorker("w0", server, wc, std::move(reg),
                      links::intraCluster());
        server.createProject({.name = "p"}, std::make_unique<Fixed>(12));
        const bool done = dep.runUntilDone(1e6);
        return std::pair(done, server.stats().commandsCompleted);
    };

    const auto batched = runOne(true);
    const auto unbatched = runOne(false);
    EXPECT_TRUE(batched.first);
    EXPECT_TRUE(unbatched.first);
    EXPECT_EQ(batched.second, 12u);
    EXPECT_EQ(batched.second, unbatched.second);
}

} // namespace
} // namespace cop::core::wire
