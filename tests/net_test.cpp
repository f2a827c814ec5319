// Event loop, overlay network, routing, trust and traffic accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "net/backoff.hpp"
#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/overlay.hpp"
#include "support/route_oracle.hpp"
#include "util/random.hpp"

namespace cop::net {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
    EventLoop loop;
    std::vector<int> order;
    loop.schedule(3.0, [&] { order.push_back(3); });
    loop.schedule(1.0, [&] { order.push_back(1); });
    loop.schedule(2.0, [&] { order.push_back(2); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(EventLoop, FifoForEqualTimes) {
    EventLoop loop;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        loop.schedule(1.0, [&order, i] { order.push_back(i); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, EventsCanScheduleMoreEvents) {
    EventLoop loop;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10) loop.schedule(1.0, chain);
    };
    loop.schedule(0.0, chain);
    loop.run();
    EXPECT_EQ(fired, 10);
    EXPECT_DOUBLE_EQ(loop.now(), 9.0);
}

TEST(EventLoop, RunUntilAdvancesClockAndStops) {
    EventLoop loop;
    int fired = 0;
    loop.schedule(1.0, [&] { ++fired; });
    loop.schedule(5.0, [&] { ++fired; });
    const auto n = loop.runUntil(2.0);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(loop.now(), 2.0);
    EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, RunWithLimit) {
    EventLoop loop;
    for (int i = 0; i < 10; ++i)
        loop.schedule(double(i), [] {});
    EXPECT_EQ(loop.run(4), 4u);
    EXPECT_EQ(loop.pending(), 6u);
}

TEST(EventLoop, RejectsPastScheduling) {
    EventLoop loop;
    loop.schedule(1.0, [] {});
    loop.run();
    EXPECT_THROW(loop.scheduleAt(0.5, [] {}), cop::InvalidArgument);
    EXPECT_THROW(loop.schedule(-1.0, [] {}), cop::InvalidArgument);
}

struct TestNet {
    EventLoop loop;
    OverlayNetwork net{loop};

    Node makeNode(const std::string& name, std::uint64_t seed) {
        return Node(net, name, KeyPair::generate(seed));
    }
};

void mutualTrust(Node& a, Node& b) {
    a.trust(b.publicKey());
    b.trust(a.publicKey());
}

TEST(Overlay, ConnectRequiresMutualTrust) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    EXPECT_THROW(t.net.connect(a.id(), b.id(), {}), cop::InvalidArgument);
    a.trust(b.publicKey()); // one-way is not enough
    EXPECT_THROW(t.net.connect(a.id(), b.id(), {}), cop::InvalidArgument);
    b.trust(a.publicKey());
    t.net.connect(a.id(), b.id(), {});
    EXPECT_TRUE(t.net.connected(a.id(), b.id()));
}

TEST(Overlay, DirectDeliveryWithLatency) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), LinkProperties{0.5, 1e6});

    double deliveredAt = -1.0;
    b.setHandler([&](const Message&) { deliveredAt = t.loop.now(); });
    Message msg;
    msg.type = MessageType::Heartbeat;
    msg.source = a.id();
    msg.destination = b.id();
    msg.payload.assign(100, 0);
    t.net.send(msg);
    t.loop.run();
    // latency + bytes/bandwidth = 0.5 + 196/1e6.
    EXPECT_NEAR(deliveredAt, 0.5 + 196.0 / 1e6, 1e-9);
}

/// a - b - d (fast, 0.02 s) and a - c - d (slow, 2 s). The memo tests
/// query a -> d first, so the route is memoized before the topology
/// changes under it.
struct Diamond {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    Node c = t.makeNode("c", 3);
    Node d = t.makeNode("d", 4);

    Diamond() {
        for (Node* x : {&a, &b, &c, &d})
            for (Node* y : {&a, &b, &c, &d})
                if (x != y) x->trust(y->publicKey());
        t.net.connect(a.id(), b.id(), LinkProperties{0.01, 1e9});
        t.net.connect(b.id(), d.id(), LinkProperties{0.01, 1e9});
        t.net.connect(a.id(), c.id(), LinkProperties{1.0, 1e9});
        t.net.connect(c.id(), d.id(), LinkProperties{1.0, 1e9});
    }
    NodeId route() const { return t.net.nextHop(a.id(), d.id()); }
};

TEST(Overlay, MultiHopRoutingTakesLowestLatencyPath) {
    Diamond g;
    EXPECT_EQ(g.route(), g.b.id());

    int delivered = 0;
    g.d.setHandler([&](const Message&) { ++delivered; });
    Message msg;
    msg.source = g.a.id();
    msg.destination = g.d.id();
    g.t.net.send(msg);
    g.t.loop.run();
    EXPECT_EQ(delivered, 1);
    // Traffic accounted on both hops of the fast path, none on the slow.
    EXPECT_EQ(g.t.net.linkStats(g.a.id(), g.b.id()).messages, 1u);
    EXPECT_EQ(g.t.net.linkStats(g.b.id(), g.d.id()).messages, 1u);
    EXPECT_EQ(g.t.net.linkStats(g.a.id(), g.c.id()).messages, 0u);
}

TEST(Overlay, UnreachableDestinationDeadLetters) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    std::vector<DeadLetterReason> reasons;
    t.net.setDeadLetterHandler(
        [&](const Message&, DeadLetterReason r) { reasons.push_back(r); });
    Message msg;
    msg.source = a.id();
    msg.destination = b.id();
    EXPECT_NO_THROW(t.net.send(msg));
    EXPECT_EQ(t.net.faultStats().deadLetters, 1u);
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_EQ(reasons[0], DeadLetterReason::NoRoute);
    // Invalid node ids are still programming errors, not network faults.
    Message bad;
    bad.source = a.id();
    bad.destination = kInvalidNode;
    EXPECT_THROW(t.net.send(bad), cop::InvalidArgument);
}

TEST(Overlay, UnregisteredDestinationDeadLetters) {
    // Destinations can come off the wire (a relayed CommandOutput names
    // its project server): an id that is not a registered node is a
    // routing failure, never an out-of-bounds read.
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    std::vector<DeadLetterReason> reasons;
    t.net.setDeadLetterHandler(
        [&](const Message&, DeadLetterReason r) { reasons.push_back(r); });
    for (NodeId hostile : {NodeId(999), NodeId(-5)}) {
        Message msg;
        msg.source = a.id();
        msg.destination = hostile;
        EXPECT_NO_THROW(t.net.send(msg));
        EXPECT_EQ(t.net.nextHop(a.id(), hostile), kInvalidNode);
        EXPECT_EQ(t.net.nextHop(hostile, a.id()), kInvalidNode);
    }
    t.loop.run();
    EXPECT_EQ(reasons, (std::vector<DeadLetterReason>{
                           DeadLetterReason::NoRoute,
                           DeadLetterReason::NoRoute}));
    EXPECT_EQ(t.net.linkStats(a.id(), b.id()).messages, 0u);
}

TEST(Overlay, MemoizedRouteFollowsLinkCutAndHeal) {
    Diamond g;
    EXPECT_EQ(g.route(), g.b.id());
    g.t.net.cutLink(g.a.id(), g.b.id());
    EXPECT_EQ(g.route(), g.c.id());
    g.t.net.healLink(g.a.id(), g.b.id());
    EXPECT_EQ(g.route(), g.b.id());
}

TEST(Overlay, MemoizedRouteFollowsPartitionAndHeal) {
    Diamond g;
    EXPECT_EQ(g.route(), g.b.id());
    FaultPlan plan;
    plan.partition({g.b.id()}, /*at=*/1.0, /*heal=*/2.0);
    g.t.net.setFaultPlan(plan);
    g.t.loop.runUntil(1.5);
    EXPECT_EQ(g.route(), g.c.id());
    g.t.loop.runUntil(2.5);
    EXPECT_EQ(g.route(), g.b.id());
}

TEST(Overlay, PartitionHealSkipsLinksConnectedMidPartition) {
    // b is islanded over [1, 3], and b-c is connected across the island's
    // boundary at t=2, while the partition is up. The heal restores only
    // the links the partition cut: b-c was never cut and stays usable.
    Diamond g;
    FaultPlan plan;
    plan.partition({g.b.id()}, /*at=*/1.0, /*heal=*/3.0);
    g.t.net.setFaultPlan(plan);
    g.t.loop.schedule(2.0, [&] {
        g.t.net.connect(g.b.id(), g.c.id(), LinkProperties{0.01, 1e9});
    });
    EXPECT_NO_THROW(g.t.loop.run());
    EXPECT_EQ(g.t.net.faultStats().linkCuts, 2u); // a-b and b-d
    EXPECT_TRUE(g.t.net.linkUsable(g.a.id(), g.b.id()));
    EXPECT_TRUE(g.t.net.linkUsable(g.b.id(), g.d.id()));
    EXPECT_TRUE(g.t.net.linkUsable(g.b.id(), g.c.id()));
    EXPECT_EQ(g.route(), g.b.id());
}

TEST(Overlay, MemoizedRouteFollowsRelayCrashAndRestore) {
    Diamond g;
    EXPECT_EQ(g.route(), g.b.id());
    g.t.net.crashNode(g.b.id());
    EXPECT_EQ(g.route(), g.c.id());
    g.t.net.crashNode(g.c.id()); // both relays down: no route at all
    EXPECT_EQ(g.route(), kInvalidNode);
    g.t.net.restoreNode(g.c.id());
    EXPECT_EQ(g.route(), g.c.id());
    g.t.net.restoreNode(g.b.id());
    EXPECT_EQ(g.route(), g.b.id());
}

TEST(Overlay, MemoizedRouteTakesNewShortcut) {
    Diamond g;
    EXPECT_EQ(g.route(), g.b.id());
    EXPECT_EQ(g.t.net.nextHop(g.c.id(), g.b.id()), g.a.id());
    g.t.net.connect(g.a.id(), g.d.id(), LinkProperties{0.001, 1e9});
    EXPECT_EQ(g.route(), g.d.id());
    g.t.net.connect(g.c.id(), g.b.id(), LinkProperties{0.5, 1e9});
    EXPECT_EQ(g.t.net.nextHop(g.c.id(), g.b.id()), g.b.id());
}

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

/// Totals over a property sweep, so the sweep can show it was not
/// vacuous.
struct RouteSweepTally {
    std::uint64_t queries = 0;
    std::uint64_t multiHop = 0;    ///< routes whose first hop != destination
    std::uint64_t unreachable = 0; ///< kInvalidNode answers
    std::uint64_t changed = 0;     ///< answers that differ from the last step
};

/// One seeded random overlay: integer latencies from a small set (so
/// equal-latency paths are common and the tie-break is exercised), a
/// fault plan of timed cuts, partitions and a crash, and random direct
/// mutations interleaved with queries of every (from, to) pair in random
/// order. Every answer must equal the uncached reference router's.
void checkRoutesAgainstReference(std::uint64_t seed, RouteSweepTally& tally) {
    Rng rng(seed);
    EventLoop loop;
    OverlayNetwork net(loop);
    const int n = 4 + int(rng.uniformInt(10));
    std::vector<std::unique_ptr<Node>> nodes;
    for (int i = 0; i < n; ++i)
        nodes.push_back(std::make_unique<Node>(
            net, "n" + std::to_string(i), KeyPair::generate(seed * 64 + i)));
    for (auto& x : nodes)
        for (auto& y : nodes)
            if (x != y) x->trust(y->publicKey());

    const double latencies[] = {1.0, 1.0, 2.0, 3.0};
    std::vector<std::pair<NodeId, NodeId>> links;
    std::vector<std::pair<NodeId, NodeId>> unlinked;
    for (NodeId a = 0; a < n; ++a)
        for (NodeId b = a + 1; b < n; ++b)
            (rng.uniform() < 0.35 ? links : unlinked).emplace_back(a, b);
    const auto connect = [&](std::pair<NodeId, NodeId> link) {
        net.connect(link.first, link.second,
                    LinkProperties{latencies[rng.uniformInt(4)], 1e9});
    };
    for (const auto& link : links) connect(link);

    FaultPlan plan;
    plan.seed = seed;
    const auto randomNode = [&] { return NodeId(rng.uniformInt(n)); };
    for (int k = 0; k < 3; ++k) {
        const double at = rng.uniform(0.0, 60.0);
        std::vector<NodeId> island;
        for (NodeId v = 0; v < n; ++v)
            if (rng.uniform() < 0.3) island.push_back(v);
        plan.partition(island, at, at + rng.uniform(1.0, 20.0));
    }
    if (!links.empty()) {
        const auto& link = links[rng.uniformInt(links.size())];
        const double at = rng.uniform(0.0, 60.0);
        plan.cutLink(link.first, link.second, at, at + 15.0);
    }
    const double crashAt = rng.uniform(0.0, 60.0);
    plan.crashNode(randomNode(), crashAt, crashAt + 10.0);
    net.setFaultPlan(plan);

    std::vector<std::pair<NodeId, NodeId>> cut;
    std::vector<NodeId> crashed;
    std::vector<NodeId> previous(std::size_t(n * n), kInvalidNode);
    std::vector<int> order(std::size_t(n * n));
    std::iota(order.begin(), order.end(), 0);
    int mismatches = 0;
    std::string firstMismatch;
    for (int step = 0; step < 80; ++step) {
        switch (rng.uniformInt(6)) {
        case 0:
            if (!links.empty()) {
                const auto link = links[rng.uniformInt(links.size())];
                net.cutLink(link.first, link.second);
                cut.push_back(link);
            }
            break;
        case 1:
            if (!cut.empty()) {
                const std::size_t i = rng.uniformInt(cut.size());
                net.healLink(cut[i].first, cut[i].second);
                cut.erase(cut.begin() + std::ptrdiff_t(i));
            }
            break;
        case 2:
            crashed.push_back(randomNode());
            net.crashNode(crashed.back());
            break;
        case 3:
            if (!crashed.empty()) {
                const std::size_t i = rng.uniformInt(crashed.size());
                net.restoreNode(crashed[i]);
                crashed.erase(crashed.begin() + std::ptrdiff_t(i));
            }
            break;
        case 4:
            if (!unlinked.empty()) {
                const std::size_t i = rng.uniformInt(unlinked.size());
                connect(unlinked[i]);
                links.push_back(unlinked[i]);
                unlinked.erase(unlinked.begin() + std::ptrdiff_t(i));
            }
            break;
        default:
            loop.runUntil(loop.now() + rng.uniform(0.0, 10.0));
            break;
        }
        std::shuffle(order.begin(), order.end(), rng);
        for (int k : order) {
            const NodeId from = k / n, to = k % n;
            const NodeId got = net.nextHop(from, to);
            const NodeId want = referenceNextHop(net, from, to);
            if (got != want && mismatches++ == 0)
                firstMismatch = "step " + std::to_string(step) + ": " +
                                std::to_string(from) + " -> " +
                                std::to_string(to) + " memo " +
                                std::to_string(got) + ", reference " +
                                std::to_string(want);
            ++tally.queries;
            if (want == kInvalidNode) ++tally.unreachable;
            else if (want != to) ++tally.multiHop;
            if (step > 0 && want != previous[std::size_t(k)]) ++tally.changed;
            previous[std::size_t(k)] = want;
        }
    }
    EXPECT_EQ(mismatches, 0) << "seed " << seed << ", first at "
                             << firstMismatch;
}

TEST(RouteOracle, MemoMatchesReferenceUnderRandomTopologyChanges) {
    // Multi-seed sweep over the chaos seed window; CI shifts it via the
    // environment.
    const std::uint64_t base = envU64("COP_CHAOS_SEED_BASE", 1000);
    const std::uint64_t count = envU64("COP_CHAOS_SEED_COUNT", 20);
    RouteSweepTally tally;
    for (std::uint64_t s = 0; s < count; ++s)
        checkRoutesAgainstReference(base + s, tally);
    EXPECT_GT(tally.multiHop, 0u);
    EXPECT_GT(tally.unreachable, 0u);
    EXPECT_GT(tally.changed, 0u);
}

TEST(Overlay, StatsAggregation) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    for (int i = 0; i < 3; ++i) {
        Message msg;
        msg.source = a.id();
        msg.destination = b.id();
        msg.payload.assign(10, 0);
        t.net.send(msg);
    }
    t.loop.run();
    EXPECT_EQ(t.net.totalStats().messages, 3u);
    EXPECT_EQ(t.net.nodeStats(a.id()).messages, 3u);
    EXPECT_EQ(t.net.totalStats().bytes, 3u * 106u);
}

TEST(Overlay, MessageTypeNames) {
    EXPECT_STREQ(messageTypeName(MessageType::Heartbeat), "Heartbeat");
    EXPECT_STREQ(messageTypeName(MessageType::WorkerFailed), "WorkerFailed");
}

TEST(Overlay, HeartbeatWireSizeIsSmall) {
    // Paper: "a message size typically less than 200 bytes".
    Message hb;
    hb.type = MessageType::Heartbeat;
    hb.payload.assign(60, 0); // typical encoded heartbeat
    EXPECT_LT(hb.wireSize(), 200u);
}

TEST(KeyPairTest, GenerationIsDeterministicAndDistinct) {
    const auto a = KeyPair::generate(1);
    const auto b = KeyPair::generate(1);
    const auto c = KeyPair::generate(2);
    EXPECT_EQ(a.publicKey, b.publicKey);
    EXPECT_NE(a.publicKey, c.publicKey);
    EXPECT_NE(a.publicKey, a.privateKey);
}


TEST(Overlay, SharedFilesystemSkipsBulkPayloadBytes) {
    TestNet t;
    Node a = t.makeNode("worker", 1);
    Node b = t.makeNode("head", 2);
    mutualTrust(a, b);
    LinkProperties props;
    props.sharedFilesystem = true;
    t.net.connect(a.id(), b.id(), props);

    Message bulk;
    bulk.type = MessageType::CommandOutput;
    bulk.source = a.id();
    bulk.destination = b.id();
    bulk.payload.assign(1'000'000, 0);
    t.net.send(bulk);
    t.loop.run();
    // Only the ~96-byte frame crossed the wire.
    EXPECT_LT(t.net.totalStats().bytes, 200u);

    Message control;
    control.type = MessageType::Heartbeat; // not bulk: full size
    control.source = a.id();
    control.destination = b.id();
    control.payload.assign(50, 0);
    t.net.send(control);
    t.loop.run();
    EXPECT_GE(t.net.totalStats().bytes, 96u + 50u);
}

TEST(EventLoop, CancelledTimerNeverFires) {
    EventLoop loop;
    int fired = 0;
    const auto keep = loop.scheduleTimer(1.0, [&] { fired += 1; });
    const auto dead = loop.scheduleTimer(2.0, [&] { fired += 100; });
    EXPECT_TRUE(loop.cancelTimer(dead));
    EXPECT_FALSE(loop.cancelTimer(dead)); // already dead
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(loop.cancelTimer(keep)); // already fired
}

TEST(Backoff, GrowsExponentiallyAndCaps) {
    BackoffPolicy policy{30.0, 2.0, 480.0, 0.0};
    Rng rng(7);
    EXPECT_DOUBLE_EQ(policy.delay(0, rng), 30.0);
    EXPECT_DOUBLE_EQ(policy.delay(1, rng), 60.0);
    EXPECT_DOUBLE_EQ(policy.delay(2, rng), 120.0);
    EXPECT_DOUBLE_EQ(policy.delay(3, rng), 240.0);
    EXPECT_DOUBLE_EQ(policy.delay(4, rng), 480.0);
    EXPECT_DOUBLE_EQ(policy.delay(9, rng), 480.0); // capped
}

TEST(Backoff, JitterStaysInRangeAndDesynchronizes) {
    BackoffPolicy policy{30.0, 2.0, 480.0, 0.25};
    Rng a(1), b(2);
    bool differed = false;
    for (int attempt = 0; attempt < 6; ++attempt) {
        const double da = policy.delay(attempt, a);
        const double db = policy.delay(attempt, b);
        const double base = std::min(480.0, 30.0 * std::pow(2.0, attempt));
        EXPECT_GT(da, base * 0.75 - 1e-9);
        EXPECT_LE(da, base);
        if (std::abs(da - db) > 1e-9) differed = true;
    }
    EXPECT_TRUE(differed);
}

TEST(Overlay, FaultPlanDropsEveryMessageOnLossyLink) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    FaultPlan plan;
    plan.seed = 42;
    plan.defaultProfile.dropProbability = 1.0;
    t.net.setFaultPlan(plan);

    int delivered = 0;
    b.setHandler([&](const Message&) { ++delivered; });
    for (int i = 0; i < 5; ++i) {
        Message msg;
        msg.source = a.id();
        msg.destination = b.id();
        t.net.send(msg);
    }
    t.loop.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(t.net.faultStats().dropped, 5u);
    // Dropped messages still consumed the wire.
    EXPECT_EQ(t.net.linkStats(a.id(), b.id()).messages, 5u);
}

TEST(Overlay, FaultPlanDuplicatesDeliverTwice) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    FaultPlan plan;
    plan.seed = 7;
    FaultProfile lossy;
    lossy.duplicateProbability = 1.0;
    plan.linkProfiles[{std::min(a.id(), b.id()),
                       std::max(a.id(), b.id())}] = lossy;
    t.net.setFaultPlan(plan);

    int delivered = 0;
    b.setHandler([&](const Message&) { ++delivered; });
    Message msg;
    msg.source = a.id();
    msg.destination = b.id();
    t.net.send(msg);
    t.loop.run();
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(t.net.faultStats().duplicated, 1u);
}

TEST(Overlay, ScheduledLinkCutHealsOnTime) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    FaultPlan plan;
    plan.cutLink(a.id(), b.id(), /*at=*/10.0, /*heal=*/20.0);
    t.net.setFaultPlan(plan);

    int delivered = 0, dead = 0;
    b.setHandler([&](const Message&) { ++delivered; });
    t.net.setDeadLetterHandler(
        [&](const Message&, DeadLetterReason) { ++dead; });
    auto sendOne = [&] {
        Message msg;
        msg.source = a.id();
        msg.destination = b.id();
        t.net.send(msg);
    };
    t.loop.schedule(15.0, sendOne); // during the cut: dead letter
    t.loop.schedule(25.0, sendOne); // after the heal: delivered
    t.loop.run();
    EXPECT_EQ(dead, 1);
    EXPECT_EQ(delivered, 1);
    EXPECT_TRUE(t.net.linkUsable(a.id(), b.id()));
    EXPECT_EQ(t.net.faultStats().linkCuts, 1u);
}

TEST(Overlay, CrashedNodeDeadLettersUntilRestart) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    FaultPlan plan;
    plan.crashNode(b.id(), /*at=*/10.0, /*restart=*/20.0);
    t.net.setFaultPlan(plan);

    int delivered = 0;
    std::vector<DeadLetterReason> reasons;
    b.setHandler([&](const Message&) { ++delivered; });
    t.net.setDeadLetterHandler(
        [&](const Message&, DeadLetterReason r) { reasons.push_back(r); });
    auto sendOne = [&] {
        Message msg;
        msg.source = a.id();
        msg.destination = b.id();
        t.net.send(msg);
    };
    t.loop.schedule(15.0, [&] {
        EXPECT_FALSE(t.net.nodeUp(b.id()));
        sendOne();
    });
    t.loop.schedule(25.0, sendOne);
    t.loop.run();
    EXPECT_EQ(delivered, 1);
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_EQ(reasons[0], DeadLetterReason::DestinationDown);
    EXPECT_TRUE(t.net.nodeUp(b.id()));
    EXPECT_EQ(t.net.faultStats().crashes, 1u);
}

TEST(Overlay, RoutesAroundCutLink) {
    // Cutting a-b reroutes a -> d via c.
    Diamond g;
    g.t.net.cutLink(g.a.id(), g.b.id());
    EXPECT_FALSE(g.t.net.linkUsable(g.a.id(), g.b.id()));
    EXPECT_EQ(g.route(), g.c.id());

    int delivered = 0;
    g.d.setHandler([&](const Message&) { ++delivered; });
    Message msg;
    msg.source = g.a.id();
    msg.destination = g.d.id();
    g.t.net.send(msg);
    g.t.loop.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(g.t.net.linkStats(g.a.id(), g.c.id()).messages, 1u);
    EXPECT_EQ(g.t.net.linkStats(g.a.id(), g.b.id()).messages, 0u);
}

TEST(Overlay, TraceHashIsDeterministicUnderSeed) {
    auto runOnce = [](std::uint64_t seed) {
        TestNet t;
        Node a = t.makeNode("a", 1);
        Node b = t.makeNode("b", 2);
        mutualTrust(a, b);
        t.net.connect(a.id(), b.id(), {});
        FaultPlan plan;
        plan.seed = seed;
        plan.defaultProfile.dropProbability = 0.5;
        plan.defaultProfile.duplicateProbability = 0.25;
        t.net.setFaultPlan(plan);
        b.setHandler([](const Message&) {});
        for (int i = 0; i < 20; ++i) {
            Message msg;
            msg.source = a.id();
            msg.destination = b.id();
            msg.id = std::uint64_t(i + 1);
            t.net.send(msg);
        }
        t.loop.run();
        return t.net.traceHash();
    };
    EXPECT_EQ(runOnce(11), runOnce(11));
    EXPECT_NE(runOnce(11), runOnce(12));
}

TEST(Overlay, BulkDataClassification) {
    EXPECT_TRUE(isBulkDataMessage(MessageType::CommandOutput));
    EXPECT_TRUE(isBulkDataMessage(MessageType::CheckpointData));
    EXPECT_TRUE(isBulkDataMessage(MessageType::WorkloadAssign));
    EXPECT_FALSE(isBulkDataMessage(MessageType::Heartbeat));
    EXPECT_FALSE(isBulkDataMessage(MessageType::WorkloadRequest));
}

} // namespace
} // namespace cop::net
