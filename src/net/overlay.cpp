#include "net/overlay.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <memory>

#include "util/logging.hpp"
#include "util/random.hpp"

namespace cop::net {

namespace {

// Trace event kinds folded into OverlayNetwork::traceHash().
constexpr std::uint64_t kTraceDeliver = 1;
constexpr std::uint64_t kTraceDrop = 2;
constexpr std::uint64_t kTraceDuplicate = 3;
constexpr std::uint64_t kTraceDelay = 4;
constexpr std::uint64_t kTraceDeadLetter = 5;
constexpr std::uint64_t kTraceLinkDown = 6;
constexpr std::uint64_t kTraceLinkUp = 7;
constexpr std::uint64_t kTraceNodeDown = 8;
constexpr std::uint64_t kTraceNodeUp = 9;

} // namespace

const char* messageTypeName(MessageType t) {
    switch (t) {
    case MessageType::WorkerAnnounce: return "WorkerAnnounce";
    case MessageType::WorkloadRequest: return "WorkloadRequest";
    case MessageType::WorkloadAssign: return "WorkloadAssign";
    case MessageType::Heartbeat: return "Heartbeat";
    case MessageType::CommandOutput: return "CommandOutput";
    case MessageType::CommandFailed: return "CommandFailed";
    case MessageType::CheckpointData: return "CheckpointData";
    case MessageType::WorkerFailed: return "WorkerFailed";
    case MessageType::ProjectData: return "ProjectData";
    case MessageType::NoWorkAvailable: return "NoWorkAvailable";
    case MessageType::ClientRequest: return "ClientRequest";
    case MessageType::ClientResponse: return "ClientResponse";
    case MessageType::Ack: return "Ack";
    case MessageType::LeaseRenew: return "LeaseRenew";
    case MessageType::Batch: return "Batch";
    case MessageType::HeartbeatSummary: return "HeartbeatSummary";
    }
    return "Unknown";
}

bool isBulkDataMessage(MessageType t) {
    switch (t) {
    case MessageType::WorkloadAssign:
    case MessageType::CommandOutput:
    case MessageType::CheckpointData:
    case MessageType::ProjectData:
        return true;
    case MessageType::WorkerAnnounce:
    case MessageType::WorkloadRequest:
    case MessageType::Heartbeat:
    case MessageType::CommandFailed:
    case MessageType::WorkerFailed:
    case MessageType::NoWorkAvailable:
    case MessageType::ClientRequest:
    case MessageType::ClientResponse:
    case MessageType::Ack:
    case MessageType::LeaseRenew:
    case MessageType::Batch:
    case MessageType::HeartbeatSummary:
        return false;
    }
    return false;
}

KeyPair KeyPair::generate(std::uint64_t seed) {
    Rng rng(seed);
    // Public and private halves are independent random words; the "proof"
    // in this toy scheme is just producing the private half.
    return KeyPair{rng.next() | 1, rng.next() | 1};
}

Node::Node(OverlayNetwork& net, std::string name, KeyPair keys)
    : net_(&net), name_(std::move(name)), keys_(keys) {
    id_ = net.registerNode(*this);
}

void Node::deliver(const Message& msg) {
    if (handler_) handler_(msg);
}

OverlayNetwork::OverlayNetwork(EventLoop& loop) : loop_(&loop) {}

NodeId OverlayNetwork::registerNode(Node& node) {
    nodes_.push_back(&node);
    adjacency_.emplace_back();
    return NodeId(nodes_.size() - 1);
}

Node& OverlayNetwork::node(NodeId id) {
    COP_REQUIRE(registered(id), "bad node id");
    return *nodes_[std::size_t(id)];
}

const Node& OverlayNetwork::node(NodeId id) const {
    COP_REQUIRE(registered(id), "bad node id");
    return *nodes_[std::size_t(id)];
}

void OverlayNetwork::connect(NodeId a, NodeId b, LinkProperties props) {
    COP_REQUIRE(a != b, "cannot connect a node to itself");
    Node& na = node(a);
    Node& nb = node(b);
    // Mutual authentication: both ends must have exchanged public keys
    // beforehand (paper §2.2).
    if (!na.trusts(nb.publicKey()) || !nb.trusts(na.publicKey()))
        throw InvalidArgument("connection refused: keys not mutually trusted (" +
                              na.name() + " <-> " + nb.name() + ")");
    COP_REQUIRE(props.latency >= 0.0 && props.bandwidth > 0.0,
                "invalid link properties");
    const auto key = keyOf(a, b);
    COP_REQUIRE(links_.find(key) == links_.end(), "link already exists");
    links_[key] = Link{props, {}};
    adjacency_[std::size_t(a)].push_back(b);
    adjacency_[std::size_t(b)].push_back(a);
    invalidateRoutes();
}

bool OverlayNetwork::connected(NodeId a, NodeId b) const {
    return links_.find(keyOf(a, b)) != links_.end();
}

const std::vector<NodeId>& OverlayNetwork::neighbors(NodeId id) const {
    static const std::vector<NodeId> kNone;
    return registered(id) ? adjacency_[std::size_t(id)] : kNone;
}

bool OverlayNetwork::nodeUp(NodeId id) const {
    auto it = downNodes_.find(id);
    return it == downNodes_.end() || it->second == 0;
}

bool OverlayNetwork::linkUsable(NodeId a, NodeId b) const {
    if (!connected(a, b)) return false;
    auto it = downLinks_.find(keyOf(a, b));
    if (it != downLinks_.end() && it->second > 0) return false;
    return nodeUp(a) && nodeUp(b);
}

NodeId OverlayNetwork::nextHop(NodeId from, NodeId to) const {
    // Range first: ids off the wire must neither index past the tables nor
    // grow the memo.
    if (!registered(from) || !registered(to)) return kInvalidNode;
    if (from == to) return to;
    if (!nodeUp(from) || !nodeUp(to)) return kInvalidNode;
    const std::uint64_t key = (std::uint64_t(std::uint32_t(from)) << 32) |
                              std::uint32_t(to);
    const auto [it, miss] = routes_.try_emplace(key, kInvalidNode);
    if (miss) it->second = shortestPathFirstHop(from, to);
    return it->second;
}

NodeId OverlayNetwork::shortestPathFirstHop(NodeId from, NodeId to) const {
    // Dijkstra from `from` by total latency over usable links, stopping
    // once `to` is settled; returns the first hop of the best path.
    auto& [dist, firstHop, touched, heap] = routeScratch_;
    if (dist.size() < nodes_.size()) {
        dist.resize(nodes_.size(), std::numeric_limits<double>::infinity());
        firstHop.resize(nodes_.size(), kInvalidNode);
    }
    const auto relax = [&](NodeId v, double d, NodeId hop) {
        if (dist[std::size_t(v)] == std::numeric_limits<double>::infinity())
            touched.push_back(v);
        dist[std::size_t(v)] = d;
        firstHop[std::size_t(v)] = hop;
        heap.emplace_back(d, v);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    };
    relax(from, 0.0, kInvalidNode);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        const auto [d, u] = heap.back();
        heap.pop_back();
        if (d > dist[std::size_t(u)]) continue;
        if (u == to) break;
        for (NodeId v : adjacency_[std::size_t(u)]) {
            if (!linkUsable(u, v)) continue;
            const double nd = d + links_.at(keyOf(u, v)).props.latency;
            if (nd < dist[std::size_t(v)])
                relax(v, nd, u == from ? v : firstHop[std::size_t(u)]);
        }
    }
    const NodeId hop = firstHop[std::size_t(to)];
    for (NodeId v : touched) {
        dist[std::size_t(v)] = std::numeric_limits<double>::infinity();
        firstHop[std::size_t(v)] = kInvalidNode;
    }
    touched.clear();
    heap.clear();
    return hop;
}

void OverlayNetwork::invalidateRoutes() {
    // clear() on an empty table still sweeps its buckets; partitions call
    // this once per crossing link.
    if (!routes_.empty()) routes_.clear();
}

void OverlayNetwork::send(Message msg) {
    COP_REQUIRE(msg.source != kInvalidNode && msg.destination != kInvalidNode,
                "message needs source and destination");
    if (msg.id == 0) msg.id = nextMessageId();
    const NodeId origin = msg.source;
    forward(std::move(msg), origin);
}

void OverlayNetwork::forward(Message msg, NodeId at) {
    if (!nodeUp(at)) {
        // The node holding the message crashed while it was in flight.
        deadLetter(msg, DeadLetterReason::NodeDown);
        return;
    }
    if (at == msg.destination) {
        traceEvent(kTraceDeliver, msg.id, std::uint64_t(at),
                   std::uint64_t(msg.type));
        node(at).deliver(msg);
        return;
    }
    if (!nodeUp(msg.destination)) {
        deadLetter(msg, DeadLetterReason::DestinationDown);
        return;
    }
    const NodeId hop = nextHop(at, msg.destination);
    if (hop == kInvalidNode) {
        deadLetter(msg, DeadLetterReason::NoRoute);
        return;
    }
    auto& link = links_.at(keyOf(at, hop));
    // On shared-filesystem links, bulk payloads are exchanged through the
    // filesystem; only the framing crosses the network. Batch frames carry
    // their bulk sub-payload byte count explicitly so coalescing does not
    // forfeit the out-of-band optimization.
    const std::size_t elidable =
        isBulkDataMessage(msg.type)
            ? msg.payload.size()
            : std::min(msg.bulkBytes, msg.payload.size());
    const std::size_t wireBytes = link.props.sharedFilesystem
                                      ? (msg.wireSize() - elidable)
                                      : msg.wireSize();
    const auto account = [&link, &msg](std::size_t bytes) {
        link.stats.messages += 1;
        link.stats.bytes += bytes;
        if (msg.batchCount > 0) {
            link.stats.batches += 1;
            link.stats.batchedEnvelopes += msg.batchCount;
        } else {
            link.stats.singletons += 1;
        }
    };
    // Per-hop chaos. Draws happen in deterministic event-loop order, so a
    // given FaultPlan seed yields the same decisions run after run.
    int copies = 1;
    double extraDelay[2] = {0.0, 0.0};
    if (planActive_) {
        const FaultProfile& prof = profileFor(keyOf(at, hop));
        if (prof.active()) {
            if (prof.dropProbability > 0.0 &&
                faultRng_.uniform() < prof.dropProbability) {
                // The message consumed the wire before vanishing.
                account(wireBytes);
                ++faultStats_.dropped;
                traceEvent(kTraceDrop, msg.id, std::uint64_t(at),
                           std::uint64_t(hop));
                return;
            }
            if (prof.duplicateProbability > 0.0 &&
                faultRng_.uniform() < prof.duplicateProbability) {
                copies = 2;
                ++faultStats_.duplicated;
                traceEvent(kTraceDuplicate, msg.id, std::uint64_t(at),
                           std::uint64_t(hop));
            }
            for (int c = 0; c < copies; ++c) {
                double extra = 0.0;
                if (prof.reorderProbability > 0.0 &&
                    faultRng_.uniform() < prof.reorderProbability)
                    extra += prof.reorderWindow * faultRng_.uniform();
                if (prof.spikeProbability > 0.0 &&
                    faultRng_.uniform() < prof.spikeProbability)
                    extra += prof.spikeSeconds * faultRng_.uniform();
                if (extra > 0.0) {
                    ++faultStats_.delayed;
                    traceEvent(kTraceDelay, msg.id, std::uint64_t(at),
                               std::bit_cast<std::uint64_t>(extra));
                }
                extraDelay[c] = extra;
            }
        }
    }
    for (int c = 0; c < copies; ++c) {
        account(wireBytes);
        const double delay = link.props.transferTime(wireBytes) + extraDelay[c];
        Message copy = (c + 1 == copies) ? std::move(msg) : msg;
        loop_->schedule(delay, [this, m = std::move(copy), hop]() mutable {
            forward(std::move(m), hop);
        });
    }
}

void OverlayNetwork::deadLetter(const Message& msg, DeadLetterReason reason) {
    ++faultStats_.deadLetters;
    traceEvent(kTraceDeadLetter, msg.id, std::uint64_t(msg.destination),
               std::uint64_t(reason));
    if (deadLetterHandler_) deadLetterHandler_(msg, reason);
}

const FaultProfile& OverlayNetwork::profileFor(const LinkKey& key) const {
    auto it = plan_.linkProfiles.find(key);
    return it != plan_.linkProfiles.end() ? it->second : plan_.defaultProfile;
}

void OverlayNetwork::setFaultPlan(const FaultPlan& plan) {
    plan_ = plan;
    planActive_ = true;
    faultRng_ = Rng(plan_.seed);
    for (const auto& cut : plan_.cuts) {
        loop_->scheduleAt(cut.at, [this, cut] { cutLink(cut.a, cut.b); });
        if (cut.heal >= cut.at)
            loop_->scheduleAt(cut.heal, [this, cut] { healLink(cut.a, cut.b); });
    }
    for (const auto& part : plan_.partitions) {
        // The heal restores exactly the links the partition cut, in the
        // same order: a link connected across the island mid-partition
        // was never cut, so it is not healed either.
        auto cut = std::make_shared<std::vector<LinkKey>>();
        loop_->scheduleAt(part.at, [this, island = part.island, cut] {
            *cut = cutPartition(island);
        });
        if (part.heal >= part.at)
            loop_->scheduleAt(part.heal, [this, cut] {
                for (const auto& [a, b] : *cut) healLink(a, b);
            });
    }
    for (const auto& crash : plan_.crashes) {
        loop_->scheduleAt(crash.at, [this, crash] { crashNode(crash.node); });
        if (crash.restart >= crash.at)
            loop_->scheduleAt(crash.restart,
                              [this, crash] { restoreNode(crash.node); });
    }
}

void OverlayNetwork::cutLink(NodeId a, NodeId b) {
    COP_REQUIRE(connected(a, b), "cannot cut a link that does not exist");
    ++downLinks_[keyOf(a, b)];
    invalidateRoutes();
    ++faultStats_.linkCuts;
    traceEvent(kTraceLinkDown, std::uint64_t(a), std::uint64_t(b), 0);
}

void OverlayNetwork::healLink(NodeId a, NodeId b) {
    auto it = downLinks_.find(keyOf(a, b));
    COP_REQUIRE(it != downLinks_.end() && it->second > 0, "link is not cut");
    if (--it->second == 0) downLinks_.erase(it);
    invalidateRoutes();
    traceEvent(kTraceLinkUp, std::uint64_t(a), std::uint64_t(b), 0);
}

std::vector<OverlayNetwork::LinkKey>
OverlayNetwork::cutPartition(const std::vector<NodeId>& island) {
    const std::set<NodeId> inIsland(island.begin(), island.end());
    std::vector<LinkKey> cut;
    for (const auto& [key, link] : links_) {
        const bool aIn = inIsland.count(key.first) > 0;
        const bool bIn = inIsland.count(key.second) > 0;
        if (aIn == bIn) continue; // link does not cross the boundary
        cutLink(key.first, key.second);
        cut.push_back(key);
    }
    return cut;
}

void OverlayNetwork::crashNode(NodeId id) {
    COP_REQUIRE(registered(id), "bad node id");
    ++downNodes_[id];
    invalidateRoutes();
    ++faultStats_.crashes;
    traceEvent(kTraceNodeDown, std::uint64_t(id), 0, 0);
}

void OverlayNetwork::restoreNode(NodeId id) {
    auto it = downNodes_.find(id);
    COP_REQUIRE(it != downNodes_.end() && it->second > 0, "node is not down");
    if (--it->second == 0) downNodes_.erase(it);
    invalidateRoutes();
    traceEvent(kTraceNodeUp, std::uint64_t(id), 0, 0);
}

void OverlayNetwork::traceEvent(std::uint64_t kind, std::uint64_t a,
                                std::uint64_t b, std::uint64_t c) {
    const auto mix = [this](std::uint64_t v) {
        traceHash_ ^= v;
        traceHash_ *= 0x100000001b3ull; // FNV-1a prime
    };
    mix(kind);
    mix(std::bit_cast<std::uint64_t>(loop_->now()));
    mix(a);
    mix(b);
    mix(c);
}

const LinkProperties& OverlayNetwork::linkProperties(NodeId a,
                                                     NodeId b) const {
    auto it = links_.find(keyOf(a, b));
    COP_REQUIRE(it != links_.end(), "no such link");
    return it->second.props;
}

const LinkStats& OverlayNetwork::linkStats(NodeId a, NodeId b) const {
    auto it = links_.find(keyOf(a, b));
    COP_REQUIRE(it != links_.end(), "no such link");
    return it->second.stats;
}

namespace {

void accumulate(LinkStats& total, const LinkStats& s) {
    total.messages += s.messages;
    total.bytes += s.bytes;
    total.singletons += s.singletons;
    total.batches += s.batches;
    total.batchedEnvelopes += s.batchedEnvelopes;
}

} // namespace

LinkStats OverlayNetwork::nodeStats(NodeId id) const {
    LinkStats total;
    for (const auto& [key, link] : links_) {
        if (key.first == id || key.second == id)
            accumulate(total, link.stats);
    }
    return total;
}

LinkStats OverlayNetwork::totalStats() const {
    LinkStats total;
    for (const auto& [key, link] : links_) accumulate(total, link.stats);
    return total;
}

} // namespace cop::net
