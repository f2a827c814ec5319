#pragma once

/// \file overlay.hpp
/// The Copernicus overlay network (paper §2.2): a small, relatively static
/// graph of servers plus leaf links to workers and clients. Links model
/// latency and bandwidth; message delivery is simulated hop-by-hop on the
/// EventLoop. Connections require mutual key trust, mirroring the paper's
/// SSL + exchanged-public-key scheme. Per-link and per-node traffic is
/// recorded for the Fig. 9 bandwidth analysis.
///
/// Failure is a first-class input: an installed FaultPlan injects message
/// drop/duplication/reordering/latency spikes per hop and drives timed
/// link cuts, partitions and node crashes. Undeliverable messages become
/// observable dead-letter events (never aborts), and every delivery/fault
/// decision is folded into a trace hash so seeded runs can be asserted
/// bit-identical.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"
#include "util/random.hpp"

namespace cop::net {

/// Toy asymmetric key pair: identity is the public half; possession of the
/// private half is what lets a node prove itself when a link is set up.
struct KeyPair {
    std::uint64_t publicKey = 0;
    std::uint64_t privateKey = 0;

    static KeyPair generate(std::uint64_t seed);
};

struct LinkProperties {
    double latency = 1e-3;       ///< seconds, one-way
    double bandwidth = 100e6;    ///< bytes per second
    /// Both endpoints see the same filesystem (paper §2): bulk payloads
    /// (trajectories, checkpoints, command inputs) travel out-of-band and
    /// only the small message frame crosses the wire.
    bool sharedFilesystem = false;

    double transferTime(std::size_t bytes) const {
        return latency + double(bytes) / bandwidth;
    }
};

struct LinkStats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    /// Envelope-coalescing breakdown: how many of `messages` were
    /// singleton envelopes vs Batch frames, and how many sub-envelopes
    /// those batches carried. `singletons + batchedEnvelopes` is the
    /// number of logical envelopes; `messages` is what hit the wire.
    std::uint64_t singletons = 0;
    std::uint64_t batches = 0;
    std::uint64_t batchedEnvelopes = 0;
};

/// A participant in the overlay: server, worker or client. Subclasses (or
/// owners) register a delivery handler.
class OverlayNetwork;

class Node {
public:
    Node(OverlayNetwork& net, std::string name, KeyPair keys);
    virtual ~Node() = default;

    NodeId id() const { return id_; }
    const std::string& name() const { return name_; }
    std::uint64_t publicKey() const { return keys_.publicKey; }
    const KeyPair& keys() const { return keys_; }

    /// Adds `key` to this node's trust store (the paper's user-initiated
    /// public-key exchange).
    void trust(std::uint64_t key) { trusted_.insert(key); }
    bool trusts(std::uint64_t key) const { return trusted_.count(key) > 0; }

    void setHandler(std::function<void(const Message&)> handler) {
        handler_ = std::move(handler);
    }

    /// Called by the network when a message reaches this node.
    void deliver(const Message& msg);

    OverlayNetwork& network() { return *net_; }

private:
    OverlayNetwork* net_;
    NodeId id_;
    std::string name_;
    KeyPair keys_;
    std::set<std::uint64_t> trusted_;
    std::function<void(const Message&)> handler_;
};

class OverlayNetwork {
public:
    explicit OverlayNetwork(EventLoop& loop);

    EventLoop& loop() { return *loop_; }

    /// Registers a node; returns its id. Called from Node's constructor.
    NodeId registerNode(Node& node);

    Node& node(NodeId id);
    const Node& node(NodeId id) const;
    std::size_t numNodes() const { return nodes_.size(); }

    /// Connects two nodes. Requires mutual trust of each other's public
    /// keys (throws cop::InvalidArgument otherwise, like a failed SSL
    /// handshake).
    void connect(NodeId a, NodeId b, LinkProperties props);

    bool connected(NodeId a, NodeId b) const;

    /// Sends a message; it travels hop-by-hop along the lowest-latency
    /// path and is delivered to the destination's handler. If no usable
    /// path exists (partition, cut link, crashed node) the message becomes
    /// a dead-letter event — routing failures are observable, not aborts.
    void send(Message msg);

    /// First hop from `from` towards `to` on the lowest-total-latency path
    /// over *usable* links (Dijkstra; of equal-latency paths, the one found
    /// first when ties pop in node-id order). kInvalidNode if unreachable,
    /// if either end is down, or if either id is not a registered node.
    /// Routes are memoized per (from, to) pair and the memo is cleared by
    /// every mutator that can change a route (connect, cutLink, healLink,
    /// crashNode, restoreNode), so a lookup always equals a fresh Dijkstra
    /// over the current topology; only the pairs actually routed are kept.
    NodeId nextHop(NodeId from, NodeId to) const;

    /// Neighbours of `id` (empty for an unregistered id).
    const std::vector<NodeId>& neighbors(NodeId id) const;

    const LinkProperties& linkProperties(NodeId a, NodeId b) const;
    const LinkStats& linkStats(NodeId a, NodeId b) const;
    /// Sum of traffic over all links touching `id`.
    LinkStats nodeStats(NodeId id) const;
    /// Total traffic over every link (each message counted on each hop).
    LinkStats totalStats() const;

    std::uint64_t nextMessageId() { return nextMessageId_++; }

    // --- Fault injection ------------------------------------------------

    /// Installs a fault plan: seeds the chaos RNG and schedules the plan's
    /// structural events on the event loop. A partition cuts the links
    /// crossing its island when it fires, and its heal restores exactly
    /// those links.
    void setFaultPlan(const FaultPlan& plan);
    const FaultStats& faultStats() const { return faultStats_; }

    using DeadLetterHandler =
        std::function<void(const Message&, DeadLetterReason)>;
    /// Observer for undeliverable messages (monitoring, tests). The
    /// message is dropped after the callback returns.
    void setDeadLetterHandler(DeadLetterHandler handler) {
        deadLetterHandler_ = std::move(handler);
    }

    /// Structural fault primitives; counted, so overlapping cuts (e.g. a
    /// partition over an already-cut link) nest correctly.
    void cutLink(NodeId a, NodeId b);
    void healLink(NodeId a, NodeId b);
    void crashNode(NodeId id);
    void restoreNode(NodeId id);

    bool nodeUp(NodeId id) const;
    /// Link exists, is not cut, and both endpoints are up.
    bool linkUsable(NodeId a, NodeId b) const;

    /// Order-sensitive FNV-1a hash over every delivery and fault decision
    /// (kind, virtual time, message id, nodes). Two runs with the same
    /// seeds produce the same hash bit for bit.
    std::uint64_t traceHash() const { return traceHash_; }

private:
    struct Link {
        LinkProperties props;
        LinkStats stats;
    };
    using LinkKey = std::pair<NodeId, NodeId>;
    static LinkKey keyOf(NodeId a, NodeId b) {
        return a < b ? LinkKey{a, b} : LinkKey{b, a};
    }

    bool registered(NodeId id) const {
        return id >= 0 && std::size_t(id) < nodes_.size();
    }
    /// Early-exit Dijkstra behind nextHop's memo; reuses routeScratch_.
    NodeId shortestPathFirstHop(NodeId from, NodeId to) const;
    /// Forgets every memoized route; called by each topology mutator.
    void invalidateRoutes();
    void forward(Message msg, NodeId at);
    void deadLetter(const Message& msg, DeadLetterReason reason);
    const FaultProfile& profileFor(const LinkKey& key) const;
    /// Cuts every link crossing the island's boundary; returns them in
    /// cut order, for the partition's heal.
    std::vector<LinkKey> cutPartition(const std::vector<NodeId>& island);
    void traceEvent(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
                    std::uint64_t c);

    EventLoop* loop_;
    std::vector<Node*> nodes_;
    std::map<LinkKey, Link> links_;
    std::vector<std::vector<NodeId>> adjacency_; ///< indexed by NodeId
    std::uint64_t nextMessageId_ = 1;

    /// (from << 32 | to) -> first hop, for the pairs routed since the last
    /// topology change. Mutable, so const nextHop is no more safe to call
    /// concurrently than the rest of the (event-loop-only) network.
    mutable std::unordered_map<std::uint64_t, NodeId> routes_;
    /// Dijkstra working set, kept across misses so that a miss does not
    /// allocate once it has warmed up. `touched` lists the entries to
    /// reset after each run.
    struct RouteScratch {
        std::vector<double> dist;
        std::vector<NodeId> firstHop;
        std::vector<NodeId> touched;
        std::vector<std::pair<double, NodeId>> heap;
    };
    mutable RouteScratch routeScratch_;

    FaultPlan plan_;
    bool planActive_ = false;
    Rng faultRng_{0};
    FaultStats faultStats_;
    std::map<LinkKey, int> downLinks_; ///< counted: cuts + partitions nest
    std::map<NodeId, int> downNodes_;
    DeadLetterHandler deadLetterHandler_;
    std::uint64_t traceHash_ = 0xcbf29ce484222325ull; ///< FNV-1a offset
};

} // namespace cop::net
