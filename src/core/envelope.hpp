#pragma once

/// \file envelope.hpp
/// Typed RPC layer over the overlay network. An Endpoint owns a node's
/// message handling: outgoing payload structs are serialized and tagged
/// with their message type in one place, incoming messages are decoded
/// into a variant (`AnyPayload`) and dispatched as an Envelope, and the
/// reliability machinery — end-to-end acks, capped-exponential-backoff
/// retransmits with seeded jitter, duplicate suppression by message id —
/// lives entirely below the application protocol. Server, Worker and
/// Client speak typed payloads; none of them touch raw byte vectors.
///
/// Retransmits reuse the original message id, so the receiver's dedup
/// window makes redelivery idempotent; acks are sent for every copy of an
/// ack-requiring message (the previous ack may itself have been lost).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_set>
#include <variant>
#include <vector>

#include "core/wire.hpp"
#include "net/overlay.hpp"
#include "util/random.hpp"

namespace cop::core::wire {

/// Every framework payload that can cross the overlay.
using AnyPayload =
    std::variant<WorkloadRequestPayload, WorkloadAssignPayload,
                 HeartbeatPayload, CheckpointPayload, CommandOutputPayload,
                 WorkerFailedPayload, NoWorkPayload,
                 ClientRequestPayload, ClientResponsePayload,
                 HeartbeatSummaryPayload, AckPayload, BatchPayload>;

/// A decoded incoming message.
struct Envelope {
    net::NodeId from = net::kInvalidNode;
    std::uint64_t messageId = 0;
    net::MessageType type = net::MessageType::Heartbeat;
    AnyPayload payload;
};

/// Decodes a raw message's payload by its type tag; nullopt when the type
/// is unknown or the bytes do not parse.
std::optional<AnyPayload> decodePayload(const net::Message& msg);

/// Nagle-style transmit coalescing: outgoing envelopes are queued per
/// destination and flushed as one Batch frame when the queue crosses a
/// count/size threshold or a short timer fires. Acks (and any other
/// control payload queued in the same window — heartbeats, summaries)
/// piggyback on the next flush instead of paying their own frame; a lone
/// ack is flushed in the same event-loop tick it was generated, so
/// sparse-load ack latency is unchanged.
struct BatchPolicy {
    bool enabled = true;
    std::size_t maxEnvelopes = 16;  ///< flush when this many are queued
    std::size_t maxBytes = 16384;   ///< flush when payload bytes exceed this
    double flushDelay = 0.02;       ///< seconds a queued envelope may wait
};

struct EndpointStats {
    std::uint64_t sent = 0;              ///< distinct messages sent
    std::uint64_t acksSent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t duplicatesDropped = 0; ///< redeliveries suppressed
    std::uint64_t deliveriesFailed = 0;  ///< gave up retransmitting
    /// Malformed envelopes dropped: payload failed to parse (truncated,
    /// corrupt length prefix) or carried trailing garbage past the
    /// decoded payload. Never silently delivered.
    std::uint64_t malformedDropped = 0;
    // --- Transmit coalescing ---------------------------------------------
    std::uint64_t batchesSent = 0;       ///< Batch frames put on the wire
    std::uint64_t envelopesBatched = 0;  ///< sub-envelopes riding batches
    std::uint64_t singletonsSent = 0;    ///< flushes with one queued envelope
    std::uint64_t acksPiggybacked = 0;   ///< acks that rode a data batch
    /// Flush-trigger breakdown.
    std::uint64_t flushOnCount = 0;
    std::uint64_t flushOnBytes = 0;
    std::uint64_t flushOnTimer = 0;
    std::uint64_t flushOnAckTimer = 0;
};

/// The typed, reliable endpoint attached to one overlay node. Installs
/// itself as the node's message handler.
class Endpoint {
public:
    using Handler = std::function<void(const Envelope&, const net::Message&)>;
    using FailureHandler = std::function<void(const net::Message&)>;

    Endpoint(net::OverlayNetwork& net, net::Node& node,
             BatchPolicy batch = {});

    /// Registers the application dispatch for decoded envelopes.
    void onEnvelope(Handler handler) { handler_ = std::move(handler); }
    /// Called when a reliable send exhausts its attempts; receives the
    /// undelivered message (same id and payload as originally sent).
    void onDeliveryFailure(FailureHandler handler) {
        failureHandler_ = std::move(handler);
    }

    /// Sends a typed payload. Reliable sends request an end-to-end ack and
    /// retransmit with capped exponential backoff until acked, giving up
    /// after a fixed number of transmissions.
    /// Returns the message id (0 if the endpoint is shut down).
    template <typename T>
    std::uint64_t send(net::NodeId to, const T& payload, bool reliable = true) {
        return sendRaw(T::kType, to, payload.encode(), reliable);
    }

    std::uint64_t sendRaw(net::MessageType type, net::NodeId to,
                          std::vector<std::uint8_t> payload, bool reliable);

    /// Re-targets an undelivered message (from onDeliveryFailure) to a new
    /// destination under a fresh id, reliably. Used for server failover.
    std::uint64_t resend(const net::Message& failed, net::NodeId newDestination);

    /// Crash semantics: stop receiving, sending and retrying. Pending
    /// retransmit and flush timers are cancelled; queued envelopes die
    /// with the node.
    void shutdown();

    /// Crash-and-restart semantics: drops every retransmit entry, queued
    /// envelope and the dedup window (all volatile state a process loses),
    /// then brings the endpoint back up. Cumulative stats_ survive — the
    /// restarted process still reports lifetime counters in tests.
    void reset();

    /// Observer called with (sim-seconds between first transmission and
    /// its ack) for every acked reliable send. Benches/tests use it for
    /// ack-latency percentiles.
    void onAckLatency(std::function<void(double)> observer) {
        ackLatencyObserver_ = std::move(observer);
    }

    /// Flushes every per-destination transmit queue immediately (e.g. at
    /// the end of a drive loop). No-op when batching is disabled.
    void flushAll();

    const EndpointStats& stats() const { return stats_; }
    const BatchPolicy& batchPolicy() const { return batch_; }
    net::NodeId id() const;

private:
    struct Pending {
        net::Message msg;
        int attempt = 1; ///< transmissions so far
        net::EventLoop::TimerId timer = 0;
        double firstSentAt = 0.0; ///< for the ack-latency observer
    };

    /// Per-destination transmit queue (one per overlay "link" this
    /// endpoint talks over; routing below may still multiplex hops).
    struct TxQueue {
        std::vector<BatchEntry> entries;
        std::size_t payloadBytes = 0;
        net::EventLoop::TimerId timer = 0;
        double deadline = 0.0; ///< absolute flush time while timer != 0
    };

    enum class FlushReason { Count, Bytes, Timer, AckTimer };

    void receive(const net::Message& msg);
    void receiveBatch(const net::Message& msg);
    void armRetry(std::uint64_t id);
    void onRetryTimer(std::uint64_t id);
    bool seen(std::uint64_t id) const { return seenSet_.count(id) > 0; }
    void rememberSeen(std::uint64_t id);

    /// Queues an already-id-stamped message for its destination and
    /// applies the flush policy (threshold flush or timer arm).
    void enqueue(net::Message msg, bool isAck);
    void flush(net::NodeId dest, FlushReason reason);

    net::OverlayNetwork* net_;
    net::Node* node_;
    BatchPolicy batch_;
    Rng rng_;
    Handler handler_;
    FailureHandler failureHandler_;
    std::function<void(double)> ackLatencyObserver_;
    std::map<std::uint64_t, Pending> pending_;
    std::map<net::NodeId, TxQueue> queues_;
    std::unordered_set<std::uint64_t> seenSet_;
    std::deque<std::uint64_t> seenOrder_; ///< bounds the dedup window
    EndpointStats stats_;
    bool down_ = false;
};

} // namespace cop::core::wire
