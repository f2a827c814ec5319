#include "core/envelope.hpp"

#include <exception>
#include <utility>

#include "net/backoff.hpp"

namespace cop::core::wire {

namespace {

constexpr std::size_t kDedupWindow = 8192;

/// Retransmit schedule of a reliable send: capped exponential backoff
/// with seeded jitter, giving up after kMaxAttempts transmissions.
constexpr net::BackoffPolicy kRetryBackoff{10.0, 2.0, 120.0, 0.2};
constexpr int kMaxAttempts = 6;

/// Nagle deadline of a queued ack, the standalone-ack latency bound: a
/// lone ack flushes in the tick it was generated, pulling any data queued
/// for the same destination forward with it.
constexpr double kAckFlushDelay = 0.0;

} // namespace

std::optional<AnyPayload> decodePayload(const net::Message& msg) {
    using net::MessageType;
    try {
        switch (msg.type) {
        case MessageType::WorkloadRequest:
            return WorkloadRequestPayload::decode(msg.payload);
        case MessageType::WorkloadAssign:
            return WorkloadAssignPayload::decode(msg.payload);
        case MessageType::Heartbeat:
            return HeartbeatPayload::decode(msg.payload);
        case MessageType::CheckpointData:
            return CheckpointPayload::decode(msg.payload);
        case MessageType::CommandOutput:
            return CommandOutputPayload::decode(msg.payload);
        case MessageType::WorkerFailed:
            return WorkerFailedPayload::decode(msg.payload);
        case MessageType::NoWorkAvailable:
            return NoWorkPayload::decode(msg.payload);
        case MessageType::ClientRequest:
            return ClientRequestPayload::decode(msg.payload);
        case MessageType::ClientResponse:
            return ClientResponsePayload::decode(msg.payload);
        case MessageType::HeartbeatSummary:
            return HeartbeatSummaryPayload::decode(msg.payload);
        case MessageType::Ack:
            return AckPayload::decode(msg.payload);
        case MessageType::Batch:
            return BatchPayload::decode(msg.payload);
        }
    } catch (const std::exception&) {
        return std::nullopt; // truncated or corrupt payload
    }
    return std::nullopt;
}

Endpoint::Endpoint(net::OverlayNetwork& net, net::Node& node,
                   BatchPolicy batch)
    : net_(&net), node_(&node), batch_(batch),
      rng_(node.keys().publicKey) {
    node_->setHandler([this](const net::Message& msg) { receive(msg); });
}

net::NodeId Endpoint::id() const { return node_->id(); }

std::uint64_t Endpoint::sendRaw(net::MessageType type, net::NodeId to,
                                std::vector<std::uint8_t> payload,
                                bool reliable) {
    if (down_) return 0;
    net::Message msg;
    msg.type = type;
    msg.source = node_->id();
    msg.destination = to;
    msg.id = net_->nextMessageId();
    msg.requireAck = reliable;
    msg.payload = std::move(payload);
    ++stats_.sent;
    const std::uint64_t id = msg.id;
    if (reliable)
        pending_.emplace(id,
                         Pending{msg, 1, 0, net_->loop().now()});
    if (batch_.enabled)
        enqueue(std::move(msg), /*isAck=*/false);
    else
        net_->send(std::move(msg));
    if (reliable) armRetry(id);
    return id;
}

std::uint64_t Endpoint::resend(const net::Message& failed,
                               net::NodeId newDestination) {
    if (down_) return 0;
    net::Message msg = failed;
    msg.source = node_->id();
    msg.destination = newDestination;
    msg.id = net_->nextMessageId();
    msg.requireAck = true;
    ++stats_.sent;
    const std::uint64_t id = msg.id;
    pending_.emplace(id, Pending{msg, 1, 0, net_->loop().now()});
    if (batch_.enabled)
        enqueue(std::move(msg), /*isAck=*/false);
    else
        net_->send(std::move(msg));
    armRetry(id);
    return id;
}

void Endpoint::enqueue(net::Message msg, bool isAck) {
    const net::NodeId dest = msg.destination;
    TxQueue& q = queues_[dest];
    BatchEntry entry;
    entry.type = msg.type;
    entry.messageId = msg.id;
    entry.requireAck = msg.requireAck;
    entry.payload = std::move(msg.payload);
    q.payloadBytes += entry.payload.size();
    q.entries.push_back(std::move(entry));
    if (q.entries.size() >= batch_.maxEnvelopes) {
        flush(dest, FlushReason::Count);
        return;
    }
    if (q.payloadBytes >= batch_.maxBytes) {
        flush(dest, FlushReason::Bytes);
        return;
    }
    // Arm (or tighten) the Nagle timer. Acks use the shorter ack deadline;
    // a data envelope never loosens a pending deadline.
    const double delay = isAck ? kAckFlushDelay : batch_.flushDelay;
    const double deadline = net_->loop().now() + delay;
    if (q.timer != 0) {
        if (deadline >= q.deadline) return;
        net_->loop().cancelTimer(q.timer);
    }
    q.deadline = deadline;
    const FlushReason reason =
        isAck ? FlushReason::AckTimer : FlushReason::Timer;
    q.timer = net_->loop().scheduleTimer(delay, [this, dest, reason] {
        auto it = queues_.find(dest);
        if (it != queues_.end()) it->second.timer = 0;
        flush(dest, reason);
    });
}

void Endpoint::flush(net::NodeId dest, FlushReason reason) {
    if (down_) return;
    auto it = queues_.find(dest);
    if (it == queues_.end()) return;
    TxQueue& q = it->second;
    if (q.timer != 0) {
        net_->loop().cancelTimer(q.timer);
        q.timer = 0;
    }
    if (q.entries.empty()) return;
    switch (reason) {
    case FlushReason::Count: ++stats_.flushOnCount; break;
    case FlushReason::Bytes: ++stats_.flushOnBytes; break;
    case FlushReason::Timer: ++stats_.flushOnTimer; break;
    case FlushReason::AckTimer: ++stats_.flushOnAckTimer; break;
    }
    std::vector<BatchEntry> entries = std::move(q.entries);
    q.entries.clear();
    q.payloadBytes = 0;

    if (entries.size() == 1) {
        // Nothing to coalesce with: send the lone envelope as itself, so
        // sparse traffic keeps its exact unbatched wire shape.
        ++stats_.singletonsSent;
        BatchEntry e = std::move(entries.front());
        net::Message msg;
        msg.type = e.type;
        msg.source = node_->id();
        msg.destination = dest;
        msg.id = e.messageId;
        msg.requireAck = e.requireAck;
        msg.payload = std::move(e.payload);
        net_->send(std::move(msg));
        return;
    }

    BatchPayload payload;
    payload.entries = std::move(entries);
    ++stats_.batchesSent;
    stats_.envelopesBatched += payload.entries.size();
    for (const auto& e : payload.entries)
        if (e.type == net::MessageType::Ack) ++stats_.acksPiggybacked;
    net::Message msg;
    msg.type = net::MessageType::Batch;
    msg.source = node_->id();
    msg.destination = dest;
    msg.id = net_->nextMessageId();
    msg.requireAck = false; // reliability stays end-to-end per sub-envelope
    msg.batchCount = std::uint32_t(payload.entries.size());
    msg.bulkBytes = payload.bulkPayloadBytes();
    msg.payload = payload.encode();
    net_->send(std::move(msg));
}

void Endpoint::flushAll() {
    if (down_ || !batch_.enabled) return;
    for (auto& [dest, q] : queues_) {
        (void)q;
        flush(dest, FlushReason::Timer);
    }
}

void Endpoint::armRetry(std::uint64_t id) {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    const double delay = kRetryBackoff.delay(it->second.attempt - 1, rng_);
    it->second.timer =
        net_->loop().scheduleTimer(delay, [this, id] { onRetryTimer(id); });
}

void Endpoint::onRetryTimer(std::uint64_t id) {
    auto it = pending_.find(id);
    if (it == pending_.end() || down_) return;
    Pending& p = it->second;
    p.timer = 0;
    if (p.attempt >= kMaxAttempts) {
        ++stats_.deliveriesFailed;
        net::Message failed = std::move(p.msg);
        pending_.erase(it);
        if (failureHandler_) failureHandler_(failed);
        return;
    }
    ++p.attempt;
    ++stats_.retransmits;
    net_->send(p.msg); // same message id: receiver dedups redeliveries
    armRetry(id);
}

void Endpoint::receive(const net::Message& msg) {
    if (down_) return;
    if (msg.type == net::MessageType::Batch) {
        receiveBatch(msg);
        return;
    }
    if (msg.type == net::MessageType::Ack) {
        const auto decoded = decodePayload(msg);
        if (!decoded) {
            ++stats_.malformedDropped;
            return;
        }
        const auto& ack = std::get<AckPayload>(*decoded);
        auto it = pending_.find(ack.ackedMessageId);
        if (it != pending_.end()) {
            if (ackLatencyObserver_)
                ackLatencyObserver_(net_->loop().now() -
                                    it->second.firstSentAt);
            if (it->second.timer != 0)
                net_->loop().cancelTimer(it->second.timer);
            pending_.erase(it);
        }
        return;
    }
    if (msg.requireAck) {
        // Ack every copy: the ack for an earlier copy may have been lost.
        AckPayload ack;
        ack.ackedMessageId = msg.id;
        ++stats_.acksSent;
        net::Message reply;
        reply.type = net::MessageType::Ack;
        reply.source = node_->id();
        reply.destination = msg.source;
        reply.id = net_->nextMessageId();
        reply.payload = ack.encode();
        // Piggyback the ack on whatever else is (or is about to be)
        // heading back to the sender; the ack-flush deadline bounds how
        // long it may wait for company.
        if (batch_.enabled)
            enqueue(std::move(reply), /*isAck=*/true);
        else
            net_->send(std::move(reply));
    }
    if (seen(msg.id)) {
        ++stats_.duplicatesDropped;
        return;
    }
    rememberSeen(msg.id);
    const auto decoded = decodePayload(msg);
    if (!decoded) {
        ++stats_.malformedDropped;
        return;
    }
    if (!handler_) return;
    Envelope env;
    env.from = msg.source;
    env.messageId = msg.id;
    env.type = msg.type;
    env.payload = *decoded;
    handler_(env, msg);
}

void Endpoint::receiveBatch(const net::Message& msg) {
    const auto decoded = decodePayload(msg);
    if (!decoded) {
        // One malformed frame, one count: sub-envelopes of a corrupt batch
        // are indistinguishable from garbage and are dropped wholesale.
        ++stats_.malformedDropped;
        return;
    }
    const auto& batchPayload = std::get<BatchPayload>(*decoded);
    // Replay each sub-envelope through the normal receive path: acks,
    // per-id dedup and malformed counting behave exactly as if the
    // envelopes had arrived as singletons. Nested batches cannot occur
    // (the decoder rejects them), so this cannot recurse.
    for (const auto& e : batchPayload.entries) {
        net::Message sub;
        sub.type = e.type;
        sub.source = msg.source;
        sub.destination = node_->id();
        sub.id = e.messageId;
        sub.requireAck = e.requireAck;
        sub.payload = e.payload;
        receive(sub);
        if (down_) return; // a handler may have shut us down mid-batch
    }
}

void Endpoint::rememberSeen(std::uint64_t id) {
    seenSet_.insert(id);
    seenOrder_.push_back(id);
    while (seenOrder_.size() > kDedupWindow) {
        seenSet_.erase(seenOrder_.front());
        seenOrder_.pop_front();
    }
}

void Endpoint::shutdown() {
    down_ = true;
    for (auto& [id, p] : pending_) {
        if (p.timer != 0) net_->loop().cancelTimer(p.timer);
    }
    pending_.clear();
    // Crash semantics: queued-but-unflushed envelopes die with the node,
    // and their flush timers must never fire into freed state.
    for (auto& [dest, q] : queues_) {
        if (q.timer != 0) net_->loop().cancelTimer(q.timer);
    }
    queues_.clear();
}

void Endpoint::reset() {
    shutdown();
    seenSet_.clear();
    seenOrder_.clear();
    down_ = false;
}

} // namespace cop::core::wire
