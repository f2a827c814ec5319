#pragma once

/// \file wire.hpp
/// Wire formats of the framework-level message payloads exchanged between
/// workers, relay servers, project servers and clients. Every payload
/// struct declares its message type (`kType`) and a streaming
/// serialize/deserialize pair; the envelope layer (core/envelope.hpp) uses
/// these to give Server/Worker/Client a typed RPC surface instead of raw
/// byte blobs. The `encode`/`decode` convenience wrappers produce/consume
/// whole buffers.

#include <cstdint>
#include <string>
#include <vector>

#include "core/command.hpp"
#include "net/message.hpp"
#include "util/serialize.hpp"

namespace cop::core {

/// Worker capability announcement / workload request (paper §2.3). Also
/// carries the list of servers already visited so relaying cannot loop.
struct WorkloadRequestPayload {
    static constexpr net::MessageType kType = net::MessageType::WorkloadRequest;

    net::NodeId worker = net::kInvalidNode;
    std::string platform;
    int cores = 0;
    std::vector<std::string> executables;
    std::vector<net::NodeId> visited;

    void serialize(BinaryWriter& w) const;
    static WorkloadRequestPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static WorkloadRequestPayload decode(std::span<const std::uint8_t> data);
};

struct WorkloadAssignPayload {
    static constexpr net::MessageType kType = net::MessageType::WorkloadAssign;

    std::vector<CommandSpec> commands;

    void serialize(BinaryWriter& w) const;
    static WorkloadAssignPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static WorkloadAssignPayload decode(std::span<const std::uint8_t> data);
};

/// Heartbeat status: which commands this worker is running and where their
/// project servers live. Intentionally tiny (paper: < 200 bytes).
struct HeartbeatPayload {
    static constexpr net::MessageType kType = net::MessageType::Heartbeat;

    net::NodeId worker = net::kInvalidNode;
    std::vector<CommandId> running;
    std::vector<net::NodeId> projectServers; ///< parallel to `running`

    void serialize(BinaryWriter& w) const;
    static HeartbeatPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static HeartbeatPayload decode(std::span<const std::uint8_t> data);
};

/// Mid-run checkpoint streamed to the worker's closest server.
struct CheckpointPayload {
    static constexpr net::MessageType kType = net::MessageType::CheckpointData;

    CommandId commandId = 0;
    ProjectId projectId = 0;
    net::NodeId projectServer = net::kInvalidNode;
    SharedBytes blob; ///< shared with the cache / in-flight table (COW)

    void serialize(BinaryWriter& w) const;
    static CheckpointPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static CheckpointPayload decode(std::span<const std::uint8_t> data);
};

/// Failure signal from a worker's server to a project server, carrying the
/// newest cached checkpoints so commands restart from them (paper §2.3).
struct WorkerFailedPayload {
    static constexpr net::MessageType kType = net::MessageType::WorkerFailed;

    net::NodeId worker = net::kInvalidNode;
    std::vector<CommandId> commands;
    std::vector<SharedBytes> checkpoints; ///< may hold empties (shared, COW)

    void serialize(BinaryWriter& w) const;
    static WorkerFailedPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static WorkerFailedPayload decode(std::span<const std::uint8_t> data);
};

/// A finished (or failed — see result.success) command travelling from the
/// worker towards its project server, possibly relayed through other
/// servers. Carries the project server explicitly so any relay can route
/// it without side-channel state.
struct CommandOutputPayload {
    static constexpr net::MessageType kType = net::MessageType::CommandOutput;

    CommandResult result;
    net::NodeId projectServer = net::kInvalidNode;

    void serialize(BinaryWriter& w) const;
    static CommandOutputPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static CommandOutputPayload decode(std::span<const std::uint8_t> data);
};

/// Negative response to a workload request (no commands anywhere), or a
/// backpressure signal: retryAfterSeconds > 0 asks the worker to hold its
/// next poll at least that long (park queue full, admission pressure).
struct NoWorkPayload {
    static constexpr net::MessageType kType = net::MessageType::NoWorkAvailable;

    net::NodeId worker = net::kInvalidNode; ///< the requester being answered
    double retryAfterSeconds = 0.0; ///< 0 = poll at the worker's own backoff

    void serialize(BinaryWriter& w) const;
    static NoWorkPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static NoWorkPayload decode(std::span<const std::uint8_t> data);
};

/// Monitoring/control request from the command-line client (paper §2.4).
struct ClientRequestPayload {
    static constexpr net::MessageType kType = net::MessageType::ClientRequest;

    ProjectId projectId = 0;
    std::string command;

    void serialize(BinaryWriter& w) const;
    static ClientRequestPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static ClientRequestPayload decode(std::span<const std::uint8_t> data);
};

struct ClientResponsePayload {
    static constexpr net::MessageType kType = net::MessageType::ClientResponse;

    std::string text;
    /// False when the request was load-shed by admission control; the
    /// client should back off retryAfterSeconds before resubmitting.
    bool accepted = true;
    double retryAfterSeconds = 0.0;

    void serialize(BinaryWriter& w) const;
    static ClientResponsePayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static ClientResponsePayload decode(std::span<const std::uint8_t> data);
};

/// An edge server's aggregated heartbeat digest towards one project
/// server: instead of relaying a renewal per heartbeat, the edge
/// accumulates renewals across its workers and flushes one summary per
/// aggregation window (paper §2.3 pushed further: heartbeats are
/// *summarized*, never forwarded). `counts[i]` commands in the flattened
/// `commands` list belong to `workers[i]`; decode validates that the
/// counts sum to exactly `commands.size()`.
struct HeartbeatSummaryPayload {
    static constexpr net::MessageType kType =
        net::MessageType::HeartbeatSummary;

    net::NodeId edge = net::kInvalidNode; ///< aggregating edge server
    std::vector<net::NodeId> workers;
    std::vector<std::uint32_t> counts; ///< parallel to `workers`
    std::vector<CommandId> commands;   ///< flattened, grouped by worker

    void serialize(BinaryWriter& w) const;
    static HeartbeatSummaryPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static HeartbeatSummaryPayload decode(std::span<const std::uint8_t> data);
};

/// One coalesced sub-envelope inside a Batch frame: the fields of the
/// original Message that the receiver needs to replay it — type tag,
/// message id (dedup/retransmit identity is end-to-end and survives
/// batching), ack flag and payload bytes.
struct BatchEntry {
    net::MessageType type = net::MessageType::Heartbeat;
    std::uint64_t messageId = 0;
    bool requireAck = false;
    std::vector<std::uint8_t> payload;
};

/// N sub-envelopes sharing one wire frame (Nagle-style transmit
/// coalescing). The decode loop validates the entry count against the
/// remaining bytes before any allocation and rejects nested batches, so a
/// hostile count or recursion bomb fails with IoError up front.
struct BatchPayload {
    static constexpr net::MessageType kType = net::MessageType::Batch;

    std::vector<BatchEntry> entries;

    /// Payload bytes belonging to bulk sub-envelopes (checkpoint /
    /// trajectory data a shared filesystem carries out-of-band).
    std::size_t bulkPayloadBytes() const;

    void serialize(BinaryWriter& w) const;
    static BatchPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static BatchPayload decode(std::span<const std::uint8_t> data);
};

/// End-to-end delivery acknowledgement (envelope protocol).
struct AckPayload {
    static constexpr net::MessageType kType = net::MessageType::Ack;

    std::uint64_t ackedMessageId = 0;

    void serialize(BinaryWriter& w) const;
    static AckPayload deserialize(BinaryReader& r);
    std::vector<std::uint8_t> encode() const;
    std::size_t encodedSize() const; ///< exact wire size, for reserve()
    static AckPayload decode(std::span<const std::uint8_t> data);
};

} // namespace cop::core
