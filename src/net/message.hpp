#pragma once

/// \file message.hpp
/// Typed messages exchanged over the overlay network. Payloads are opaque
/// byte blobs (serialized with util/serialize.hpp); `wireSize` drives the
/// link bandwidth model and the Fig. 9 traffic accounting.

#include <cstdint>
#include <string>
#include <vector>

namespace cop::net {

using NodeId = int;
inline constexpr NodeId kInvalidNode = -1;

/// Wire tags are explicit and never reused: 0, 5, 8 and 13 belonged to
/// message types that are gone, and a frame carrying one is malformed.
enum class MessageType : std::uint8_t {
    // Worker <-> server (paper §2.3)
    WorkloadRequest = 1, ///< forwarded towards the first server with commands
    WorkloadAssign = 2,  ///< commands + input data for a worker
    Heartbeat = 3,       ///< worker status; never forwarded past first server
    CommandOutput = 4,   ///< finished or failed command results
    CheckpointData = 6,  ///< mid-run checkpoint cached by the worker's server
    WorkerFailed = 7,    ///< failure signal from a worker's server (§2.3)
    // Server <-> server
    NoWorkAvailable = 9, ///< negative response to a workload request
                         ///  (may carry an admission retry-after hint)
    // Client <-> server
    ClientRequest = 10,  ///< monitoring/control from the command line client
    ClientResponse = 11,
    // Wire-layer control (envelope protocol)
    Ack = 12,            ///< end-to-end delivery acknowledgement
    Batch = 14,          ///< coalesced sub-envelopes sharing one frame
    HeartbeatSummary = 15, ///< edge server's aggregated lease renewals
                           ///  (§2.3: heartbeats are summarized, never
                           ///  forwarded)
};

/// True if `tag` is the wire tag of a MessageType enumerator.
bool isMessageType(std::uint8_t tag);

const char* messageTypeName(MessageType t);

/// True for message types whose payload is bulk simulation data that a
/// shared filesystem can carry out-of-band (paper §2: "Copernicus can
/// detect and take advantage of shared file systems to reduce
/// communication").
bool isBulkDataMessage(MessageType t);

struct Message {
    MessageType type = MessageType::Heartbeat;
    NodeId source = kInvalidNode;      ///< originating node
    NodeId destination = kInvalidNode; ///< final destination node
    std::uint64_t id = 0;              ///< unique per network
    bool requireAck = false;           ///< sender retransmits until acked
    std::vector<std::uint8_t> payload;
    /// For Batch messages: number of coalesced sub-envelopes (0 for
    /// singletons). Link stats use it to attribute batched vs singleton
    /// envelopes without decoding payloads.
    std::uint32_t batchCount = 0;
    /// For Batch messages: payload bytes belonging to bulk sub-envelopes,
    /// which a shared-filesystem link carries out-of-band. Singleton bulk
    /// messages are recognized by type instead (see isBulkDataMessage).
    std::size_t bulkBytes = 0;

    /// Bytes on the wire: payload plus a fixed framing overhead (SSL
    /// record + headers; the paper quotes heartbeats at < 200 bytes total).
    std::size_t wireSize() const { return payload.size() + 96; }
};

} // namespace cop::net
