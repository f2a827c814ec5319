#include "core/wire.hpp"

namespace cop::core {

BinaryWriter& detail::encodeScratch() {
    thread_local BinaryWriter scratch;
    return scratch;
}

void WorkloadRequestPayload::serialize(BinaryWriter& w) const {
    w.write(std::int32_t(worker));
    w.write(platform);
    w.write(std::int32_t(cores));
    w.write(std::uint64_t(executables.size()));
    for (const auto& e : executables) w.write(e);
    w.write(std::uint64_t(visited.size()));
    for (auto v : visited) w.write(std::int32_t(v));
}

WorkloadRequestPayload WorkloadRequestPayload::deserialize(BinaryReader& r) {
    WorkloadRequestPayload p;
    p.worker = r.read<std::int32_t>();
    p.platform = r.readString();
    p.cores = r.read<std::int32_t>();
    // Element counts validated against the remaining bytes (each string
    // costs at least its 8-byte length prefix) before any growth loop.
    const auto ne = r.readCount(8);
    for (std::uint64_t i = 0; i < ne; ++i)
        p.executables.push_back(r.readString());
    const auto nv = r.readCount(4);
    for (std::uint64_t i = 0; i < nv; ++i)
        p.visited.push_back(r.read<std::int32_t>());
    return p;
}

void WorkloadAssignPayload::serialize(BinaryWriter& w) const {
    w.write(std::uint64_t(commands.size()));
    for (const auto& c : commands) c.serialize(w);
}

WorkloadAssignPayload WorkloadAssignPayload::deserialize(BinaryReader& r) {
    WorkloadAssignPayload p;
    const auto n = r.readCount(8); // conservative CommandSpec lower bound
    for (std::uint64_t i = 0; i < n; ++i)
        p.commands.push_back(CommandSpec::deserialize(r));
    return p;
}

void HeartbeatPayload::serialize(BinaryWriter& w) const {
    w.write(std::int32_t(worker));
    w.write(std::uint64_t(running.size()));
    for (auto id : running) w.write(id);
    w.write(std::uint64_t(projectServers.size()));
    for (auto s : projectServers) w.write(std::int32_t(s));
}

HeartbeatPayload HeartbeatPayload::deserialize(BinaryReader& r) {
    HeartbeatPayload p;
    p.worker = r.read<std::int32_t>();
    const auto n = r.readCount(8);
    for (std::uint64_t i = 0; i < n; ++i)
        p.running.push_back(r.read<std::uint64_t>());
    const auto m = r.readCount(4);
    for (std::uint64_t i = 0; i < m; ++i)
        p.projectServers.push_back(r.read<std::int32_t>());
    return p;
}

void CheckpointPayload::serialize(BinaryWriter& w) const {
    w.write(commandId);
    w.write(projectId);
    w.write(std::int32_t(projectServer));
    w.writeBytes(blob);
}

CheckpointPayload CheckpointPayload::deserialize(BinaryReader& r) {
    CheckpointPayload p;
    p.commandId = r.read<std::uint64_t>();
    p.projectId = r.read<std::uint64_t>();
    p.projectServer = r.read<std::int32_t>();
    p.blob = r.readBytes();
    return p;
}

void WorkerFailedPayload::serialize(BinaryWriter& w) const {
    w.write(std::int32_t(worker));
    w.write(std::uint64_t(commands.size()));
    for (auto id : commands) w.write(id);
    w.write(std::uint64_t(checkpoints.size()));
    for (const auto& c : checkpoints) w.writeBytes(c);
}

WorkerFailedPayload WorkerFailedPayload::deserialize(BinaryReader& r) {
    WorkerFailedPayload p;
    p.worker = r.read<std::int32_t>();
    const auto n = r.readCount(8);
    for (std::uint64_t i = 0; i < n; ++i)
        p.commands.push_back(r.read<std::uint64_t>());
    const auto m = r.readCount(8);
    for (std::uint64_t i = 0; i < m; ++i)
        p.checkpoints.push_back(r.readBytes());
    return p;
}

void CommandOutputPayload::serialize(BinaryWriter& w) const {
    result.serialize(w);
    w.write(std::int32_t(projectServer));
}

CommandOutputPayload CommandOutputPayload::deserialize(BinaryReader& r) {
    CommandOutputPayload p;
    p.result = CommandResult::deserialize(r);
    p.projectServer = r.read<std::int32_t>();
    return p;
}

void NoWorkPayload::serialize(BinaryWriter& w) const {
    w.write(std::int32_t(worker));
    w.write(retryAfterSeconds);
}

NoWorkPayload NoWorkPayload::deserialize(BinaryReader& r) {
    NoWorkPayload p;
    p.worker = r.read<std::int32_t>();
    p.retryAfterSeconds = r.read<double>();
    if (!(p.retryAfterSeconds >= 0.0)) // also rejects NaN
        throw IoError("negative or NaN retry-after in NoWork payload");
    return p;
}

void ClientRequestPayload::serialize(BinaryWriter& w) const {
    w.write(projectId);
    w.write(command);
}

ClientRequestPayload ClientRequestPayload::deserialize(BinaryReader& r) {
    ClientRequestPayload p;
    p.projectId = r.read<std::uint64_t>();
    p.command = r.readString();
    return p;
}

void ClientResponsePayload::serialize(BinaryWriter& w) const {
    w.write(text);
    w.write(std::uint8_t(accepted ? 1 : 0));
    w.write(retryAfterSeconds);
}

ClientResponsePayload ClientResponsePayload::deserialize(BinaryReader& r) {
    ClientResponsePayload p;
    p.text = r.readString();
    p.accepted = r.read<std::uint8_t>() != 0;
    p.retryAfterSeconds = r.read<double>();
    if (!(p.retryAfterSeconds >= 0.0)) // also rejects NaN
        throw IoError("negative or NaN retry-after in ClientResponse payload");
    return p;
}

void HeartbeatSummaryPayload::serialize(BinaryWriter& w) const {
    w.write(std::int32_t(edge));
    w.write(std::uint64_t(workers.size()));
    for (auto id : workers) w.write(std::int32_t(id));
    w.write(std::uint64_t(counts.size()));
    for (auto c : counts) w.write(c);
    w.write(std::uint64_t(commands.size()));
    for (auto id : commands) w.write(id);
}

HeartbeatSummaryPayload HeartbeatSummaryPayload::deserialize(BinaryReader& r) {
    HeartbeatSummaryPayload p;
    p.edge = r.read<std::int32_t>();
    const auto nw = r.readCount(4);
    for (std::uint64_t i = 0; i < nw; ++i)
        p.workers.push_back(r.read<std::int32_t>());
    const auto nc = r.readCount(4);
    if (nc != nw)
        throw IoError("heartbeat summary: " + std::to_string(nw) +
                      " workers but " + std::to_string(nc) + " counts");
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < nc; ++i) {
        p.counts.push_back(r.read<std::uint32_t>());
        total += p.counts.back();
    }
    const auto nk = r.readCount(8);
    // The per-worker grouping must tile the flattened command list
    // exactly; a mismatch means a corrupt (or hostile) summary and the
    // whole digest is rejected rather than mis-attributed.
    if (total != nk)
        throw IoError("heartbeat summary: counts sum to " +
                      std::to_string(total) + " but " + std::to_string(nk) +
                      " commands present");
    for (std::uint64_t i = 0; i < nk; ++i)
        p.commands.push_back(r.read<std::uint64_t>());
    return p;
}

void BatchPayload::serialize(BinaryWriter& w) const {
    w.write(std::uint64_t(entries.size()));
    for (const auto& e : entries) {
        w.write(std::uint8_t(e.type));
        w.write(e.messageId);
        w.write(std::uint8_t(e.requireAck ? 1 : 0));
        w.writeBytes(e.payload);
    }
}

BatchPayload BatchPayload::deserialize(BinaryReader& r) {
    BatchPayload p;
    // Each entry costs at least its 18-byte header (type + id + ack flag
    // + payload length prefix), so a hostile count is rejected against the
    // remaining bytes before the growth loop runs.
    const auto n = r.readCount(18);
    p.entries.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        BatchEntry e;
        const auto tag = r.read<std::uint8_t>();
        if (!net::isMessageType(tag))
            throw IoError("batch entry with unknown message type " +
                          std::to_string(tag));
        e.type = net::MessageType(tag);
        if (e.type == net::MessageType::Batch)
            throw IoError("nested batch envelope rejected");
        e.messageId = r.read<std::uint64_t>();
        e.requireAck = r.read<std::uint8_t>() != 0;
        e.payload = r.readBytes();
        p.entries.push_back(std::move(e));
    }
    return p;
}

std::size_t BatchPayload::bulkPayloadBytes() const {
    std::size_t n = 0;
    for (const auto& e : entries)
        if (net::isBulkDataMessage(e.type)) n += e.payload.size();
    return n;
}

void AckPayload::serialize(BinaryWriter& w) const {
    w.write(ackedMessageId);
}

AckPayload AckPayload::deserialize(BinaryReader& r) {
    AckPayload p;
    p.ackedMessageId = r.read<std::uint64_t>();
    return p;
}

} // namespace cop::core
