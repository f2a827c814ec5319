#include "core/plane_events.hpp"

#include "util/codec.hpp"
#include "util/error.hpp"

namespace cop::core::event {

namespace {

/// Checkpoint blobs dominate WAL volume, so they ride the log as codec
/// frames (util::encode). The Stored fallback caps the cost of an
/// incompressible blob at the 18-byte frame header; decode bounds the
/// inflation by kMaxBlobBytes before allocating.
void writeBlob(BinaryWriter& w, const SharedBytes& blob) {
    w.writeBytes(util::encode(blob).frame);
}

SharedBytes readBlob(BinaryReader& r) {
    return SharedBytes(util::decode(r.readBytes(), kMaxBlobBytes));
}

void writeIds(BinaryWriter& w, std::span<const CommandId> ids) {
    w.write(std::uint64_t(ids.size()));
    for (CommandId id : ids) w.write(std::uint64_t(id));
}

std::vector<CommandId> readIds(BinaryReader& r) {
    return r.readVector<std::uint64_t>();
}

net::NodeId readNode(BinaryReader& r) {
    return net::NodeId(r.read<std::int32_t>());
}

} // namespace

void TenantAdd::encode(BinaryWriter& w) const {
    w.write(std::uint64_t(project));
    config.serialize(w);
    w.write(name);
}

void Push::encode(BinaryWriter& w) const {
    w.write(std::uint64_t(tenant));
    w.write(std::uint8_t(force ? 1 : 0));
    spec.serialize(w);
}

void Claim::encode(BinaryWriter& w) const {
    w.write(std::int32_t(worker));
    w.write(std::int32_t(cores));
    w.write(*executables);
    w.write(expires);
    writeIds(w, ids);
}

void Complete::encode(BinaryWriter& w) const {
    w.write(std::uint64_t(command));
    w.write(std::uint64_t(project));
    w.write(std::uint8_t(success ? 1 : 0));
}

void Requeue::encode(BinaryWriter& w) const {
    w.write(std::uint64_t(command));
    w.write(std::uint8_t(reason));
}

void RequeueWorker::encode(BinaryWriter& w) const {
    w.write(std::int32_t(worker));
}

void Checkpoint::encode(BinaryWriter& w) const {
    w.write(std::uint64_t(command));
    writeBlob(w, blob);
}

void Park::encode(BinaryWriter& w) const { request.serialize(w); }

void ParkDrop::encode(BinaryWriter& w) const { w.write(std::int32_t(worker)); }

void ParkCursor::encode(BinaryWriter& w) const {
    w.write(cursor);
    w.write(std::uint64_t(workers.size()));
    for (net::NodeId worker : workers) w.write(std::int32_t(worker));
}

void Renew::encode(BinaryWriter& w) const {
    w.write(std::int32_t(worker));
    w.write(expires);
    writeIds(w, commands);
}

void WorkerSeen::encode(BinaryWriter& w) const {
    w.write(std::int32_t(worker));
    w.write(seen);
    w.write(std::uint8_t(heartbeat ? 1 : 0));
    if (heartbeat) heartbeat->serialize(w);
}

void WorkerGone::encode(BinaryWriter& w) const {
    w.write(std::int32_t(worker));
}

void CacheAdd::encode(BinaryWriter& w) const {
    w.write(std::uint64_t(command));
    w.write(std::uint64_t(project));
    w.write(std::int32_t(projectServer));
    writeBlob(w, blob);
}

void CacheDrop::encode(BinaryWriter& w) const {
    w.write(std::uint64_t(command));
}

namespace {

/// One arm per record type. Braced initializers evaluate left to right,
/// so each arm reads the fields in record order.
PlaneEvent decodeBody(WalRecordType type, BinaryReader& r) {
    switch (type) {
    case WalRecordType::TenantAdd: {
        TenantAdd e{ProjectId(r.read<std::uint64_t>()),
                    TenantConfig::deserialize(r), r.readString()};
        return e;
    }
    case WalRecordType::Push: {
        Push e{ProjectId(r.read<std::uint64_t>()), r.read<std::uint8_t>() != 0,
               CommandSpec::deserialize(r)};
        COP_IO_CHECK(e.spec.projectId == e.tenant,
                     "wal: push tenant mismatch");
        return e;
    }
    case WalRecordType::Claim: {
        Claim e{readNode(r), r.read<std::int32_t>()};
        const auto n = r.readCount(1);
        std::vector<std::string> executables;
        executables.reserve(std::size_t(n));
        for (std::uint64_t i = 0; i < n; ++i)
            executables.push_back(r.readString());
        e.decoded = std::make_unique<const std::vector<std::string>>(
            std::move(executables));
        e.executables = e.decoded.get();
        e.expires = r.read<double>();
        e.ids = readIds(r);
        e.logged = true;
        return e;
    }
    case WalRecordType::Complete:
        return Complete{r.read<std::uint64_t>(), r.read<std::uint64_t>(),
                        r.read<std::uint8_t>() != 0};
    case WalRecordType::Requeue: {
        const CommandId command = r.read<std::uint64_t>();
        const auto reason = r.read<std::uint8_t>();
        COP_IO_CHECK(reason <= std::uint8_t(RequeueReason::LeaseExpiry),
                     "wal: bad requeue reason");
        return Requeue{command, RequeueReason(reason)};
    }
    case WalRecordType::RequeueWorker: return RequeueWorker{readNode(r)};
    case WalRecordType::Checkpoint:
        return Checkpoint{r.read<std::uint64_t>(), readBlob(r)};
    case WalRecordType::Park:
        return Park{WorkloadRequestPayload::deserialize(r)};
    case WalRecordType::ParkDrop: return ParkDrop{readNode(r)};
    case WalRecordType::ParkCursor: {
        ParkCursor e{r.read<std::uint64_t>()};
        const auto n = r.readCount(4);
        e.workers.reserve(std::size_t(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            e.workers.push_back(readNode(r));
            COP_IO_CHECK(e.workers.back() != net::kInvalidNode,
                         "wal: park cursor names no worker");
        }
        return e;
    }
    case WalRecordType::Renew: {
        Renew e{readNode(r), r.read<double>()};
        e.decoded = readIds(r);
        e.commands = e.decoded;
        return e;
    }
    case WalRecordType::WorkerSeen: {
        WorkerSeen e{readNode(r), r.read<double>()};
        if (r.read<std::uint8_t>() != 0)
            e.heartbeat = HeartbeatPayload::deserialize(r);
        return e;
    }
    case WalRecordType::WorkerGone: return WorkerGone{readNode(r)};
    case WalRecordType::CacheAdd:
        return CacheAdd{r.read<std::uint64_t>(), r.read<std::uint64_t>(),
                        readNode(r), readBlob(r)};
    case WalRecordType::CacheDrop: return CacheDrop{r.read<std::uint64_t>()};
    }
    // Wal::parseLog rejects out-of-range tags; a caller that skipped it
    // lands here.
    throw IoError("wal: unknown record type");
}

} // namespace

PlaneEvent decode(WalRecordType type, std::span<const std::uint8_t> body) {
    BinaryReader r(body);
    PlaneEvent event = decodeBody(type, r);
    COP_IO_CHECK(r.atEnd(), "wal: trailing bytes in record");
    return event;
}

} // namespace cop::core::event
