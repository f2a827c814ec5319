#pragma once

/// \file plane_events.hpp
/// The server's control plane as a stream of typed events (DESIGN.md
/// "Durability & tiered storage"). Each WalRecordType is one event struct
/// whose encode() writes exactly the WAL record body, and one arm of the
/// free decode() reads it back. Server::apply() is the only code that
/// changes plane state: a live handler decides what happens and calls
/// Server::commit(event), which applies it and, when the WAL is on, logs
/// it; recovery decodes each logged record and applies it through the
/// same apply().
///
/// Live events borrow what the handler already holds (a request's
/// executables, a heartbeat's renewal ids) instead of copying it; decoded
/// events own that data in their `decoded` member.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/command.hpp"
#include "core/scheduler.hpp"
#include "core/shared_bytes.hpp"
#include "core/wal.hpp"
#include "core/wire.hpp"
#include "util/serialize.hpp"

namespace cop::core::event {

/// A project joins the scheduling plane.
struct TenantAdd {
    static constexpr WalRecordType kType = WalRecordType::TenantAdd;
    ProjectId project = 0;
    TenantConfig config{};
    std::string name{}; ///< provenance only (projects are application state)
    void encode(BinaryWriter& w) const;
};

/// A submission. Logged even when admission rejects it: apply() re-runs
/// admission against the same state and burns the same command id.
struct Push {
    static constexpr WalRecordType kType = WalRecordType::Push;
    ProjectId tenant = 0;
    bool force = false; ///< plain submits bypass admission
    CommandSpec spec{}; ///< input inline; apply() moves it into the vault
    void encode(BinaryWriter& w) const;
};

/// A workload claim, logged by its inputs plus its outcome: apply() re-runs
/// the real DRR claim, which reproduces every deficit/cursor/ring
/// transition, even for claims that assign nothing.
struct Claim {
    static constexpr WalRecordType kType = WalRecordType::Claim;
    net::NodeId worker = net::kInvalidNode;
    int cores = 0;
    const std::vector<std::string>* executables = nullptr;
    double expires = 0.0; ///< lease deadline of every granted command
    /// The ids the claim granted. apply() fills them on the live path; a
    /// decoded claim carries the logged ids (`logged`), and apply() fails
    /// recovery if the re-run claim diverges from them.
    std::vector<CommandId> ids{};
    bool logged = false;
    std::unique_ptr<const std::vector<std::string>> decoded{};
    void encode(BinaryWriter& w) const;
};

/// A command's result reached its project server.
struct Complete {
    static constexpr WalRecordType kType = WalRecordType::Complete;
    CommandId command = 0;
    ProjectId project = 0;
    bool success = false;
    void encode(BinaryWriter& w) const;
};

enum class RequeueReason : std::uint8_t {
    DeliveryFailure = 0,
    LeaseExpiry = 1,
};

/// One in-flight command goes back on its queue.
struct Requeue {
    static constexpr WalRecordType kType = WalRecordType::Requeue;
    CommandId command = 0;
    RequeueReason reason = RequeueReason::DeliveryFailure;
    void encode(BinaryWriter& w) const;
};

/// Everything a worker held goes back on the queues (a WorkerFailed
/// signal from the worker's closest server).
struct RequeueWorker {
    static constexpr WalRecordType kType = WalRecordType::RequeueWorker;
    net::NodeId worker = net::kInvalidNode;
    void encode(BinaryWriter& w) const;
};

/// A checkpoint for a command this server hosts. The blob rides the log
/// as a codec frame.
struct Checkpoint {
    static constexpr WalRecordType kType = WalRecordType::Checkpoint;
    CommandId command = 0;
    SharedBytes blob{};
    void encode(BinaryWriter& w) const;
};

/// An unsatisfiable workload request takes (or refreshes) its worker's
/// long-poll slot.
struct Park {
    static constexpr WalRecordType kType = WalRecordType::Park;
    WorkloadRequestPayload request{};
    void encode(BinaryWriter& w) const;
};

/// A dead worker's long-poll slot is discarded.
struct ParkDrop {
    static constexpr WalRecordType kType = WalRecordType::ParkDrop;
    net::NodeId worker = net::kInvalidNode;
    void encode(BinaryWriter& w) const;
};

/// The outcome of one pass over the park slots: the surviving slots, by
/// worker, in their new order, and the next pass's start offset.
struct ParkCursor {
    static constexpr WalRecordType kType = WalRecordType::ParkCursor;
    std::uint64_t cursor = 0;
    std::vector<net::NodeId> workers{};
    void encode(BinaryWriter& w) const;
};

/// Lease renewals of one worker's commands.
struct Renew {
    static constexpr WalRecordType kType = WalRecordType::Renew;
    net::NodeId worker = net::kInvalidNode;
    double expires = 0.0;
    std::span<const CommandId> commands{};
    std::vector<CommandId> decoded{};
    void encode(BinaryWriter& w) const;
};

/// Worker liveness: a direct workload request (time only) or a heartbeat
/// (time plus the running-command report failure handoff needs).
struct WorkerSeen {
    static constexpr WalRecordType kType = WalRecordType::WorkerSeen;
    net::NodeId worker = net::kInvalidNode;
    double seen = 0.0;
    std::optional<HeartbeatPayload> heartbeat{};
    void encode(BinaryWriter& w) const;
};

/// The liveness sweep declared a worker dead.
struct WorkerGone {
    static constexpr WalRecordType kType = WalRecordType::WorkerGone;
    net::NodeId worker = net::kInvalidNode;
    void encode(BinaryWriter& w) const;
};

/// A checkpoint cached for a remote project's command.
struct CacheAdd {
    static constexpr WalRecordType kType = WalRecordType::CacheAdd;
    CommandId command = 0;
    ProjectId project = 0;
    net::NodeId projectServer = net::kInvalidNode;
    SharedBytes blob{};
    void encode(BinaryWriter& w) const;
};

/// A cached checkpoint is dropped: its command finished.
struct CacheDrop {
    static constexpr WalRecordType kType = WalRecordType::CacheDrop;
    CommandId command = 0;
    void encode(BinaryWriter& w) const;
};

/// One alternative per WalRecordType, in tag order.
using PlaneEvent =
    std::variant<TenantAdd, Push, Claim, Complete, Requeue, RequeueWorker,
                 Checkpoint, Park, ParkDrop, ParkCursor, Renew, WorkerSeen,
                 WorkerGone, CacheAdd, CacheDrop>;

/// Decodes one WAL record body. The bytes are untrusted: every length is
/// checked before it allocates, enum bytes and weights are range-checked,
/// blobs are capped, and trailing bytes are rejected, all with IoError.
/// Checks that need plane state (unknown tenant, claim divergence) stay in
/// Server::apply().
PlaneEvent decode(WalRecordType type, std::span<const std::uint8_t> body);

} // namespace cop::core::event
