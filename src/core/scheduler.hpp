#pragma once

/// \file scheduler.hpp
/// Multi-tenant sharded scheduling plane (see DESIGN.md "Multi-tenant
/// scheduling plane"). Each hosted project ("tenant") owns a private
/// CommandQueue shard — the PR 4 indexed buckets — so one project's
/// backlog can never inflate another's claim scans. Across shards, worker
/// core offers are divided by weighted deficit-round-robin: every tenant
/// carries a deficit counter topped up in proportion to its fair-share
/// weight each service round, and a shard may claim commands only while
/// their core cost fits its deficit. A tenant whose shard drains forfeits
/// its deficit (classic DRR), so idle tenants cannot bank credit and
/// backlogged tenants converge to weight-proportional core shares.
///
/// When exactly one tenant has matching work the DRR machinery is bypassed
/// and the shard is offered the full core budget — observably identical to
/// the pre-shard single-queue scheduler (and the reason the single-tenant
/// macro_overlay numbers carry over unchanged).
///
/// Admission control: each tenant may cap its pending depth (commands and
/// payload bytes). A push over quota is rejected with a suggested
/// retry-after; requeues of in-flight work always bypass admission
/// (recovery must never be load-shed).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/queue.hpp"

namespace cop::core {

/// Per-tenant scheduling contract, fixed at project creation.
struct TenantConfig {
    /// Fair-share weight: backlogged tenants receive worker cores in
    /// proportion to their weights (deficit-round-robin).
    double weight = 1.0;
    /// Admission quota: maximum pending (not in-flight) commands before
    /// new submissions are rejected. 0 = unlimited.
    std::size_t maxPendingCommands = 0;
    /// Admission quota: maximum pending payload bytes. 0 = unlimited.
    std::size_t maxPendingBytes = 0;
    /// Suggested client/controller backoff when a submission is rejected.
    double admissionRetryAfter = 30.0;

    /// The one wire form, shared by the WAL's TenantAdd record and the
    /// scheduler snapshot. A reserved byte after the weight, once a claim
    /// policy, is always 0. deserialize() treats the stream as untrusted:
    /// a nonzero reserved byte, a weight that is not positive, or a
    /// negative or NaN retry-after throws IoError.
    void serialize(BinaryWriter& w) const;
    static TenantConfig deserialize(BinaryReader& r);
};

/// Outcome of an admission-controlled push.
struct AdmissionDecision {
    bool admitted = true;
    double retryAfter = 0.0; ///< seconds; meaningful when !admitted
};

/// Per-tenant scheduling counters (exposed via Server::metricsSnapshot).
struct TenantCounters {
    std::uint64_t pushes = 0;
    std::uint64_t admissionRejections = 0;
    std::uint64_t commandsClaimed = 0;
    std::uint64_t coresGranted = 0;   ///< preferredCores summed over claims
    std::uint64_t commandsRequeued = 0;
    std::size_t pendingPeak = 0;      ///< high-water pending depth
    std::size_t pendingBytesPeak = 0; ///< high-water pending payload bytes
};

class ShardedScheduler {
public:
    /// Every shard queue parks its command inputs in `store`, which must
    /// outlive the scheduler.
    explicit ShardedScheduler(SegmentStore& store) : store_(&store) {}

    /// Registers a tenant with its scheduling contract. Weights must be
    /// positive; a duplicate id is a programming error.
    void addTenant(ProjectId id, TenantConfig config);
    bool hasTenant(ProjectId id) const { return shards_.count(id) > 0; }
    const TenantConfig& tenantConfig(ProjectId id) const;

    /// Checks a submission against the tenant's admission quotas without
    /// queueing anything.
    AdmissionDecision admit(ProjectId tenant, const CommandSpec& cmd) const;

    /// Queues a command on its tenant's shard. With force=false the
    /// admission quotas apply and a rejected command is NOT queued; with
    /// force=true (requeues, trusted controller paths) admission is
    /// bypassed. cmd.projectId must equal `tenant`.
    AdmissionDecision push(ProjectId tenant, CommandSpec cmd,
                           bool force = false);

    /// True if any shard has pending work for one of the executables.
    bool hasWorkFor(const std::vector<std::string>& executables) const;

    /// Claims up to maxCores worth of commands across tenants under
    /// weighted DRR.
    std::vector<CommandSpec> claim(const std::vector<std::string>& executables,
                                   int maxCores, net::NodeId worker);

    /// Cross-shard command operations (the id alone routes to its shard).
    std::optional<CommandSpec> complete(CommandId id);
    std::vector<CommandId> requeueWorker(net::NodeId worker);
    bool requeueCommand(CommandId id);
    void updateCheckpoint(CommandId id, SharedBytes checkpoint);
    std::optional<net::NodeId> holderOf(CommandId id) const;

    std::size_t pendingCount() const;
    std::size_t inFlightCount() const;
    std::size_t pendingOf(ProjectId tenant) const;
    std::size_t pendingBytesOf(ProjectId tenant) const;
    std::size_t inFlightOf(ProjectId tenant) const;

    /// Aggregate hot-path counters summed over every shard. Returns a
    /// reference into a cached member recomputed per call, matching the
    /// pre-shard Server::schedulerStats() signature.
    const SchedulerStats& stats() const;
    const TenantCounters& tenantStats(ProjectId tenant) const;

    /// Cross-shard enumeration for recovery bookkeeping: tenants in
    /// ascending id order, then each shard's bucket order. Inputs stay
    /// parked in the store (spec.input is empty).
    void forEachPending(
        const std::function<void(ProjectId, const CommandSpec&)>& fn) const;
    void forEachInFlight(
        const std::function<void(ProjectId, const CommandSpec&,
                                 net::NodeId)>& fn) const;

    /// Full-state serialization for WAL snapshots (tenant contracts, DRR
    /// state, every shard queue). restore() expects a freshly constructed
    /// scheduler and treats the stream as untrusted: malformed contracts,
    /// a deficit outside [0, cap] and any CommandQueue::restore rejection
    /// throw IoError.
    void serialize(BinaryWriter& w) const;
    void restore(BinaryReader& r);

private:
    struct Shard {
        CommandQueue queue;
        TenantConfig config;
        double deficit = 0.0;
        TenantCounters counters;
    };

    void notePendingPeaks(Shard& s);

    std::map<ProjectId, Shard> shards_;
    /// CommandId -> owning tenant, for pending + in-flight commands.
    std::unordered_map<CommandId, ProjectId> owners_;
    /// Ring order for DRR service; rebuilt when tenants are added.
    std::vector<ProjectId> ring_;
    std::size_t cursor_ = 0; ///< next ring position to start service from
    SegmentStore* store_;    ///< home of every shard's input payloads
    /// Checkpoints for ids no shard knows (late arrivals after completion).
    std::uint64_t orphanCheckpoints_ = 0;
    mutable SchedulerStats aggregate_; ///< cache for stats()
};

} // namespace cop::core
