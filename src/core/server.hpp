#pragma once

/// \file server.hpp
/// A Copernicus server (paper §2): all servers run identical code; their
/// role (project server vs. network relay) is determined solely by their
/// connectivity and whether they hold projects. A server:
///   - maintains a per-tenant sharded scheduling plane for the projects it
///     hosts (one CommandQueue shard per project, weighted fair-share
///     claim across them — see core/scheduler.hpp),
///   - matches workload requests against those shards, forwarding requests
///     it cannot satisfy to peer servers ("first server with available
///     commands"),
///   - applies per-tenant admission control: submissions over a project's
///     pending-depth or byte quota are rejected with a retry-after hint
///     instead of growing the backlog without bound,
///   - parks workload requests nobody can satisfy while it hosts unfinished
///     projects, and answers them as soon as commands are queued (long
///     polling; elsewhere the worker falls back to polling),
///   - monitors worker heartbeats and signals failures to project servers,
///   - caches worker checkpoints so commands can transparently continue on
///     another worker after a failure,
///   - holds a lease on every assigned command, renewed by heartbeats
///     (directly, or — batched into HeartbeatSummary digests per
///     aggregation window — towards remote project servers); an expired
///     lease requeues the command from its newest checkpoint — the
///     backstop when failure signals themselves are lost,
///   - dispatches controller plugin events as command output arrives.
///
/// All messaging goes through a typed wire::Endpoint: payload structs in
/// and out, acks/retransmits/duplicate suppression below the protocol.

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/envelope.hpp"
#include "core/plane_events.hpp"
#include "core/scheduler.hpp"
#include "core/segment_store.hpp"
#include "core/wal.hpp"
#include "core/wire.hpp"
#include "net/overlay.hpp"

namespace cop::core {

/// Durable-state and tiered-storage knobs (DESIGN.md "Durability & tiered
/// storage"). The defaults reproduce the pre-durability behaviour exactly:
/// no WAL, an unbounded RAM tier that never spills.
struct DurabilityConfig {
    /// Group-commit WAL over the scheduler/lease plane. When enabled the
    /// plane can be rebuilt bit-compatibly via Server::recoverFromWal().
    bool walEnabled = false;
    /// Directory for wal.log + snapshot.bin; required when walEnabled.
    std::string walDir;
    /// Group-commit window (sim seconds). 0 = flush at the end of the
    /// current event tick — still one fdatasync per burst, and always
    /// durable before any same-tick message is delivered.
    double walFlushDelay = 0.0;
    /// Auto-snapshot (and truncate the log) after this many records since
    /// the last snapshot. 0 = snapshot only on demand.
    std::uint64_t snapshotEveryRecords = 0;
    /// RAM-tier cap of the tiered blob store holding command inputs and
    /// the remote-checkpoint cache. 0 = unbounded (nothing spills).
    std::size_t storeRamBytes = 0;
    /// Cold-tier directory; empty = per-store temp dir, created lazily.
    std::string storeDir;
};

struct ServerConfig {
    /// Expected worker heartbeat interval H (paper default: 120 s). Failure
    /// detection, lease length and the renewal-summary window are fixed
    /// multiples of it (server.cpp).
    double heartbeatInterval = 120.0;
    /// Backpressure on the long-poll park queue: beyond this many parked
    /// workers new requests are answered NoWork with `parkRetryAfter`
    /// instead of parked. 0 = unlimited.
    std::size_t maxParkedRequests = 0;
    /// Suggested worker backoff when the park queue rejects a request.
    double parkRetryAfter = 15.0;
    /// Transmit coalescing + ack piggybacking (enabled by default).
    wire::BatchPolicy batch;
    /// WAL + tiered-store knobs (defaults: disabled/unbounded).
    DurabilityConfig durability;
};

/// One hosted project: its name and its scheduling contract (weight,
/// claim policy, admission quotas).
struct ProjectSpec {
    std::string name;
    TenantConfig tenant{};
};

/// Server counters. Those Server::apply() owns, from commandsAssigned to
/// parkedRequestsDropped, are plane state: durable, rebuilt by recovery.
/// The rest count this process's own traffic and are not recovered.
struct ServerStats {
    std::uint64_t workloadRequests = 0;
    std::uint64_t requestsForwarded = 0;
    std::uint64_t commandsAssigned = 0;
    std::uint64_t commandsCompleted = 0;
    std::uint64_t commandsFailed = 0;
    std::uint64_t workersFailed = 0;
    std::uint64_t commandsRequeued = 0;
    std::uint64_t heartbeatsReceived = 0;
    std::uint64_t duplicateResultsDropped = 0; ///< re-executions ignored
    std::uint64_t leasesExpired = 0;
    /// Parked requests discarded because their worker was declared dead
    /// before any work arrived (the park-queue leak fix).
    std::uint64_t parkedRequestsDropped = 0;
    /// Requests bounced with a retry-after because the park queue was full.
    std::uint64_t parkRejections = 0;
    /// Client control commands load-shed by admission control.
    std::uint64_t clientRequestsShed = 0;
    // --- Heartbeat/lease aggregation -------------------------------------
    std::uint64_t heartbeatSummariesSent = 0;
    std::uint64_t heartbeatSummariesReceived = 0;
    /// Individual lease renewals that rode a summary instead of paying
    /// their own LeaseRenew message.
    std::uint64_t leaseRenewalsAggregated = 0;
    /// Successful results whose output the controller rejected with
    /// IoError; each was handed back as a failed command. Process-local.
    /// Their Complete events committed as successes, so commandsCompleted
    /// counts them too (DESIGN.md, "Undecodable output").
    std::uint64_t undecodableResults = 0;
};

/// Point-in-time metrics of one tenant (project) on this server.
struct TenantMetrics {
    ProjectId id = 0;
    std::string name;
    TenantConfig config;
    TenantCounters counters;
    std::size_t pending = 0;
    std::size_t pendingBytes = 0;
    std::size_t inFlight = 0;
    std::size_t outstanding = 0; ///< submitted, not yet finished
    bool done = false;
};

/// One-call metrics surface consolidating the former stats() /
/// schedulerStats() / wireStats() triple plus the per-tenant breakdown.
struct ServerMetrics {
    ServerStats server;
    SchedulerStats scheduler; ///< aggregated over every shard
    wire::EndpointStats wire;
    StoreStats store;         ///< tiered blob store (hits/misses/spills)
    WalStats wal;             ///< zeroed when the WAL is disabled
    std::uint64_t recoveries = 0; ///< recoverFromWal() invocations
    std::vector<TenantMetrics> tenants;
};

class Server {
public:
    Server(net::OverlayNetwork& network, std::string name,
           net::KeyPair keys, ServerConfig config = {});
    ~Server(); // out-of-line: ProjectEntry holds an incomplete ContextImpl

    net::Node& node() { return node_; }
    net::NodeId id() const { return node_.id(); }
    const std::string& name() const { return node_.name(); }

    /// Declares another server a peer for workload-request forwarding.
    /// (Connectivity itself is established via OverlayNetwork::connect.)
    void addPeer(net::NodeId peer);

    /// Creates a project hosted on this server with an explicit scheduling
    /// contract (weight, claim policy, admission quotas). The controller's
    /// onProjectStart fires immediately.
    /// `createProject({.name = "p"}, ...)` takes the default contract.
    ProjectId createProject(ProjectSpec spec,
                            std::unique_ptr<Controller> controller);

    bool projectDone(ProjectId id) const;
    /// True when every hosted project is done.
    bool allProjectsDone() const;
    std::string projectStatus(ProjectId id) const;
    Controller& projectController(ProjectId id);

    /// The sharded scheduling plane (tests/benches introspect shards and
    /// per-tenant counters through it).
    const ShardedScheduler& scheduler() const { return scheduler_; }

    /// Consolidated point-in-time metrics with per-tenant breakdown. The
    /// three accessors below are const views over its components, kept for
    /// callers that only need one slice.
    ServerMetrics metricsSnapshot() const;
    const ServerStats& stats() const { return stats_; }
    /// Scheduler hot-path counters summed over every tenant shard.
    const SchedulerStats& schedulerStats() const { return scheduler_.stats(); }
    /// Wire-layer counters (retransmits, acks, duplicates dropped,
    /// batching/flush breakdown).
    const wire::EndpointStats& wireStats() const { return endpoint_.stats(); }
    /// The server's typed endpoint (benches/tests attach observers here).
    wire::Endpoint& endpoint() { return endpoint_; }
    const ServerConfig& config() const { return config_; }

    /// The tiered blob store backing command inputs and the remote
    /// checkpoint cache (tests/benches introspect tier stats through it).
    const SegmentStore& segmentStore() const { return *store_; }
    /// The group-commit WAL, nullptr when durability.walEnabled is false.
    const Wal* wal() const { return wal_.get(); }

    /// Crash/restart path: discards the *entire* scheduling/lease plane —
    /// scheduler shards, in-flight table, leases, park slots, worker
    /// records, completed-id set, checkpoint cache, blob store — and
    /// rebuilds it strictly from the on-disk snapshot + WAL, exactly as a
    /// freshly exec'd process would. Controller/project objects are the
    /// application layer and are left in place (they checkpoint through
    /// their own command outputs). Returns the number of log records
    /// replayed on top of the snapshot.
    std::uint64_t recoverFromWal();

private:
    class ContextImpl;

    struct ProjectEntry {
        std::string name;
        std::unique_ptr<Controller> controller;
        std::unique_ptr<ContextImpl> context;
        std::set<CommandId> outstanding;
    };

    struct WorkerRecord {
        double lastHeartbeat = 0.0;
        HeartbeatPayload lastPayload;
    };

    struct Lease {
        net::NodeId worker = net::kInvalidNode;
        double expires = 0.0;
    };

    /// Remote-checkpoint cache metadata; the blob itself lives in the
    /// tiered store under cacheKey(id) so cold checkpoints spill to disk.
    struct CachedCheckpoint {
        ProjectId projectId = 0;
        net::NodeId projectServer = net::kInvalidNode;
    };

    /// Store key of a cached checkpoint. The queue shards park command
    /// inputs in the same store under the command id verbatim; command
    /// ids never set bit 63 (server id << 40), so tagging it keeps the
    /// two key spaces apart.
    static std::uint64_t cacheKey(CommandId id) {
        return id | (std::uint64_t(1) << 63);
    }

    void handleEnvelope(const wire::Envelope& env, const net::Message& msg);
    void handleWorkloadRequest(const WorkloadRequestPayload& request,
                               const net::Message& msg);
    void handleCommandOutput(const CommandOutputPayload& payload);
    void handleHeartbeat(const HeartbeatPayload& hb);
    void handleCheckpoint(const CheckpointPayload& cp);
    void handleWorkerFailed(const WorkerFailedPayload& payload);
    void handleLeaseRenew(const LeaseRenewPayload& payload);
    void handleHeartbeatSummary(const HeartbeatSummaryPayload& summary);
    void handleClientRequest(const ClientRequestPayload& request,
                             const net::Message& msg);
    void handleDeliveryFailure(const net::Message& failed);

    /// Routes a decoded result to the local project controller. First
    /// delivery wins; duplicate results of requeued-then-recovered
    /// commands are dropped.
    void dispatchResult(CommandResult result);

    /// Claims matching commands and grants leases for the assignment
    /// (stale re-executions of completed commands are dropped).
    std::vector<CommandSpec> claimFor(const WorkloadRequestPayload& request);
    /// Discards a dead worker's parked long-poll slot, if it has one.
    void pruneParkedRequest(net::NodeId dead);

    void ensureLeaseSweepScheduled();
    void sweepLeases();
    double leaseDuration() const;

    void ensureSweepScheduled();
    void sweepWorkers();
    bool hostsUnfinishedProject() const;
    /// Called after commands are queued: answers parked requests.
    void scheduleServiceWaiting();
    void serviceWaitingRequests();

    /// Buffers a worker's lease renewals towards a remote project server
    /// for the current aggregation window.
    void bufferLeaseRenewals(net::NodeId projectServer, net::NodeId worker,
                             std::vector<CommandId> commands);
    void ensureSummaryFlushScheduled();
    void flushHeartbeatSummaries();

    /// The id the next Push will carry (apply() advances the counter).
    CommandId nextCommandId() const;
    /// Cached checkpoint blob for a command, empty when absent.
    SharedBytes cachedCheckpointBlob(CommandId id);

    // --- The control plane as events (core/plane_events.hpp) -------------
    /// The only way a live handler changes plane state: applies `event`
    /// and, when the WAL is on, appends it. Returns apply()'s result.
    template <typename Event>
    decltype(auto) commit(Event&& e);

    /// What a worker's death leaves for the handler to do.
    struct WorkerDeath {
        /// Failure signals per project server of the worker's last
        /// heartbeat, with our cached checkpoints. The entry for this
        /// server, if any, has already been applied in place.
        std::map<net::NodeId, WorkerFailedPayload> signals;
        std::size_t requeued = 0; ///< our commands put back on the queues
    };

    /// The only code that changes plane state: the scheduler, leases,
    /// workers, completed set, park slots and cursor, checkpoint cache, id
    /// counters and the durable ServerStats counters. Shared by commit()
    /// and WAL replay; never sends, appends or arms a timer.
    void apply(event::TenantAdd& e);
    AdmissionDecision apply(event::Push& e);
    std::vector<CommandSpec> apply(event::Claim& e);
    std::optional<CommandSpec> apply(event::Complete& e);
    bool apply(event::Requeue& e);
    std::size_t apply(event::RequeueWorker& e);
    void apply(event::Checkpoint& e);
    void apply(event::Park& e);
    void apply(event::ParkDrop& e);
    void apply(event::ParkCursor& e);
    void apply(event::Renew& e);
    void apply(event::WorkerSeen& e);
    WorkerDeath apply(event::WorkerGone& e);
    void apply(event::CacheAdd& e);
    void apply(event::CacheDrop& e);

    // --- Durability (DESIGN.md "Durability & tiered storage") ------------
    /// Schedules a snapshot+truncate once the record budget is exceeded.
    void maybeSnapshot();
    /// Serializes the whole durable plane (scheduler shards with payloads,
    /// leases, workers, park slots, cache, counters) for writeSnapshot().
    std::vector<std::uint8_t> snapshotState();
    /// Inverse of snapshotState(); the stream is untrusted (IoError).
    void restoreSnapshot(std::span<const std::uint8_t> bytes);

    net::OverlayNetwork* network_;
    net::Node node_;
    wire::Endpoint endpoint_;
    ServerConfig config_;
    /// Tiered blob store: every command input and the checkpoint cache.
    /// Declared before scheduler_, whose shards park inputs in it.
    std::unique_ptr<SegmentStore> store_;
    ShardedScheduler scheduler_;
    std::vector<net::NodeId> peers_;
    std::map<ProjectId, ProjectEntry> projects_;
    std::map<net::NodeId, WorkerRecord> workers_;
    /// commandId -> provenance of the newest checkpoint cached for a
    /// *remote* project; the blob lives in store_ under cacheKey(id).
    std::map<CommandId, CachedCheckpoint> checkpointMeta_;
    std::map<CommandId, Lease> leases_;
    std::set<CommandId> completedCommands_;
    ServerStats stats_;
    std::vector<WorkloadRequestPayload> parkedRequests_;
    /// Start offset into parkedRequests_ for the next service pass, so
    /// repeated partial refills round-robin over parked workers instead of
    /// always feeding the head of the list first.
    std::size_t unparkCursor_ = 0;
    /// Lease renewals buffered per remote project server, grouped by
    /// worker, awaiting the next summary flush.
    std::map<net::NodeId, std::map<net::NodeId, std::vector<CommandId>>>
        summaryBuffers_;
    ProjectId nextProjectId_ = 1;
    std::uint64_t commandCounter_ = 0;
    /// Live commits started; tells a controller's rejected output from an
    /// IoError of the plane's own I/O (see dispatchResult).
    std::uint64_t commitsStarted_ = 0;
    bool sweepScheduled_ = false;
    bool leaseSweepScheduled_ = false;
    bool servicePending_ = false;
    bool summaryFlushScheduled_ = false;
    // --- Durability ------------------------------------------------------
    std::unique_ptr<Wal> wal_;            ///< nullptr when WAL disabled
    bool snapshotScheduled_ = false;
    std::uint64_t recoveries_ = 0;
    /// Scratch writer for record bodies, reused so appends do not
    /// allocate (commits never nest).
    BinaryWriter walScratch_;
};

} // namespace cop::core
