#include "core/server.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace cop::core {

namespace {

// Failure handling hangs off the one heartbeat interval H (paper §2.3).
/// A worker silent for more than this many intervals is declared dead.
constexpr double kFailureMultiplier = 2.0;
/// A command's lease lasts this many intervals: longer than failure
/// detection, so the cheap path (closest-server detection + WorkerFailed
/// handoff) fires first and lease expiry only catches what it misses
/// (lost signals, partitions).
constexpr double kLeaseMultiplier = 3.0;
/// Renewals towards remote project servers are aggregated into one
/// HeartbeatSummary per server every H / kSummariesPerInterval.
constexpr double kSummariesPerInterval = 4.0;
static_assert(kLeaseMultiplier > kFailureMultiplier,
              "a lease must outlast failure detection");
static_assert(1.0 / kSummariesPerInterval <= (kLeaseMultiplier - 1.0) / 4.0,
              "the summary window must stay well under (lease - 1) "
              "intervals, or remote leases expire while their renewals "
              "sit in the buffer");

/// Snapshot format version. Bump it with every layout change, so that an
/// image of an older layout fails with IoError instead of misparsing.
constexpr std::uint32_t kSnapshotVersion = 2;

/// ServerStats in snapshot order. The counters apply() owns are durable;
/// the rest are process-local, so their snapshot slots are written but
/// recovery neither restores nor resets them. undecodableResults has no
/// slot: it is process-local and not part of the snapshot format.
struct CounterSlot {
    std::uint64_t ServerStats::*field;
    bool durable;
};
constexpr CounterSlot kCounterSlots[] = {
    {&ServerStats::workloadRequests, false},
    {&ServerStats::requestsForwarded, false},
    {&ServerStats::commandsAssigned, true},
    {&ServerStats::commandsCompleted, true},
    {&ServerStats::commandsFailed, true},
    {&ServerStats::workersFailed, true},
    {&ServerStats::commandsRequeued, true},
    {&ServerStats::heartbeatsReceived, true},
    {&ServerStats::duplicateResultsDropped, true},
    {&ServerStats::leasesExpired, true},
    {&ServerStats::parkedRequestsDropped, true},
    {&ServerStats::parkRejections, false},
    {&ServerStats::clientRequestsShed, false},
    {&ServerStats::heartbeatSummariesSent, false},
    {&ServerStats::heartbeatSummariesReceived, false},
    {&ServerStats::leaseRenewalsAggregated, false},
};

} // namespace

template <typename Event>
decltype(auto) Server::commit(Event&& e) {
    using E = std::decay_t<Event>;
    ++commitsStarted_;
    const auto append = [&] {
        if (!wal_) return;
        walScratch_.clear();
        e.encode(walScratch_);
        wal_->append(E::kType, walScratch_.buffer());
        maybeSnapshot();
    };
    // A claim is logged with its outcome, so after apply(); every other
    // event is logged first, because apply() may move its payload out.
    if constexpr (std::is_same_v<E, event::Claim>) {
        auto outcome = apply(e);
        append();
        return outcome;
    } else {
        append();
        return apply(e);
    }
}

/// ProjectContext implementation bound to one hosted project.
class Server::ContextImpl : public ProjectContext {
public:
    ContextImpl(Server& server, ProjectId id) : server_(&server), id_(id) {}

    ProjectId projectId() const override { return id_; }

    net::SimTime now() const override {
        return server_->network_->loop().now();
    }

    CommandId submitCommand(CommandSpec spec) override {
        const CommandId cid = stamp(spec);
        // Controller reactions to finished commands must never deadlock on
        // the project's own quota: plain submits bypass admission.
        server_->commit(event::Push{id_, /*force=*/true, std::move(spec)});
        server_->projects_.at(id_).outstanding.insert(cid);
        server_->scheduleServiceWaiting();
        return cid;
    }

    SubmitResult trySubmitCommand(CommandSpec spec) override {
        const CommandId cid = stamp(spec);
        const auto decision = server_->commit(
            event::Push{id_, /*force=*/false, std::move(spec)});
        if (!decision.admitted)
            return SubmitResult{0, false, decision.retryAfter};
        server_->projects_.at(id_).outstanding.insert(cid);
        server_->scheduleServiceWaiting();
        return SubmitResult{cid, true, 0.0};
    }

    std::size_t outstandingCommands() const override {
        return server_->projects_.at(id_).outstanding.size();
    }

private:
    CommandId stamp(CommandSpec& spec) const {
        spec.id = server_->nextCommandId();
        spec.projectId = id_;
        spec.projectServer = server_->id();
        return spec.id;
    }

    Server* server_;
    ProjectId id_;
};

Server::Server(net::OverlayNetwork& network, std::string name,
               net::KeyPair keys, ServerConfig config)
    : network_(&network), node_(network, std::move(name), keys),
      endpoint_(network, node_, config.batch),
      config_(config),
      store_(std::make_unique<SegmentStore>(
          StoreConfig{config.durability.storeRamBytes,
                      config.durability.storeDir})),
      scheduler_(*store_) {
    COP_REQUIRE(config.heartbeatInterval > 0.0, "bad heartbeat interval");
    endpoint_.onEnvelope(
        [this](const wire::Envelope& env, const net::Message& msg) {
            handleEnvelope(env, msg);
        });
    endpoint_.onDeliveryFailure(
        [this](const net::Message& failed) { handleDeliveryFailure(failed); });

    if (config_.durability.walEnabled) {
        COP_REQUIRE(!config_.durability.walDir.empty(),
                    "durability: walDir required when walEnabled");
        WalConfig walCfg;
        walCfg.dir = config_.durability.walDir;
        walCfg.loop = &network.loop();
        walCfg.flushDelay = config_.durability.walFlushDelay;
        wal_ = std::make_unique<Wal>(walCfg);
    }
}

Server::~Server() = default;

void Server::addPeer(net::NodeId peer) {
    COP_REQUIRE(peer != id(), "cannot peer with self");
    if (std::find(peers_.begin(), peers_.end(), peer) == peers_.end())
        peers_.push_back(peer);
}

ProjectId Server::createProject(ProjectSpec spec,
                                std::unique_ptr<Controller> controller) {
    COP_REQUIRE(controller != nullptr, "project needs a controller");
    const ProjectId id = nextProjectId_;
    commit(event::TenantAdd{id, spec.tenant, spec.name});
    ProjectEntry entry;
    entry.name = std::move(spec.name);
    entry.controller = std::move(controller);
    entry.context = std::make_unique<ContextImpl>(*this, id);
    auto [it, inserted] = projects_.emplace(id, std::move(entry));
    COP_ENSURE(inserted, "duplicate project id");
    it->second.controller->onProjectStart(*it->second.context);
    return id;
}

bool Server::projectDone(ProjectId id) const {
    const auto& entry = projects_.at(id);
    return entry.controller->isDone(*entry.context);
}

bool Server::allProjectsDone() const {
    for (const auto& [id, entry] : projects_)
        if (!entry.controller->isDone(*entry.context)) return false;
    return true;
}

std::string Server::projectStatus(ProjectId id) const {
    const auto& entry = projects_.at(id);
    return entry.name + ": " + entry.controller->statusReport(*entry.context);
}

Controller& Server::projectController(ProjectId id) {
    return *projects_.at(id).controller;
}

ServerMetrics Server::metricsSnapshot() const {
    ServerMetrics m;
    m.server = stats_;
    m.scheduler = scheduler_.stats();
    m.wire = endpoint_.stats();
    m.store = store_->stats();
    if (wal_) m.wal = wal_->stats();
    m.recoveries = recoveries_;
    m.tenants.reserve(projects_.size());
    for (const auto& [pid, entry] : projects_) {
        TenantMetrics t;
        t.id = pid;
        t.name = entry.name;
        t.config = scheduler_.tenantConfig(pid);
        t.counters = scheduler_.tenantStats(pid);
        t.pending = scheduler_.pendingOf(pid);
        t.pendingBytes = scheduler_.pendingBytesOf(pid);
        t.inFlight = scheduler_.inFlightOf(pid);
        t.outstanding = entry.outstanding.size();
        t.done = entry.controller->isDone(*entry.context);
        m.tenants.push_back(std::move(t));
    }
    return m;
}

CommandId Server::nextCommandId() const {
    // Server id in the high bits keeps ids globally unique across project
    // servers sharing the same worker pool.
    return (std::uint64_t(id()) + 1) << 40 | (commandCounter_ + 1);
}

void Server::handleEnvelope(const wire::Envelope& env,
                            const net::Message& msg) {
    std::visit(
        [&](const auto& payload) {
            using T = std::decay_t<decltype(payload)>;
            if constexpr (std::is_same_v<T, WorkloadRequestPayload>)
                handleWorkloadRequest(payload, msg);
            else if constexpr (std::is_same_v<T, CommandOutputPayload>)
                handleCommandOutput(payload);
            else if constexpr (std::is_same_v<T, HeartbeatPayload>)
                handleHeartbeat(payload);
            else if constexpr (std::is_same_v<T, CheckpointPayload>)
                handleCheckpoint(payload);
            else if constexpr (std::is_same_v<T, WorkerFailedPayload>)
                handleWorkerFailed(payload);
            else if constexpr (std::is_same_v<T, HeartbeatSummaryPayload>)
                handleHeartbeatSummary(payload);
            else if constexpr (std::is_same_v<T, ClientRequestPayload>)
                handleClientRequest(payload, msg);
            else
                COP_LOG_WARN("server")
                    << name() << ": unexpected message type "
                    << net::messageTypeName(env.type);
        },
        env.payload);
}

std::vector<CommandSpec> Server::claimFor(
    const WorkloadRequestPayload& request) {
    auto fresh = commit(event::Claim{
        .worker = request.worker,
        .cores = request.cores,
        .executables = &request.executables,
        .expires = network_->loop().now() + leaseDuration()});
    if (!fresh.empty()) ensureLeaseSweepScheduled();
    return fresh;
}

void Server::handleWorkloadRequest(const WorkloadRequestPayload& request,
                                   const net::Message& msg) {
    ++stats_.workloadRequests;

    // Track the worker if it reports to us directly (its closest server).
    if (msg.source == request.worker) {
        commit(event::WorkerSeen{request.worker, network_->loop().now()});
        ensureSweepScheduled();
    }

    auto claimed = claimFor(request);
    if (!claimed.empty()) {
        endpoint_.send(request.worker,
                       WorkloadAssignPayload{std::move(claimed)});
        return;
    }

    // Relay towards the first peer server not yet visited (paper §2.2:
    // "routing of requests ... to the first server with available
    // commands").
    WorkloadRequestPayload fwd = request;
    fwd.visited.push_back(id());
    for (net::NodeId peer : peers_) {
        if (std::find(fwd.visited.begin(), fwd.visited.end(), peer) !=
            fwd.visited.end())
            continue;
        ++stats_.requestsForwarded;
        endpoint_.send(peer, fwd);
        return;
    }
    if (hostsUnfinishedProject()) {
        // Park-queue backpressure: a worker that already holds a parked
        // slot may always refresh it, but beyond the cap new workers are
        // bounced with an explicit retry-after instead of growing the
        // queue (and the per-slot sweep cost) without bound.
        const bool alreadyParked = std::any_of(
            parkedRequests_.begin(), parkedRequests_.end(),
            [&](const auto& p) { return p.worker == request.worker; });
        if (!alreadyParked && config_.maxParkedRequests > 0 &&
            parkedRequests_.size() >= config_.maxParkedRequests) {
            ++stats_.parkRejections;
            endpoint_.send(request.worker,
                           NoWorkPayload{request.worker,
                                         config_.parkRetryAfter});
            return;
        }
        commit(event::Park{std::move(fwd)});
        return;
    }
    endpoint_.send(request.worker, NoWorkPayload{request.worker});
}

void Server::pruneParkedRequest(net::NodeId dead) {
    if (std::any_of(parkedRequests_.begin(), parkedRequests_.end(),
                    [dead](const auto& p) { return p.worker == dead; }))
        commit(event::ParkDrop{dead});
}

bool Server::hostsUnfinishedProject() const {
    for (const auto& [id, entry] : projects_)
        if (!entry.controller->isDone(*entry.context)) return true;
    return false;
}

void Server::scheduleServiceWaiting() {
    if (servicePending_ || parkedRequests_.empty()) return;
    servicePending_ = true;
    network_->loop().schedule(0.0, [this] {
        servicePending_ = false;
        serviceWaitingRequests();
    });
}

void Server::serviceWaitingRequests() {
    if (parkedRequests_.empty()) return;
    // Rotate the starting slot each pass: when fresh work only covers a
    // few of the parked workers, the ones at the head of the list must not
    // monopolize every refill (the claim itself is tenant-fair via DRR;
    // this keeps it worker-fair too).
    const std::size_t n = parkedRequests_.size();
    const std::size_t start = unparkCursor_ % n;
    event::ParkCursor pass{.cursor = start + 1};
    for (std::size_t k = 0; k < n; ++k) {
        const auto& request = parkedRequests_[(start + k) % n];
        auto claimed = claimFor(request);
        if (!claimed.empty()) {
            endpoint_.send(request.worker,
                           WorkloadAssignPayload{std::move(claimed)});
        } else if (hostsUnfinishedProject()) {
            pass.workers.push_back(request.worker);
        } else {
            endpoint_.send(request.worker, NoWorkPayload{request.worker});
        }
    }
    commit(std::move(pass));
}

void Server::handleCommandOutput(const CommandOutputPayload& payload) {
    // Drop any cached checkpoints: the command is over.
    if (checkpointMeta_.count(payload.result.commandId) > 0)
        commit(event::CacheDrop{payload.result.commandId});

    if (projects_.find(payload.result.projectId) != projects_.end()) {
        dispatchResult(payload.result);
        return;
    }
    // Not ours: relay towards the project server named in the payload.
    if (payload.projectServer == net::kInvalidNode ||
        payload.projectServer == id()) {
        COP_LOG_WARN("server") << name() << ": orphan command output "
                               << payload.result.commandId;
        return;
    }
    endpoint_.send(payload.projectServer, payload);
}

void Server::dispatchResult(CommandResult result) {
    // A requeued copy of this command also ran to completion: the first
    // result won, and apply() only clears the re-execution's in-flight
    // record and lease.
    const bool duplicate = completedCommands_.count(result.commandId) > 0;
    const auto spec = commit(event::Complete{
        result.commandId, result.projectId, result.success});
    if (duplicate) return;
    auto& entry = projects_.at(result.projectId);
    entry.outstanding.erase(result.commandId);
    if (result.success) {
        // Output the controller rejects with IoError before committing
        // anything fails the command; a later IoError is the plane's own.
        const auto commitsBefore = commitsStarted_;
        try {
            entry.controller->onCommandFinished(*entry.context, result);
            return;
        } catch (const IoError& err) {
            if (commitsStarted_ != commitsBefore) throw;
            ++stats_.undecodableResults;
            COP_LOG_WARN("server") << name() << ": command "
                                   << result.commandId
                                   << " output rejected: " << err.what();
        }
    }
    if (spec) entry.controller->onCommandFailed(*entry.context, *spec);
}

void Server::handleHeartbeat(const HeartbeatPayload& hb) {
    const double now = network_->loop().now();
    commit(event::WorkerSeen{hb.worker, now, hb});
    ensureSweepScheduled();

    // Renew leases: locally for commands we host; renewals towards remote
    // project servers are buffered and flushed as one HeartbeatSummary
    // digest per server per aggregation window (heartbeats themselves
    // never leave the closest server, paper §2.3 — and with aggregation,
    // neither does a per-heartbeat renewal message).
    std::map<net::NodeId, std::vector<CommandId>> remote;
    std::vector<CommandId> local;
    for (std::size_t i = 0; i < hb.running.size(); ++i) {
        const net::NodeId ps = i < hb.projectServers.size()
                                   ? hb.projectServers[i]
                                   : net::kInvalidNode;
        if (ps == id())
            local.push_back(hb.running[i]);
        else if (ps != net::kInvalidNode)
            remote[ps].push_back(hb.running[i]);
    }
    if (!local.empty())
        commit(event::Renew{hb.worker, now + leaseDuration(), local});
    for (auto& [ps, commands] : remote)
        bufferLeaseRenewals(ps, hb.worker, std::move(commands));
}

void Server::bufferLeaseRenewals(net::NodeId projectServer,
                                 net::NodeId worker,
                                 std::vector<CommandId> commands) {
    if (commands.empty()) return;
    stats_.leaseRenewalsAggregated += commands.size();
    // A newer heartbeat supersedes the older one within the window: the
    // flush renews each lease once either way.
    summaryBuffers_[projectServer][worker] = std::move(commands);
    ensureSummaryFlushScheduled();
}

void Server::ensureSummaryFlushScheduled() {
    if (summaryFlushScheduled_ || summaryBuffers_.empty()) return;
    summaryFlushScheduled_ = true;
    network_->loop().schedule(
        config_.heartbeatInterval / kSummariesPerInterval,
        [this] { flushHeartbeatSummaries(); });
}

void Server::flushHeartbeatSummaries() {
    summaryFlushScheduled_ = false;
    for (auto& [ps, byWorker] : summaryBuffers_) {
        if (byWorker.empty()) continue; // all renewers died this window
        HeartbeatSummaryPayload summary;
        summary.edge = id();
        for (auto& [worker, commands] : byWorker) {
            summary.workers.push_back(worker);
            summary.counts.push_back(std::uint32_t(commands.size()));
            summary.commands.insert(summary.commands.end(), commands.begin(),
                                    commands.end());
        }
        ++stats_.heartbeatSummariesSent;
        // Unreliable: a lost digest is covered by the next window;
        // leases span several windows.
        endpoint_.send(ps, summary, /*reliable=*/false);
    }
    summaryBuffers_.clear();
}

void Server::handleHeartbeatSummary(const HeartbeatSummaryPayload& summary) {
    ++stats_.heartbeatSummariesReceived;
    const double expires = network_->loop().now() + leaseDuration();
    const std::span<const CommandId> commands(summary.commands);
    std::size_t k = 0;
    for (std::size_t i = 0; i < summary.workers.size(); ++i) {
        const auto ids = commands.subspan(k, summary.counts[i]);
        k += ids.size();
        if (!ids.empty())
            commit(event::Renew{summary.workers[i], expires, ids});
    }
}

void Server::handleCheckpoint(const CheckpointPayload& cp) {
    // If we host the project ourselves, feed the checkpoint straight into
    // the in-flight record; otherwise cache it for failure handoff. Either
    // way the blob lands in the tiered store (via the queue's vault or
    // under cacheKey()), so a cold cache spills to disk instead of RAM.
    if (projects_.find(cp.projectId) != projects_.end())
        commit(event::Checkpoint{cp.commandId, cp.blob});
    else
        commit(event::CacheAdd{cp.commandId, cp.projectId, cp.projectServer,
                               cp.blob});
}

void Server::handleWorkerFailed(const WorkerFailedPayload& payload) {
    for (std::size_t i = 0; i < payload.commands.size(); ++i)
        if (i < payload.checkpoints.size() && !payload.checkpoints[i].empty())
            commit(event::Checkpoint{payload.commands[i],
                                     payload.checkpoints[i]});
    const std::size_t requeued =
        commit(event::RequeueWorker{payload.worker});
    if (requeued > 0) {
        scheduleServiceWaiting();
        // The worker died holding our commands; if it also held a parked
        // long-poll slot here (request raced ahead of its final outputs),
        // drop it — nobody will answer for a dead worker.
        pruneParkedRequest(payload.worker);
    }
    COP_LOG_INFO("server") << name() << ": worker "
                           << network_->node(payload.worker).name()
                           << " failed; requeued " << requeued
                           << " commands";
}

void Server::handleClientRequest(const ClientRequestPayload& request,
                                 const net::Message& msg) {
    std::string reply;
    auto it = projects_.find(request.projectId);
    if (it == projects_.end()) {
        reply = "unknown project " + std::to_string(request.projectId);
    } else if (request.command.empty() || request.command == "status") {
        reply = projectStatus(request.projectId);
    } else {
        // Control commands can fan out into fresh submissions; when the
        // tenant is already over its admission quota the request is shed
        // up front with a retry-after instead of reaching the controller.
        const auto gate = scheduler_.admit(request.projectId, CommandSpec{});
        if (!gate.admitted) {
            ++stats_.clientRequestsShed;
            ClientResponsePayload shed;
            shed.text = "busy: project " + std::to_string(request.projectId) +
                        " over admission quota";
            shed.accepted = false;
            shed.retryAfterSeconds = gate.retryAfter;
            endpoint_.send(msg.source, shed);
            return;
        }
        // Control command: routed to the project's controller (dynamic
        // parameter changes, §3.2 "future versions").
        reply = it->second.controller->handleClientCommand(
            *it->second.context, request.command);
    }
    endpoint_.send(msg.source, ClientResponsePayload{reply});
}

void Server::handleDeliveryFailure(const net::Message& failed) {
    // A reliable send exhausted its retransmits. For assignments, put the
    // commands straight back on the queue (the worker never confirmed
    // receiving them); everything else is covered by leases and polling.
    if (failed.type != net::MessageType::WorkloadAssign) return;
    const auto decoded = wire::decodePayload(failed);
    if (!decoded) return;
    const auto& assign = std::get<WorkloadAssignPayload>(*decoded);
    std::size_t requeued = 0;
    for (const auto& cmd : assign.commands) {
        const auto holder = scheduler_.holderOf(cmd.id);
        if (holder && *holder == failed.destination &&
            commit(event::Requeue{cmd.id,
                                  event::RequeueReason::DeliveryFailure}))
            ++requeued;
    }
    if (requeued > 0) scheduleServiceWaiting();
}

double Server::leaseDuration() const {
    return kLeaseMultiplier * config_.heartbeatInterval;
}

void Server::ensureLeaseSweepScheduled() {
    if (leaseSweepScheduled_ || leases_.empty()) return;
    leaseSweepScheduled_ = true;
    network_->loop().schedule(config_.heartbeatInterval,
                              [this] { sweepLeases(); });
}

void Server::sweepLeases() {
    leaseSweepScheduled_ = false;
    const double now = network_->loop().now();
    std::size_t requeued = 0;
    for (auto it = leases_.begin(); it != leases_.end();) {
        const CommandId cid = it->first;
        const bool expired = it->second.expires <= now;
        ++it; // apply() erases the expired lease
        if (expired &&
            commit(event::Requeue{cid, event::RequeueReason::LeaseExpiry}))
            ++requeued;
    }
    if (requeued > 0) scheduleServiceWaiting();
    ensureLeaseSweepScheduled();
}

void Server::ensureSweepScheduled() {
    if (sweepScheduled_) return;
    sweepScheduled_ = true;
    network_->loop().schedule(config_.heartbeatInterval,
                              [this] { sweepWorkers(); });
}

void Server::sweepWorkers() {
    sweepScheduled_ = false;
    const double now = network_->loop().now();
    const double deadline = kFailureMultiplier * config_.heartbeatInterval;
    for (auto it = workers_.begin(); it != workers_.end();) {
        const net::NodeId dead = it->first;
        const bool silent = now - it->second.lastHeartbeat > deadline;
        ++it; // apply() erases the dead worker's record
        if (!silent) continue;
        const auto death = commit(event::WorkerGone{dead});
        // Signal each remote project server, in server-id order; our own
        // share was requeued in place, and its service pass is armed at
        // the same point in that order.
        for (const auto& [ps, failure] : death.signals) {
            if (ps != id())
                endpoint_.send(ps, failure);
            else if (death.requeued > 0)
                scheduleServiceWaiting();
        }
        if (death.requeued > 0) {
            scheduleServiceWaiting();
            // Drop the dead worker's parked request — but only when the
            // scheduler still attributed in-flight commands to it: dying
            // mid-run is real evidence of death, and without the prune
            // the park queue leaks one entry per such worker. An *idle*
            // parked worker is legitimately silent (no heartbeats without
            // running commands, and its last heartbeat may still list
            // commands that since completed); its park slot is the
            // long-poll contract and must survive the liveness sweep.
            pruneParkedRequest(dead);
        }
        // And its buffered lease renewals: renewing on behalf of a worker
        // we just declared dead would only delay recovery.
        for (auto& [ps, byWorker] : summaryBuffers_) byWorker.erase(dead);
    }
    if (!workers_.empty()) ensureSweepScheduled();
}

SharedBytes Server::cachedCheckpointBlob(CommandId id) {
    if (checkpointMeta_.count(id) == 0) return SharedBytes{};
    auto blob = store_->get(cacheKey(id));
    return blob ? *blob : SharedBytes{};
}

// --- apply(): the only plane mutations -----------------------------------

void Server::apply(event::TenantAdd& e) {
    COP_IO_CHECK(!scheduler_.hasTenant(e.project), "wal: duplicate tenant");
    scheduler_.addTenant(e.project, e.config);
    nextProjectId_ = std::max(nextProjectId_, e.project + 1);
}

AdmissionDecision Server::apply(event::Push& e) {
    COP_IO_CHECK(scheduler_.hasTenant(e.tenant),
                 "wal: push for unknown tenant");
    // Our own ids carry this server in the high bits and the counter in
    // the low 40; a pushed id advances the counter past it.
    if ((e.spec.id >> 40) == std::uint64_t(id()) + 1)
        commandCounter_ = std::max(
            commandCounter_, e.spec.id & ((std::uint64_t(1) << 40) - 1));
    return scheduler_.push(e.tenant, std::move(e.spec), e.force);
}

std::vector<CommandSpec> Server::apply(event::Claim& e) {
    auto claimed = scheduler_.claim(*e.executables, e.cores, e.worker);
    std::vector<CommandSpec> fresh;
    fresh.reserve(claimed.size());
    std::vector<CommandId> ids;
    ids.reserve(claimed.size());
    for (auto& cmd : claimed) {
        if (completedCommands_.count(cmd.id) > 0) {
            // Stale re-execution of a command whose first run already
            // delivered its result (requeue raced with recovery).
            scheduler_.complete(cmd.id);
            leases_.erase(cmd.id);
            continue;
        }
        leases_[cmd.id] = Lease{e.worker, e.expires};
        ids.push_back(cmd.id);
        fresh.push_back(std::move(cmd));
    }
    COP_IO_CHECK(!e.logged || ids == e.ids,
                 "wal: claim replay diverged from log");
    e.ids = std::move(ids);
    stats_.commandsAssigned += fresh.size();
    return fresh;
}

std::optional<CommandSpec> Server::apply(event::Complete& e) {
    auto spec = scheduler_.complete(e.command);
    leases_.erase(e.command);
    if (completedCommands_.count(e.command) > 0) {
        ++stats_.duplicateResultsDropped;
        return std::nullopt;
    }
    if (e.success) {
        completedCommands_.insert(e.command);
        ++stats_.commandsCompleted;
    } else {
        ++stats_.commandsFailed;
    }
    return spec;
}

bool Server::apply(event::Requeue& e) {
    if (e.reason == event::RequeueReason::LeaseExpiry) ++stats_.leasesExpired;
    leases_.erase(e.command);
    if (!scheduler_.requeueCommand(e.command)) return false;
    ++stats_.commandsRequeued;
    return true;
}

std::size_t Server::apply(event::RequeueWorker& e) {
    const auto requeued = scheduler_.requeueWorker(e.worker);
    stats_.commandsRequeued += requeued.size();
    for (CommandId cid : requeued) leases_.erase(cid);
    return requeued.size();
}

void Server::apply(event::Checkpoint& e) {
    scheduler_.updateCheckpoint(e.command, std::move(e.blob));
}

void Server::apply(event::Park& e) {
    // One parked slot per worker: a re-sent request (retransmit that beat
    // its ack, or a poll after a timeout) replaces the stale one instead
    // of producing double assignments later.
    for (auto& parked : parkedRequests_) {
        if (parked.worker == e.request.worker) {
            parked = std::move(e.request);
            return;
        }
    }
    parkedRequests_.push_back(std::move(e.request));
}

void Server::apply(event::ParkDrop& e) {
    stats_.parkedRequestsDropped += std::erase_if(
        parkedRequests_, [&](const auto& p) { return p.worker == e.worker; });
}

void Server::apply(event::ParkCursor& e) {
    std::vector<WorkloadRequestPayload> next;
    next.reserve(e.workers.size());
    const std::size_t n = parkedRequests_.size();
    // Survivors are named in the pass's order, which starts at the old
    // cursor: resuming each scan at the previous hit keeps a live pass
    // linear in the number of parked slots.
    std::size_t at = n == 0 ? 0 : unparkCursor_ % n;
    for (net::NodeId worker : e.workers) {
        std::size_t k = 0;
        while (k < n && parkedRequests_[(at + k) % n].worker != worker) ++k;
        COP_IO_CHECK(k < n, "wal: park cursor names unknown worker");
        at = (at + k) % n;
        next.push_back(std::move(parkedRequests_[at]));
        parkedRequests_[at].worker = net::kInvalidNode; // taken
    }
    // Slots not named were assigned or answered NoWork in the pass.
    parkedRequests_ = std::move(next);
    unparkCursor_ = std::size_t(e.cursor);
}

void Server::apply(event::Renew& e) {
    for (CommandId cid : e.commands) {
        auto it = leases_.find(cid);
        if (it != leases_.end() && it->second.worker == e.worker)
            it->second.expires = e.expires;
    }
}

void Server::apply(event::WorkerSeen& e) {
    auto& rec = workers_[e.worker];
    rec.lastHeartbeat = e.seen;
    if (e.heartbeat) {
        rec.lastPayload = std::move(*e.heartbeat);
        ++stats_.heartbeatsReceived;
    }
}

Server::WorkerDeath Server::apply(event::WorkerGone& e) {
    auto it = workers_.find(e.worker);
    COP_IO_CHECK(it != workers_.end(), "wal: unknown worker gone");
    ++stats_.workersFailed;
    // Group the dead worker's commands by project server, each with our
    // cached checkpoint (shared into the payload, no copy while hot).
    WorkerDeath death;
    const auto& hb = it->second.lastPayload;
    for (std::size_t i = 0; i < hb.running.size(); ++i) {
        const net::NodeId ps = i < hb.projectServers.size()
                                   ? hb.projectServers[i]
                                   : net::kInvalidNode;
        if (ps == net::kInvalidNode) continue;
        auto& p = death.signals[ps];
        p.worker = e.worker;
        p.commands.push_back(hb.running[i]);
        p.checkpoints.push_back(cachedCheckpointBlob(hb.running[i]));
    }
    // We host these projects ourselves: restart from the cached
    // checkpoints. The requeue also covers commands of ours the worker
    // never heartbeated.
    if (auto own = death.signals.find(id()); own != death.signals.end())
        for (std::size_t i = 0; i < own->second.commands.size(); ++i)
            if (!own->second.checkpoints[i].empty())
                scheduler_.updateCheckpoint(own->second.commands[i],
                                            own->second.checkpoints[i]);
    event::RequeueWorker requeue{e.worker};
    death.requeued = apply(requeue);
    workers_.erase(it);
    return death;
}

void Server::apply(event::CacheAdd& e) {
    checkpointMeta_[e.command] = CachedCheckpoint{e.project, e.projectServer};
    store_->put(cacheKey(e.command), std::move(e.blob));
}

void Server::apply(event::CacheDrop& e) {
    if (checkpointMeta_.erase(e.command) > 0)
        store_->erase(cacheKey(e.command));
}

// --- Durability (DESIGN.md "Durability & tiered storage") ----------------

void Server::maybeSnapshot() {
    const auto every = config_.durability.snapshotEveryRecords;
    if (every == 0 || snapshotScheduled_ || !wal_) return;
    if (wal_->stats().recordsSinceSnapshot < every) return;
    // Deferred to its own event-loop task so a snapshot always sees the
    // plane between handlers, never partway through one.
    snapshotScheduled_ = true;
    network_->loop().schedule(0.0, [this] {
        snapshotScheduled_ = false;
        if (wal_ && wal_->stats().recordsSinceSnapshot >=
                        config_.durability.snapshotEveryRecords)
            wal_->writeSnapshot(snapshotState());
    });
}

std::vector<std::uint8_t> Server::snapshotState() {
    BinaryWriter w;
    w.writeHeader("CPSS", kSnapshotVersion);
    w.write(std::uint64_t(commandCounter_));
    w.write(std::uint64_t(nextProjectId_));
    scheduler_.serialize(w);
    w.write(std::uint64_t(completedCommands_.size()));
    for (CommandId id : completedCommands_) w.write(std::uint64_t(id));
    w.write(std::uint64_t(leases_.size()));
    for (const auto& [id, lease] : leases_) {
        w.write(std::uint64_t(id));
        w.write(std::int32_t(lease.worker));
        w.write(lease.expires);
    }
    w.write(std::uint64_t(workers_.size()));
    for (const auto& [wid, rec] : workers_) {
        w.write(std::int32_t(wid));
        w.write(rec.lastHeartbeat);
        rec.lastPayload.serialize(w);
    }
    w.write(std::uint64_t(parkedRequests_.size()));
    for (const auto& p : parkedRequests_) p.serialize(w);
    w.write(std::uint64_t(unparkCursor_));
    w.write(std::uint64_t(checkpointMeta_.size()));
    for (const auto& [id, meta] : checkpointMeta_) {
        w.write(std::uint64_t(id));
        w.write(std::uint64_t(meta.projectId));
        w.write(std::int32_t(meta.projectServer));
        w.writeBytes(cachedCheckpointBlob(id));
    }
    for (const auto& slot : kCounterSlots) w.write(stats_.*slot.field);
    return w.takeBuffer();
}

void Server::restoreSnapshot(std::span<const std::uint8_t> bytes) {
    BinaryReader r(bytes);
    const auto version = r.readHeader("CPSS");
    COP_IO_CHECK(version == kSnapshotVersion,
                 "snapshot: unsupported version");
    commandCounter_ = r.read<std::uint64_t>();
    nextProjectId_ = ProjectId(r.read<std::uint64_t>());
    scheduler_.restore(r);
    const auto completed = r.readCount(8);
    for (std::uint64_t i = 0; i < completed; ++i)
        COP_IO_CHECK(
            completedCommands_.insert(r.read<std::uint64_t>()).second,
            "snapshot: duplicate completed id");
    const auto leases = r.readCount(20);
    for (std::uint64_t i = 0; i < leases; ++i) {
        const auto cid = CommandId(r.read<std::uint64_t>());
        Lease lease;
        lease.worker = net::NodeId(r.read<std::int32_t>());
        lease.expires = r.read<double>();
        COP_IO_CHECK(leases_.emplace(cid, lease).second,
                     "snapshot: duplicate lease");
    }
    const auto workerCount = r.readCount(12);
    for (std::uint64_t i = 0; i < workerCount; ++i) {
        const auto wid = net::NodeId(r.read<std::int32_t>());
        WorkerRecord rec;
        rec.lastHeartbeat = r.read<double>();
        rec.lastPayload = HeartbeatPayload::deserialize(r);
        COP_IO_CHECK(workers_.emplace(wid, std::move(rec)).second,
                     "snapshot: duplicate worker");
    }
    const auto parked = r.readCount(8);
    for (std::uint64_t i = 0; i < parked; ++i)
        parkedRequests_.push_back(WorkloadRequestPayload::deserialize(r));
    unparkCursor_ = std::size_t(r.read<std::uint64_t>());
    const auto cached = r.readCount(20);
    for (std::uint64_t i = 0; i < cached; ++i) {
        const auto cid = CommandId(r.read<std::uint64_t>());
        CachedCheckpoint meta;
        meta.projectId = ProjectId(r.read<std::uint64_t>());
        meta.projectServer = net::NodeId(r.read<std::int32_t>());
        COP_IO_CHECK(checkpointMeta_.emplace(cid, meta).second,
                     "snapshot: duplicate cached checkpoint");
        store_->put(cacheKey(cid), SharedBytes(r.readBytes()));
    }
    for (const auto& slot : kCounterSlots) {
        const auto value = r.read<std::uint64_t>();
        if (slot.durable) stats_.*slot.field = value;
    }
    COP_IO_CHECK(r.atEnd(), "snapshot: trailing bytes");
}

std::uint64_t Server::recoverFromWal() {
    COP_REQUIRE(wal_ != nullptr,
                "recoverFromWal requires durability.walEnabled");
    // Records appended this tick have not influenced any delivered message
    // yet (the group-commit flush precedes every send's delivery), so
    // flushing them here models exactly what a crash could not have lost.
    wal_->flush();
    // Wipe the plane: everything below is rebuilt strictly from disk.
    scheduler_ = ShardedScheduler{*store_};
    store_->clear();
    leases_.clear();
    workers_.clear();
    completedCommands_.clear();
    parkedRequests_.clear();
    unparkCursor_ = 0;
    checkpointMeta_.clear();
    summaryBuffers_.clear();
    commandCounter_ = 0;
    nextProjectId_ = 1;
    for (const auto& slot : kCounterSlots)
        if (slot.durable) stats_.*slot.field = 0;
    for (auto& [pid, entry] : projects_) entry.outstanding.clear();

    const auto before = wal_->stats().replayedRecords;
    const auto snap = wal_->loadSnapshot();
    if (!snap.empty()) restoreSnapshot(snap);
    wal_->replay([this](WalRecordType type,
                        std::span<const std::uint8_t> body) {
        auto decoded = event::decode(type, body);
        std::visit([this](auto& e) { apply(e); }, decoded);
    });

    // outstanding == the plane's unfinished commands, by construction
    // (inserted on submit/push, erased exactly when complete() retires).
    scheduler_.forEachPending([&](ProjectId pid, const CommandSpec& s) {
        auto it = projects_.find(pid);
        if (it != projects_.end()) it->second.outstanding.insert(s.id);
    });
    scheduler_.forEachInFlight(
        [&](ProjectId pid, const CommandSpec& s, net::NodeId) {
            auto it = projects_.find(pid);
            if (it != projects_.end()) it->second.outstanding.insert(s.id);
        });
    ++recoveries_;
    if (!workers_.empty()) ensureSweepScheduled();
    if (!leases_.empty()) ensureLeaseSweepScheduled();
    return wal_->stats().replayedRecords - before;
}

} // namespace cop::core
