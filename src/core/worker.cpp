#include "core/worker.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace cop::core {

Worker::Worker(net::OverlayNetwork& network, std::string name,
               net::KeyPair keys, WorkerConfig config,
               ExecutableRegistry registry)
    : network_(&network), node_(network, std::move(name), keys),
      endpoint_(network, node_, config.batch),
      config_(std::move(config)),
      registry_(std::move(registry)), rng_(node_.keys().publicKey) {
    COP_REQUIRE(config_.cores >= 1, "worker needs at least one core");
    COP_REQUIRE(config_.heartbeatInterval > 0.0, "bad heartbeat interval");
    endpoint_.onEnvelope(
        [this](const wire::Envelope& env, const net::Message&) {
            handleEnvelope(env);
        });
    endpoint_.onDeliveryFailure(
        [this](const net::Message& failed) { handleDeliveryFailure(failed); });
}

void Worker::start(net::NodeId closestServer) {
    COP_REQUIRE(network_->connected(id(), closestServer) ||
                    network_->nextHop(id(), closestServer) !=
                        net::kInvalidNode,
                "worker has no route to its server");
    server_ = closestServer;
    requestWork();
}

void Worker::addFallbackServer(net::NodeId server) {
    if (server == server_) return;
    if (std::find(fallbackServers_.begin(), fallbackServers_.end(), server) ==
        fallbackServers_.end())
        fallbackServers_.push_back(server);
}

void Worker::failAfter(double delay) {
    network_->loop().schedule(delay, [this] {
        alive_ = false;
        running_.clear();
        endpoint_.shutdown();
        COP_LOG_INFO("worker") << node_.name() << ": injected failure";
    });
}

void Worker::requestWork() {
    if (!alive_ || requestPending_) return;
    requestPending_ = true;
    requestSentAt_ = network_->loop().now();
    ++stats_.workloadRequestsSent;
    WorkloadRequestPayload req;
    req.worker = id();
    req.platform = config_.platform;
    req.cores = config_.cores;
    req.executables = registry_.names();
    // Reliable: the ack confirms the request reached the server, which
    // then owes us an answer — assignment, NoWorkAvailable (both reliable)
    // or a parked long-poll. Only a delivery failure needs a local retry
    // (handleDeliveryFailure), so an idle, parked worker is quiescent.
    endpoint_.send(server_, req);
}

void Worker::handleEnvelope(const wire::Envelope& env) {
    if (!alive_) return;
    std::visit(
        [&](const auto& payload) {
            using T = std::decay_t<decltype(payload)>;
            if constexpr (std::is_same_v<T, WorkloadAssignPayload>) {
                if (requestPending_ && assignLatencyObserver_)
                    assignLatencyObserver_(network_->loop().now() -
                                           requestSentAt_);
                requestPending_ = false;
                pollAttempt_ = 0;
                handleAssignment(payload);
            } else if constexpr (std::is_same_v<T, NoWorkPayload>) {
                requestPending_ = false;
                // The queue was empty everywhere; retry after a backoff
                // (this is the "no more than 30 seconds per day" wait of
                // §4, now with jitter so idle fleets desynchronize). A
                // server retry-after hint (park-queue/admission
                // backpressure) is honored as a floor on the delay.
                ++stats_.pollRetries;
                double delay = config_.pollBackoff.delay(pollAttempt_++, rng_);
                if (payload.retryAfterSeconds > delay) {
                    ++stats_.backpressureDeferrals;
                    delay = payload.retryAfterSeconds;
                }
                network_->loop().schedule(delay, [this] { requestWork(); });
            } else {
                COP_LOG_WARN("worker")
                    << node_.name() << ": unexpected message "
                    << net::messageTypeName(env.type);
            }
        },
        env.payload);
}

void Worker::handleDeliveryFailure(const net::Message& failed) {
    if (!alive_) return;
    if (failed.destination != server_) {
        // Targeted at a server we already failed away from (several sends
        // can be in flight when the rotation happens): re-target it at
        // the current server instead of dropping it.
        if (std::find(fallbackServers_.begin(), fallbackServers_.end(),
                      failed.destination) != fallbackServers_.end())
            endpoint_.sendRaw(failed.type, server_, failed.payload, true);
        return;
    }
    if (!fallbackServers_.empty()) {
        // The current server is unreachable: rotate to the next fallback
        // and re-target the undelivered message there.
        fallbackServers_.push_back(server_);
        server_ = fallbackServers_.front();
        fallbackServers_.erase(fallbackServers_.begin());
        ++stats_.serverFailovers;
        COP_LOG_INFO("worker") << node_.name() << ": failing over to "
                               << network_->node(server_).name();
        endpoint_.sendRaw(failed.type, server_, failed.payload, true);
        return;
    }
    if (failed.type == net::MessageType::WorkloadRequest) {
        // Nowhere to fail over: back off and ask again later (the outage
        // may be a transient cut or partition).
        requestPending_ = false;
        ++stats_.pollRetries;
        const double delay = config_.pollBackoff.delay(pollAttempt_++, rng_);
        network_->loop().schedule(delay, [this] { requestWork(); });
    }
}

void Worker::handleAssignment(const WorkloadAssignPayload& assign) {
    if (assign.commands.empty()) return;

    for (const auto& assigned : assign.commands) {
        if (running_.count(assigned.id) > 0) {
            // Duplicate assignment (a re-sent request was answered twice).
            ++stats_.duplicateAssignmentsDropped;
            continue;
        }
        // Cheap copy: the input payload is a shared buffer, so consuming
        // an assignment never duplicates checkpoint bytes.
        CommandSpec cmd = assigned;
        const int cores = std::min(cmd.preferredCores, config_.cores);
        Execution exec;
        try {
            exec = registry_.run(cmd, cores);
        } catch (const Error& e) {
            exec.result.commandId = cmd.id;
            exec.result.projectId = cmd.projectId;
            exec.result.trajectoryId = cmd.trajectoryId;
            exec.result.generation = cmd.generation;
            exec.result.success = false;
            exec.result.error = e.what();
            exec.simSeconds = 0.0;
        }
        exec.result.simSeconds = exec.simSeconds;
        stats_.busySeconds += exec.simSeconds;

        // Stream mid-run checkpoints to the closest server (unreliable:
        // a lost checkpoint only costs recovery freshness). Each blob is
        // moved into a shared buffer once; the scheduled send and the
        // server-side cache/lease plumbing all alias it.
        for (auto& [fraction, blob] : exec.checkpoints) {
            CheckpointPayload cp;
            cp.commandId = cmd.id;
            cp.projectId = cmd.projectId;
            cp.projectServer = cmd.projectServer;
            cp.blob = std::move(blob);
            network_->loop().schedule(
                fraction * exec.simSeconds,
                [this, cp = std::move(cp)]() mutable {
                    if (!alive_) return;
                    ++stats_.checkpointsSent;
                    endpoint_.send(server_, cp, /*reliable=*/false);
                });
        }

        // Deliver the result when the (virtual) run completes.
        const CommandId cid = cmd.id;
        const auto projectServer = cmd.projectServer;
        const double duration = exec.simSeconds;
        const bool ok = exec.result.success;
        running_[cid] = Running{std::move(cmd)};
        network_->loop().schedule(
            duration,
            [this, cid, projectServer, ok,
             result = std::move(exec.result)]() mutable {
                if (!alive_) return;
                running_.erase(cid);
                if (ok)
                    ++stats_.commandsCompleted;
                else
                    ++stats_.commandsFailed;
                // Ask for the next workload before reporting this result:
                // the request must reach the server while the project is
                // still unfinished so it can be parked (long-polled)
                // rather than bounced NoWorkAvailable by a race with our
                // own final output. Unbatched, the small request overtook
                // the larger output on the wire anyway; coalescing both
                // into one frame preserves that order only if we queue
                // the request first.
                if (running_.empty()) requestWork();
                CommandOutputPayload out;
                out.result = std::move(result);
                out.projectServer = projectServer;
                endpoint_.send(server_, out);
            });
    }
    // Report status right away so the closest server knows which commands
    // we hold (needed for failure handoff), then keep beating.
    sendHeartbeat();
    ensureHeartbeatScheduled();
}

void Worker::ensureHeartbeatScheduled() {
    if (heartbeatScheduled_ || running_.empty()) return;
    heartbeatScheduled_ = true;
    network_->loop().schedule(config_.heartbeatInterval, [this] {
        heartbeatScheduled_ = false;
        if (!alive_) return;
        if (!running_.empty()) {
            sendHeartbeat();
            ensureHeartbeatScheduled();
        }
    });
}

void Worker::sendHeartbeat() {
    ++stats_.heartbeatsSent;
    HeartbeatPayload hb;
    hb.worker = id();
    for (const auto& [cid, run] : running_) {
        hb.running.push_back(cid);
        hb.projectServers.push_back(run.spec.projectServer);
    }
    endpoint_.send(server_, hb, /*reliable=*/false);
}

} // namespace cop::core
