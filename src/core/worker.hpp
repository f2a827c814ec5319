#pragma once

/// \file worker.hpp
/// A Copernicus worker (paper §2.3): presents its platform, core count and
/// installed executables to its closest server, receives a workload,
/// executes the commands (really, via the MD engine, or virtually, via a
/// duration model), streams checkpoints and heartbeats, returns output,
/// and asks for more work. Supports failure injection for the §2.3
/// transparent-continuation experiments.
///
/// All messaging goes through a typed wire::Endpoint. Polling after
/// NoWorkAvailable uses capped exponential backoff with seeded jitter;
/// requests whose reliable delivery ultimately fails are retried after a
/// backoff; and if its server becomes unreachable the worker fails over
/// to the next configured fallback server.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/envelope.hpp"
#include "core/executable.hpp"
#include "core/wire.hpp"
#include "net/backoff.hpp"
#include "net/overlay.hpp"
#include "util/random.hpp"

namespace cop::core {

struct WorkerConfig {
    std::string platform = "smp"; ///< e.g. "OpenMPI", "SMP" (paper §2.3)
    int cores = 1;
    double heartbeatInterval = 120.0; ///< seconds (paper default)
    /// Wait after NoWorkAvailable: capped exponential backoff with seeded
    /// jitter so an idle fleet does not poll in lockstep.
    net::BackoffPolicy pollBackoff{30.0, 2.0, 480.0, 0.25};
    /// Ack/retransmit policy for reliable sends.
    wire::RetryPolicy rpc;
    /// Transmit coalescing + ack piggybacking (enabled by default).
    wire::BatchPolicy batch;
};

struct WorkerStats {
    std::uint64_t commandsCompleted = 0;
    std::uint64_t commandsFailed = 0;
    std::uint64_t workloadRequestsSent = 0;
    std::uint64_t heartbeatsSent = 0;
    std::uint64_t checkpointsSent = 0;
    std::uint64_t pollRetries = 0;      ///< NoWorkAvailable backoffs taken
    /// NoWork answers carrying a server retry-after hint (park-queue or
    /// admission backpressure) that stretched our poll delay.
    std::uint64_t backpressureDeferrals = 0;
    std::uint64_t serverFailovers = 0;  ///< switched to a fallback server
    std::uint64_t duplicateAssignmentsDropped = 0;
    double busySeconds = 0.0; ///< virtual seconds of command execution
};

class Worker {
public:
    Worker(net::OverlayNetwork& network, std::string name,
           net::KeyPair keys, WorkerConfig config,
           ExecutableRegistry registry);

    net::Node& node() { return node_; }
    net::NodeId id() const { return node_.id(); }
    const WorkerConfig& config() const { return config_; }
    const WorkerStats& stats() const { return stats_; }
    /// Wire-layer counters (retransmits, acks, duplicates dropped).
    const wire::EndpointStats& wireStats() const { return endpoint_.stats(); }
    /// The worker's typed endpoint (benches/tests attach observers here).
    wire::Endpoint& endpoint() { return endpoint_; }

    /// Sets the closest server (must already be connected in the overlay)
    /// and sends the first announcement/work request.
    void start(net::NodeId closestServer);

    /// Adds a server this worker switches to when reliable sends to the
    /// current one keep failing (must be trusted + connected separately).
    void addFallbackServer(net::NodeId server);

    /// Observer called with (sim-seconds between sending a workload
    /// request and receiving its assignment) for every assignment that
    /// answers an open request. Benches use it for claim-latency
    /// percentiles.
    void onAssignLatency(std::function<void(double)> observer) {
        assignLatencyObserver_ = std::move(observer);
    }

    /// Injects a crash `delay` seconds from now: the worker stops dead —
    /// no more heartbeats, checkpoints, results, acks or retransmits.
    void failAfter(double delay);

    bool alive() const { return alive_; }
    std::size_t runningCommands() const { return running_.size(); }
    net::NodeId currentServer() const { return server_; }

private:
    void handleEnvelope(const wire::Envelope& env);
    void handleAssignment(const WorkloadAssignPayload& assign);
    void handleDeliveryFailure(const net::Message& failed);
    void requestWork();
    void sendHeartbeat();
    void ensureHeartbeatScheduled();

    struct Running {
        CommandSpec spec;
    };

    net::OverlayNetwork* network_;
    net::Node node_;
    wire::Endpoint endpoint_;
    WorkerConfig config_;
    ExecutableRegistry registry_;
    Rng rng_;
    net::NodeId server_ = net::kInvalidNode;
    std::vector<net::NodeId> fallbackServers_;
    std::map<CommandId, Running> running_;
    WorkerStats stats_;
    std::function<void(double)> assignLatencyObserver_;
    double requestSentAt_ = 0.0; ///< for the assign-latency observer
    int pollAttempt_ = 0;
    bool alive_ = true;
    bool heartbeatScheduled_ = false;
    bool requestPending_ = false;
};

} // namespace cop::core
