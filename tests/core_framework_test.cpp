// Server/worker orchestration: matching, relaying, heartbeats, failure
// recovery with checkpoint handoff, client monitoring.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/backends.hpp"
#include "core/copernicus.hpp"

namespace cop::core {
namespace {

/// Controller that submits `n` fixed commands and records completions.
class FixedController : public Controller {
public:
    FixedController(int n, std::string exe = "echo", int cores = 1)
        : n_(n), exe_(std::move(exe)), cores_(cores) {}

    void onProjectStart(ProjectContext& ctx) override {
        for (int i = 0; i < n_; ++i) {
            CommandSpec spec;
            spec.executable = exe_;
            spec.steps = 10;
            spec.preferredCores = cores_;
            spec.trajectoryId = i;
            ctx.submitCommand(std::move(spec));
        }
    }
    void onCommandFinished(ProjectContext&,
                           const CommandResult& r) override {
        results.push_back(r);
    }
    bool isDone(const ProjectContext& ctx) const override {
        return int(results.size()) == n_ && ctx.outstandingCommands() == 0;
    }

    std::vector<CommandResult> results;

private:
    int n_;
    std::string exe_;
    int cores_;
};

ExecutableRegistry echoRegistry(double duration = 10.0) {
    ExecutableRegistry reg;
    reg.add("echo", [duration](const CommandSpec& cmd, int) {
        Execution e;
        e.result.commandId = cmd.id;
        e.result.projectId = cmd.projectId;
        e.result.trajectoryId = cmd.trajectoryId;
        e.result.generation = cmd.generation;
        e.result.success = true;
        e.result.output = cmd.input.bytes(); // echo input back
        e.simSeconds = duration;
        return e;
    });
    return reg;
}

TEST(Framework, SingleServerSingleWorkerCompletesProject) {
    Deployment dep(1);
    auto& server = dep.addServer("s0");
    dep.addWorker("w0", server, WorkerConfig{}, echoRegistry(),
                  links::intraCluster());
    auto ctrl = std::make_unique<FixedController>(5);
    auto* c = ctrl.get();
    const auto pid = server.createProject({.name = "test"}, std::move(ctrl));
    EXPECT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(c->results.size(), 5u);
    EXPECT_TRUE(server.projectDone(pid));
    EXPECT_EQ(server.stats().commandsCompleted, 5u);
}

TEST(Framework, WorkloadFillsWorkerCores) {
    // A 4-core worker should receive 4 one-core commands at once.
    Deployment dep(2);
    auto& server = dep.addServer("s0");
    WorkerConfig wc;
    wc.cores = 4;
    auto& worker = dep.addWorker("w0", server, wc, echoRegistry(100.0),
                                 links::intraCluster());
    auto ctrl = std::make_unique<FixedController>(4);
    server.createProject({.name = "test"}, std::move(ctrl));
    // After the initial exchange, all 4 commands run concurrently.
    dep.loop().runUntil(50.0);
    EXPECT_EQ(worker.runningCommands(), 4u);
    EXPECT_TRUE(dep.runUntilDone(1e6));
}

TEST(Framework, RequestRelayedAcrossServers) {
    // Project on s0; worker attached to s1. The request relays s1 -> s0
    // ("first server with available commands").
    Deployment dep(3);
    auto& s0 = dep.addServer("s0");
    auto& s1 = dep.addServer("s1");
    dep.connectServers(s0, s1, links::dataCenter());
    dep.addWorker("w0", s1, WorkerConfig{}, echoRegistry(),
                  links::intraCluster());
    auto ctrl = std::make_unique<FixedController>(3);
    auto* c = ctrl.get();
    s0.createProject({.name = "remote"}, std::move(ctrl));
    EXPECT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(c->results.size(), 3u);
    EXPECT_GE(s1.stats().requestsForwarded, 1u);
}

TEST(Framework, ChainOfThreeServers) {
    // Paper Fig. 1 style: project at one end, workers at the other,
    // traffic crosses a relay in between.
    Deployment dep(4);
    auto& s0 = dep.addServer("s0");
    auto& s1 = dep.addServer("s1");
    auto& s2 = dep.addServer("s2");
    dep.connectServers(s0, s1, links::dataCenter());
    dep.connectServers(s1, s2, links::wideArea());
    dep.addWorker("w0", s2, WorkerConfig{}, echoRegistry(),
                  links::intraCluster());
    auto ctrl = std::make_unique<FixedController>(2);
    auto* c = ctrl.get();
    s0.createProject({.name = "far"}, std::move(ctrl));
    EXPECT_TRUE(dep.runUntilDone(1e7));
    EXPECT_EQ(c->results.size(), 2u);
    // Output traversed the wide-area link.
    EXPECT_GT(dep.network().linkStats(s1.id(), s2.id()).messages, 0u);
}

TEST(Framework, MultipleWorkersShareTheQueue) {
    Deployment dep(5);
    auto& server = dep.addServer("s0");
    for (int i = 0; i < 4; ++i)
        dep.addWorker("w" + std::to_string(i), server, WorkerConfig{},
                      echoRegistry(100.0), links::intraCluster());
    auto ctrl = std::make_unique<FixedController>(12);
    auto* c = ctrl.get();
    server.createProject({.name = "shared"}, std::move(ctrl));
    EXPECT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(c->results.size(), 12u);
    // Work spread across all workers.
    for (const auto& w : dep.workers())
        EXPECT_GE(w->stats().commandsCompleted, 1u);
    // With 4 concurrent workers the makespan is ~3 rounds of 100 s.
    EXPECT_LT(dep.loop().now(), 500.0);
}

TEST(Framework, WorkerFailureRequeuesAndRecovers) {
    Deployment dep(6);
    ServerConfig sc;
    sc.heartbeatInterval = 10.0;
    auto& server = dep.addServer("s0", sc);
    WorkerConfig wc;
    wc.heartbeatInterval = 10.0;
    auto& doomed = dep.addWorker("doomed", server, wc,
                                 echoRegistry(1000.0), links::intraCluster());
    auto ctrl = std::make_unique<FixedController>(2);
    auto* c = ctrl.get();
    server.createProject({.name = "resilient"}, std::move(ctrl));

    doomed.failAfter(50.0); // dies mid-run
    // A rescuer appears later.
    dep.loop().runUntil(100.0);
    dep.addWorker("rescuer", server, wc, echoRegistry(1000.0),
                  links::intraCluster());
    EXPECT_TRUE(dep.runUntilDone(1e7));
    EXPECT_EQ(c->results.size(), 2u);
    EXPECT_GE(server.stats().workersFailed, 1u);
    EXPECT_GE(server.stats().commandsRequeued, 1u);
}

TEST(Framework, ClientMonitorsProjectStatus) {
    Deployment dep(7);
    auto& server = dep.addServer("s0");
    dep.addWorker("w0", server, WorkerConfig{}, echoRegistry(),
                  links::intraCluster());
    auto& client =
        dep.addClient("cli", server, links::wideArea());
    const auto pid = server.createProject({.name = "watched"},
                                          std::make_unique<FixedController>(1));
    client.requestStatus(server.id(), pid);
    dep.runUntilDone(1e6);
    EXPECT_GE(client.responsesReceived(), 1u);
    EXPECT_NE(client.lastStatus().find("watched"), std::string::npos);

    client.requestStatus(server.id(), 999);
    dep.loop().run();
    EXPECT_NE(client.lastStatus().find("unknown project"),
              std::string::npos);
}

TEST(Framework, FailedCommandReachesControllerHook) {
    Deployment dep(8);
    auto& server = dep.addServer("s0");
    ExecutableRegistry reg;
    reg.add("echo", [](const CommandSpec&, int) -> Execution {
        throw Error("synthetic failure");
    });
    dep.addWorker("w0", server, WorkerConfig{}, std::move(reg),
                  links::intraCluster());

    class FailAware : public FixedController {
    public:
        using FixedController::FixedController;
        void onCommandFailed(ProjectContext&, const CommandSpec&) override {
            ++failures;
        }
        bool isDone(const ProjectContext&) const override {
            return failures >= 1;
        }
        int failures = 0;
    };
    auto ctrl = std::make_unique<FailAware>(1);
    auto* c = ctrl.get();
    server.createProject({.name = "failing"}, std::move(ctrl));
    EXPECT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(c->failures, 1);
    EXPECT_EQ(server.stats().commandsFailed, 1u);
}

TEST(Framework, ParkedRequestServedWhenWorkAppears) {
    Deployment dep(9);
    auto& server = dep.addServer("s0");
    // Project exists (not yet done) but has no commands.
    class LazyController : public Controller {
    public:
        void onProjectStart(ProjectContext&) override {}
        void onCommandFinished(ProjectContext&,
                               const CommandResult&) override {
            finished = true;
        }
        bool isDone(const ProjectContext&) const override {
            return finished;
        }
        bool finished = false;
    };
    auto lazy = std::make_unique<LazyController>();
    server.createProject({.name = "lazy"}, std::move(lazy));
    auto& worker = dep.addWorker("w0", server, WorkerConfig{},
                                 echoRegistry(), links::intraCluster());
    dep.loop().run(); // request parks (no NoWorkAvailable ping-pong)
    EXPECT_EQ(worker.stats().workloadRequestsSent, 1u);

    // Inject work through a second project; the parked request fires.
    auto ctrl = std::make_unique<FixedController>(1);
    auto* c = ctrl.get();
    server.createProject({.name = "real"}, std::move(ctrl));
    EXPECT_TRUE(dep.runUntilDone(1e6) || c->results.size() == 1);
    EXPECT_EQ(c->results.size(), 1u);
}

TEST(Framework, EchoOutputPreservesInputBytes) {
    Deployment dep(10);
    auto& server = dep.addServer("s0");
    dep.addWorker("w0", server, WorkerConfig{}, echoRegistry(),
                  links::intraCluster());

    class PayloadController : public FixedController {
    public:
        PayloadController() : FixedController(0) {}
        void onProjectStart(ProjectContext& ctx) override {
            CommandSpec spec;
            spec.executable = "echo";
            spec.steps = 1;
            spec.input = {1, 2, 3, 4};
            ctx.submitCommand(std::move(spec));
        }
        bool isDone(const ProjectContext&) const override {
            return !results.empty();
        }
    };
    auto ctrl = std::make_unique<PayloadController>();
    auto* c = ctrl.get();
    server.createProject({.name = "payload"}, std::move(ctrl));
    EXPECT_TRUE(dep.runUntilDone(1e6));
    ASSERT_EQ(c->results.size(), 1u);
    EXPECT_EQ(c->results[0].output,
              (std::vector<std::uint8_t>{1, 2, 3, 4}));
}


TEST(Framework, TwoProjectsShareWorkerPoolByExecutable) {
    // Fig. 1 shows one deployment hosting both MSM and free-energy
    // projects; workers run whichever commands match their installed
    // executables.
    Deployment dep(11);
    auto& server = dep.addServer("s0");
    // Worker A only knows "echo"; worker B only knows "other".
    dep.addWorker("wa", server, WorkerConfig{}, echoRegistry(10.0),
                  links::intraCluster());
    {
        ExecutableRegistry reg;
        reg.add("other", [](const CommandSpec& cmd, int) {
            Execution e;
            e.result.commandId = cmd.id;
            e.result.projectId = cmd.projectId;
            e.result.trajectoryId = cmd.trajectoryId;
            e.result.success = true;
            e.simSeconds = 10.0;
            return e;
        });
        dep.addWorker("wb", server, WorkerConfig{}, std::move(reg),
                      links::intraCluster());
    }
    auto echoCtrl = std::make_unique<FixedController>(3, "echo");
    auto otherCtrl = std::make_unique<FixedController>(3, "other");
    auto* ec = echoCtrl.get();
    auto* oc = otherCtrl.get();
    server.createProject({.name = "p_echo"}, std::move(echoCtrl));
    server.createProject({.name = "p_other"}, std::move(otherCtrl));
    EXPECT_TRUE(dep.runUntilDone(1e7));
    EXPECT_EQ(ec->results.size(), 3u);
    EXPECT_EQ(oc->results.size(), 3u);
    // Each worker ran only its own executable's commands.
    EXPECT_EQ(dep.workers()[0]->stats().commandsCompleted, 3u);
    EXPECT_EQ(dep.workers()[1]->stats().commandsCompleted, 3u);
}

TEST(Framework, ClientControlCommandReachesController) {
    Deployment dep(12);
    auto& server = dep.addServer("s0");
    class Tunable : public Controller {
    public:
        void onProjectStart(ProjectContext&) override {}
        void onCommandFinished(ProjectContext&,
                               const CommandResult&) override {}
        bool isDone(const ProjectContext&) const override { return done; }
        std::string handleClientCommand(ProjectContext& ctx,
                                        const std::string& cmd) override {
            if (cmd == "stop") {
                done = true;
                return "stopping";
            }
            return Controller::handleClientCommand(ctx, cmd);
        }
        bool done = false;
    };
    auto ctrl = std::make_unique<Tunable>();
    auto* t = ctrl.get();
    const auto pid =
        server.createProject({.name = "tunable"}, std::move(ctrl));
    auto& client = dep.addClient("cli", server, links::dataCenter());
    client.sendCommand(server.id(), pid, "stop");
    dep.loop().run(64);
    EXPECT_TRUE(t->done);
    EXPECT_EQ(client.lastStatus(), "stopping");
}


TEST(Framework, HeartbeatsStayAtClosestServer) {
    // Paper §2.3: "Heartbeat signals do not get forwarded to other
    // servers." The project server must see zero heartbeats from a worker
    // attached to a relay.
    Deployment dep(13);
    ServerConfig sc;
    sc.heartbeatInterval = 5.0;
    auto& project = dep.addServer("project", sc);
    auto& relay = dep.addServer("relay", sc);
    dep.connectServers(project, relay, links::dataCenter());
    WorkerConfig wc;
    wc.heartbeatInterval = 5.0;
    dep.addWorker("w0", relay, wc, echoRegistry(200.0),
                  links::intraCluster());
    auto ctrl = std::make_unique<FixedController>(1);
    project.createProject({.name = "remote"}, std::move(ctrl));
    dep.runUntilDone(1e7);
    EXPECT_GE(relay.stats().heartbeatsReceived, 1u);
    EXPECT_EQ(project.stats().heartbeatsReceived, 0u);
}

TEST(Framework, SharedFilesystemCutsWideAreaTraffic) {
    // Paper §2: shared filesystems reduce communication. Same project,
    // same work; the worker-to-server link carries orders of magnitude
    // fewer bytes when marked shared.
    auto run = [](bool shared) {
        Deployment dep(14);
        auto& server = dep.addServer("s0");
        auto props = links::intraCluster();
        props.sharedFilesystem = shared;
        // Commands with a large input payload.
        class BigPayload : public FixedController {
        public:
            BigPayload() : FixedController(0) {}
            void onProjectStart(ProjectContext& ctx) override {
                for (int i = 0; i < 3; ++i) {
                    CommandSpec spec;
                    spec.executable = "echo";
                    spec.steps = 1;
                    spec.input = std::vector<std::uint8_t>(500'000, 1);
                    ctx.submitCommand(std::move(spec));
                }
            }
            bool isDone(const ProjectContext& ctx) const override {
                return results.size() == 3 &&
                       ctx.outstandingCommands() == 0;
            }
        };
        dep.addWorker("w0", server, WorkerConfig{}, echoRegistry(),
                      props);
        server.createProject({.name = "big"}, std::make_unique<BigPayload>());
        dep.runUntilDone(1e7);
        return dep.network().totalStats().bytes;
    };
    const auto normal = run(false);
    const auto shared = run(true);
    EXPECT_GT(normal, 100u * shared);
}

TEST(Framework, MixedCoreWorkloadPacksWorker) {
    // A 4-core worker should receive a 3-core and a 1-core command
    // together (paper: "maximally utilizes the available resources").
    Deployment dep(15);
    auto& server = dep.addServer("s0");
    WorkerConfig wc;
    wc.cores = 4;
    auto& worker = dep.addWorker("w0", server, wc, echoRegistry(500.0),
                                 links::intraCluster());
    class Mixed : public FixedController {
    public:
        Mixed() : FixedController(0) {}
        void onProjectStart(ProjectContext& ctx) override {
            CommandSpec big;
            big.executable = "echo";
            big.steps = 1;
            big.preferredCores = 3;
            ctx.submitCommand(std::move(big));
            CommandSpec small;
            small.executable = "echo";
            small.steps = 1;
            small.preferredCores = 1;
            ctx.submitCommand(std::move(small));
        }
        bool isDone(const ProjectContext& ctx) const override {
            return results.size() == 2 && ctx.outstandingCommands() == 0;
        }
    };
    server.createProject({.name = "mixed"}, std::make_unique<Mixed>());
    dep.loop().runUntil(100.0);
    EXPECT_EQ(worker.runningCommands(), 2u);
    EXPECT_TRUE(dep.runUntilDone(1e7));
}

// --- Timings derived from the heartbeat interval H ------------------------

/// One-way latency of a scripted worker's link; its bandwidth is so high
/// that a frame arrives exactly kHop after it leaves.
constexpr double kHop = 0.25;

/// A bare node + endpoint standing in for a worker. It sends exactly the
/// messages a test scripts, unbatched, so their arrival times at the
/// server are known to the bit.
struct ScriptedWorker {
    net::Node node;
    wire::Endpoint endpoint;
    std::vector<CommandId> assigned;

    ScriptedWorker(Deployment& dep, Server& server, std::uint64_t key)
        : node(dep.network(), "scripted" + std::to_string(key),
               net::KeyPair::generate(key)),
          endpoint(dep.network(), node, wire::BatchPolicy{.enabled = false}) {
        node.trust(server.node().publicKey());
        server.node().trust(node.publicKey());
        dep.network().connect(node.id(), server.id(),
                              net::LinkProperties{kHop, 1e300});
        endpoint.onEnvelope(
            [this](const wire::Envelope& env, const net::Message&) {
                if (const auto* a =
                        std::get_if<WorkloadAssignPayload>(&env.payload))
                    for (const auto& cmd : a->commands)
                        assigned.push_back(cmd.id);
            });
    }
    // The endpoint's handler and the scheduled sends hold `this`.
    ScriptedWorker(const ScriptedWorker&) = delete;
    ScriptedWorker& operator=(const ScriptedWorker&) = delete;

    /// Sends a heartbeat at `t` reporting `running` (all hosted by
    /// `projectServer`); an empty list keeps the worker alive without
    /// renewing any lease.
    void heartbeatAt(net::EventLoop& loop, double t, net::NodeId to,
                     std::vector<CommandId> running = {},
                     net::NodeId projectServer = net::kInvalidNode) {
        loop.scheduleAt(t, [=, this] {
            HeartbeatPayload hb;
            hb.worker = node.id();
            hb.running = running;
            hb.projectServers.assign(running.size(), projectServer);
            endpoint.send(to, hb, /*reliable=*/false);
        });
    }

    /// Asks `to` for one core's worth of "echo" work at `t`.
    void requestAt(net::EventLoop& loop, double t, net::NodeId to) {
        loop.scheduleAt(t, [=, this] {
            WorkloadRequestPayload req;
            req.worker = node.id();
            req.cores = 1;
            req.executables = {"echo"};
            endpoint.send(to, req);
        });
    }
};

/// Runs the loop through the last of `times`, reading `value` at each.
std::vector<std::uint64_t> sampleAt(net::EventLoop& loop,
                                    const std::vector<double>& times,
                                    std::function<std::uint64_t()> value) {
    std::vector<std::uint64_t> out;
    for (double t : times)
        loop.scheduleAt(t, [&] { out.push_back(value()); });
    loop.runUntil(times.back());
    return out;
}

TEST(DerivedTimings, SilentWorkerFailsTwoIntervalsAfterItsLastHeartbeat) {
    const double H = 10.0;
    Deployment dep(21);
    ServerConfig sc;
    sc.heartbeatInterval = H;
    auto& server = dep.addServer("s0", sc);
    ScriptedWorker late(dep, server, 901), early(dep, server, 902);
    auto& loop = dep.loop();
    // The liveness sweep runs every H from the first arrival, at kHop.
    for (double t : {0.0, H, 2 * H}) {
        late.heartbeatAt(loop, t, server.id());
        early.heartbeatAt(loop, t, server.id());
    }
    // Last heartbeats land H/20 after / before the sweep at 3H + kHop, so
    // the sweep at 5H + kHop is 2H - H/20 after `late`'s (still alive)
    // and 2H + H/20 after `early`'s (dead), and the one at 6H + kHop is
    // the first sweep more than 2H after `late`'s.
    late.heartbeatAt(loop, 3 * H + H / 20, server.id());
    early.heartbeatAt(loop, 3 * H - H / 20, server.id());
    const double eps = H / 100;
    const double sweep5 = 5 * H + kHop, sweep6 = 6 * H + kHop;
    const auto failed = sampleAt(
        loop, {sweep5 - eps, sweep5 + eps, sweep6 - eps, sweep6 + eps},
        [&] { return server.stats().workersFailed; });
    EXPECT_EQ(failed, (std::vector<std::uint64_t>{0, 1, 1, 2}));
}

TEST(DerivedTimings, LeaseGrantedAtTLastsThreeIntervals) {
    const double H = 10.0;
    Deployment dep(22);
    ServerConfig sc;
    sc.heartbeatInterval = H;
    auto& server = dep.addServer("s0", sc);
    server.createProject({.name = "leases"},
                         std::make_unique<FixedController>(3));
    ScriptedWorker w(dep, server, 903);
    auto& loop = dep.loop();
    // Alive throughout, but never reports running anything: no renewal.
    for (double t = 0.0; t <= 6 * H; t += H / 2)
        w.heartbeatAt(loop, t, server.id());
    // Grants at kHop (arms the lease sweep: every H from kHop), at
    // kHop + H/20 and at kHop + H - H/20.
    w.requestAt(loop, 0.0, server.id());
    w.requestAt(loop, H / 20, server.id());
    w.requestAt(loop, H - H / 20, server.id());
    const double eps = H / 100;
    const double sweep3 = 3 * H + kHop, sweep4 = 4 * H + kHop;
    const auto expired = sampleAt(
        loop, {sweep3 - eps, sweep3 + eps, sweep4 - eps, sweep4 + eps},
        [&] { return server.stats().leasesExpired; });
    EXPECT_EQ(w.assigned.size(), 3u);
    // The sweep at exactly t + 3H expires the first lease; the second,
    // H/20 younger, survives it; both it and the third (3H - H/20 old by
    // then) are gone at the next sweep.
    EXPECT_EQ(expired, (std::vector<std::uint64_t>{0, 1, 1, 3}));
}

TEST(DerivedTimings, RemoteRenewalReachesProjectServerWithinAQuarterInterval) {
    const double H = 8.0;
    Deployment dep(23);
    ServerConfig sc;
    sc.heartbeatInterval = H;
    auto& project = dep.addServer("project", sc);
    auto& relay = dep.addServer("relay", sc);
    dep.connectServers(project, relay, net::LinkProperties{kHop, 1e300});
    project.createProject({.name = "remote"},
                          std::make_unique<FixedController>(1));
    ScriptedWorker w(dep, relay, 904);
    auto& loop = dep.loop();
    // The relay forwards the request; the project server grants the lease.
    w.requestAt(loop, 0.0, relay.id());
    loop.runUntil(2.0);
    ASSERT_EQ(w.assigned.size(), 1u);
    for (double t = 2.0; t < 10 * H; t += H)
        w.heartbeatAt(loop, t, relay.id(), w.assigned, project.id());
    // The first heartbeat reaches the relay at 2 + kHop; its renewal
    // leaves in a summary H/4 later and arrives a hop (plus the relay's
    // 20 ms transmit-coalescing window) after that.
    const double eps = H / 100;
    const double window = 2.0 + kHop + H / 4;
    const auto sent = sampleAt(loop, {window - eps, window + eps}, [&] {
        return relay.stats().heartbeatSummariesSent;
    });
    EXPECT_EQ(sent, (std::vector<std::uint64_t>{0, 1}));
    loop.runUntil(window + kHop + 0.05);
    EXPECT_EQ(project.stats().heartbeatSummariesReceived, 1u);
    // Renewed every H through the relay, the lease (3H) never expires.
    loop.runUntil(10 * H);
    EXPECT_EQ(project.stats().leasesExpired, 0u);
    EXPECT_EQ(project.stats().heartbeatSummariesReceived, 10u);
}

} // namespace
} // namespace cop::core
