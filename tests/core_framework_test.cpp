// Server/worker orchestration: matching, relaying, heartbeats, failure
// recovery with checkpoint handoff, client monitoring.

#include <gtest/gtest.h>

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

} // namespace
} // namespace cop::core
