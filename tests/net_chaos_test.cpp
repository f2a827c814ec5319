// Chaos suite (paper §2.3): seeded fault injection against full
// deployments. Every scenario here drives real projects — adaptive MSM
// sampling and BAR free-energy chains — through an overlay that drops,
// duplicates and reorders messages, cuts links, partitions the network
// and crashes nodes, then asserts that no command is ever permanently
// lost and that the same seed reproduces the same event trace.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/backends.hpp"
#include "core/bar_controller.hpp"
#include "core/copernicus.hpp"
#include "core/msm_controller.hpp"
#include "mdlib/proteins.hpp"

namespace cop {
namespace {

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

/// Registry speaking both project dialects so any worker can serve the
/// MSM and the BAR project (paper Fig. 1: one deployment, many projects).
core::ExecutableRegistry dualRegistry() {
    core::ExecutableRegistry reg;
    reg.add("mdrun", core::makeMdrunExecutable(
                         core::linearDurationModel(0.05)));
    reg.add("fe_sample", core::makeFeSampleExecutable(
                             core::linearDurationModel(0.001)));
    return reg;
}

core::ExecutableRegistry echoRegistry(double duration) {
    core::ExecutableRegistry reg;
    reg.add("echo", [duration](const core::CommandSpec& cmd, int) {
        core::Execution e;
        e.result.commandId = cmd.id;
        e.result.projectId = cmd.projectId;
        e.result.trajectoryId = cmd.trajectoryId;
        e.result.generation = cmd.generation;
        e.result.success = true;
        e.simSeconds = duration;
        return e;
    });
    return reg;
}

/// Submits `n` fixed echo commands and records completions.
class FixedController : public core::Controller {
public:
    explicit FixedController(int n) : n_(n) {}
    void onProjectStart(core::ProjectContext& ctx) override {
        for (int i = 0; i < n_; ++i) {
            core::CommandSpec spec;
            spec.executable = "echo";
            spec.steps = 10;
            spec.trajectoryId = i;
            ctx.submitCommand(std::move(spec));
        }
    }
    void onCommandFinished(core::ProjectContext&,
                           const core::CommandResult& r) override {
        results.push_back(r);
    }
    bool isDone(const core::ProjectContext& ctx) const override {
        return int(results.size()) == n_ && ctx.outstandingCommands() == 0;
    }
    std::vector<core::CommandResult> results;

private:
    int n_;
};

core::MsmControllerParams miniMsmParams(std::uint64_t seed) {
    auto model = md::hairpinGoModel();
    core::MsmControllerParams mp;
    mp.model = model;
    mp.startingConformations = md::makeUnfoldedConformations(model, 2, 9);
    mp.tasksPerStart = 2;
    mp.segmentSteps = 600;
    mp.maxGenerations = 1;
    mp.pipeline.numClusters = 8;
    mp.pipeline.snapshotStride = 2;
    mp.simulation.integrator.temperature = 0.5;
    mp.simulation.sampleInterval = 50;
    mp.seed = seed;
    return mp;
}

core::BarControllerParams miniBarParams(std::uint64_t seed) {
    core::BarControllerParams bp;
    bp.numWindows = 4;
    bp.samplesPerCommand = 1000;
    bp.targetError = 0.05;
    bp.maxRounds = 2;
    bp.commandsPerRound = 4;
    bp.seed = seed;
    return bp;
}

/// One fully loaded chaos run: two servers, eight workers (two of which
/// crash), ≥5% loss + duplication everywhere, one transient partition
/// isolating the relay side, and both flagship project types in flight.
struct ChaosRun {
    bool done = false;
    bool msmDone = false;
    bool barDone = false;
    std::uint64_t traceHash = 0;
    net::FaultStats faultStats;
};

ChaosRun runChaosDeployment(std::uint64_t seed, bool batching = true) {
    core::Deployment dep(seed);
    core::ServerConfig sc;
    sc.heartbeatInterval = 30.0;
    sc.batch.enabled = batching;
    auto& project = dep.addServer("project", sc);
    auto& relay = dep.addServer("relay", sc);
    dep.connectServers(project, relay, core::links::dataCenter());

    core::WorkerConfig wc;
    wc.heartbeatInterval = 30.0;
    wc.batch.enabled = batching;
    std::vector<net::NodeId> relaySide{relay.id()};
    for (int w = 0; w < 8; ++w) {
        auto& home = w < 4 ? project : relay;
        auto& worker =
            dep.addWorker("w" + std::to_string(w), home, wc, dualRegistry(),
                          core::links::intraCluster());
        if (w >= 4) relaySide.push_back(worker.id());
        // Two of the eight workers die mid-run (paper §2.3 burn-in).
        if (w == 1) worker.failAfter(60.0);
        if (w == 5) worker.failAfter(90.0);
    }

    net::FaultPlan plan;
    plan.seed = seed;
    plan.defaultProfile.dropProbability = 0.05;
    plan.defaultProfile.duplicateProbability = 0.05;
    plan.defaultProfile.reorderProbability = 0.05;
    // Transient partition: the relay island loses the project server for
    // two minutes in the middle of the run.
    plan.partition(relaySide, 150.0, 270.0);
    dep.setFaultPlan(plan);

    const auto msmId =
        project.createProject({.name = "chaos-msm"},
                              std::make_unique<core::MsmController>(
                                  miniMsmParams(seed)));
    const auto barId =
        project.createProject({.name = "chaos-bar"},
                              std::make_unique<core::BarController>(
                                  miniBarParams(seed)));

    ChaosRun run;
    run.done = dep.runUntilDone(5e5);
    run.msmDone = project.projectDone(msmId);
    run.barDone = project.projectDone(barId);
    run.traceHash = dep.network().traceHash();
    run.faultStats = dep.network().faultStats();
    return run;
}

TEST(Chaos, LossAndDuplicationSweepMsmAndBar) {
    // Multi-seed sweep; CI widens/narrows it via the environment.
    const std::uint64_t base = envU64("COP_CHAOS_SEED_BASE", 1000);
    const std::uint64_t count = envU64("COP_CHAOS_SEED_COUNT", 20);
    for (std::uint64_t s = 0; s < count; ++s) {
        const std::uint64_t seed = base + s;
        const auto run = runChaosDeployment(seed);
        EXPECT_TRUE(run.done) << "seed " << seed << " did not finish";
        EXPECT_TRUE(run.msmDone) << "seed " << seed << " lost MSM commands";
        EXPECT_TRUE(run.barDone) << "seed " << seed << " lost BAR commands";
        EXPECT_GT(run.faultStats.dropped, 0u) << "seed " << seed;
    }
}

TEST(Chaos, AckPiggybackEquivalentToStandaloneAcks) {
    // Envelope coalescing + piggybacked acks must not change any protocol
    // outcome: the same seeded chaos deployment completes both projects
    // whether acks ride data batches or pay their own frames.
    for (std::uint64_t seed : {11ull, 12ull}) {
        const auto batched = runChaosDeployment(seed, /*batching=*/true);
        const auto standalone = runChaosDeployment(seed, /*batching=*/false);
        EXPECT_TRUE(batched.done) << "seed " << seed;
        EXPECT_TRUE(standalone.done) << "seed " << seed;
        EXPECT_EQ(batched.msmDone, standalone.msmDone) << "seed " << seed;
        EXPECT_EQ(batched.barDone, standalone.barDone) << "seed " << seed;
    }
}

TEST(Chaos, TraceDeterministicUnderSeed) {
    // Same seed, same deployment: bit-identical event traces and fault
    // decisions. Different seed: a different trace.
    const auto a1 = runChaosDeployment(7);
    const auto a2 = runChaosDeployment(7);
    EXPECT_EQ(a1.traceHash, a2.traceHash);
    EXPECT_EQ(a1.faultStats.dropped, a2.faultStats.dropped);
    EXPECT_EQ(a1.faultStats.duplicated, a2.faultStats.duplicated);
    EXPECT_EQ(a1.faultStats.deadLetters, a2.faultStats.deadLetters);
    const auto b = runChaosDeployment(8);
    EXPECT_NE(a1.traceHash, b.traceHash);
}

/// Multi-hop routing under every fault kind. Four servers form a diamond
/// of equal-latency links (project -> relayA|relayB -> edge), so the
/// project <-> edge route is a latency tie that the tie-break decides;
/// workers hang off the edge and both relays. The plan drops, duplicates
/// and reorders everywhere, cuts one diamond edge for a while, partitions
/// relayB's side off, and crashes and restarts the edge server. The
/// executables are synthetic (no MD), so the trace depends on routing,
/// fault injection and the control plane alone.
struct GoldenRouteRun {
    bool done = false;
    std::uint64_t traceHash = 0;
    net::FaultStats faultStats;
    net::LinkStats viaA;
    net::LinkStats viaB;
};

GoldenRouteRun runGoldenRouteScenario() {
    core::Deployment dep(1976);
    core::ServerConfig sc;
    sc.heartbeatInterval = 30.0;
    auto& project = dep.addServer("project", sc);
    auto& relayA = dep.addServer("relayA", sc);
    auto& relayB = dep.addServer("relayB", sc);
    auto& edge = dep.addServer("edge", sc);
    dep.connectServers(project, relayA, core::links::dataCenter());
    dep.connectServers(project, relayB, core::links::dataCenter());
    dep.connectServers(relayA, edge, core::links::dataCenter());
    dep.connectServers(relayB, edge, core::links::dataCenter());

    core::WorkerConfig wc;
    wc.heartbeatInterval = 30.0;
    std::vector<net::NodeId> relayBSide{relayB.id()};
    for (int w = 0; w < 6; ++w) {
        auto& home = w < 3 ? edge : (w < 5 ? relayA : relayB);
        auto& worker =
            dep.addWorker("w" + std::to_string(w), home, wc,
                          echoRegistry(20.0), core::links::intraCluster());
        if (&home == &relayB) relayBSide.push_back(worker.id());
    }

    net::FaultPlan plan;
    plan.seed = 1976;
    plan.defaultProfile.dropProbability = 0.05;
    plan.defaultProfile.duplicateProbability = 0.05;
    plan.defaultProfile.reorderProbability = 0.1;
    plan.cutLink(project.id(), relayA.id(), 20.0, 60.0);
    plan.partition(relayBSide, 70.0, 110.0);
    plan.crashNode(edge.id(), 120.0, 170.0);
    dep.setFaultPlan(plan);

    project.createProject({.name = "golden-route"},
                          std::make_unique<FixedController>(60));

    GoldenRouteRun run;
    run.done = dep.runUntilDone(1e6);
    run.traceHash = dep.network().traceHash();
    run.faultStats = dep.network().faultStats();
    run.viaA = dep.network().linkStats(relayA.id(), edge.id());
    run.viaB = dep.network().linkStats(relayB.id(), edge.id());
    return run;
}

/// The whole delivery/fault trace of the scenario above, pinned. Routing
/// is part of the trace (every hop's link picks the chaos draws and the
/// delivery times), so a routing change that is not bit-identical —
/// another tie-break, a stale route after a cut, heal, crash or restart —
/// fails here.
TEST(Chaos, GoldenMultiHopTraceHashIsPinned) {
    const auto run = runGoldenRouteScenario();
    EXPECT_TRUE(run.done);
    // The scenario really exercises what the pin is meant to cover.
    EXPECT_GT(run.faultStats.dropped, 0u);
    EXPECT_GT(run.faultStats.duplicated, 0u);
    EXPECT_GT(run.faultStats.delayed, 0u);
    EXPECT_GT(run.faultStats.deadLetters, 0u);
    EXPECT_GE(run.faultStats.linkCuts, 3u); // the timed cut + the partition
    EXPECT_EQ(run.faultStats.crashes, 1u);
    // The tie-break sends project <-> edge traffic via relayA; the cut
    // moves it onto relayB for a while.
    EXPECT_GT(run.viaA.messages, 0u);
    EXPECT_GT(run.viaB.messages, 0u);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(run.traceHash));
    EXPECT_EQ(run.traceHash, 0xb30e43d68237304dull) << "trace hash is " << hex;
}

TEST(Chaos, DuplicateDeliveryIsIdempotent) {
    // Every message on every link is delivered twice; the wire layer's
    // id-based dedup must make the application see each exactly once.
    core::Deployment dep(11);
    auto& server = dep.addServer("s0");
    auto& worker = dep.addWorker("w0", server, core::WorkerConfig{},
                                 echoRegistry(10.0),
                                 core::links::intraCluster());
    net::FaultPlan plan;
    plan.seed = 11;
    plan.defaultProfile.duplicateProbability = 1.0;
    dep.setFaultPlan(plan);

    auto ctrl = std::make_unique<FixedController>(5);
    auto* c = ctrl.get();
    server.createProject({.name = "dup"}, std::move(ctrl));
    ASSERT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(c->results.size(), 5u); // exactly once each
    EXPECT_EQ(server.stats().commandsCompleted, 5u);
    EXPECT_GT(dep.network().faultStats().duplicated, 0u);
    EXPECT_GT(worker.wireStats().duplicatesDropped +
                  server.wireStats().duplicatesDropped,
              0u);
}

TEST(Chaos, TransientPartitionHeals) {
    // The worker side is unreachable for a while mid-run; retransmits
    // carry the protocol across the outage and the project completes.
    core::Deployment dep(13);
    auto& s0 = dep.addServer("s0");
    auto& s1 = dep.addServer("s1");
    dep.connectServers(s0, s1, core::links::dataCenter());
    auto& w0 = dep.addWorker("w0", s1, core::WorkerConfig{},
                             echoRegistry(50.0), core::links::intraCluster());
    auto& w1 = dep.addWorker("w1", s1, core::WorkerConfig{},
                             echoRegistry(50.0), core::links::intraCluster());

    net::FaultPlan plan;
    plan.seed = 13;
    plan.partition({s1.id(), w0.id(), w1.id()}, 100.0, 250.0);
    dep.setFaultPlan(plan);

    auto ctrl = std::make_unique<FixedController>(8);
    auto* c = ctrl.get();
    s0.createProject({.name = "partitioned"}, std::move(ctrl));
    ASSERT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(c->results.size(), 8u);
    EXPECT_GE(dep.network().faultStats().linkCuts, 1u);
    // The outage actually forced retransmissions somewhere.
    std::uint64_t retransmits = s0.wireStats().retransmits +
                                s1.wireStats().retransmits +
                                w0.wireStats().retransmits +
                                w1.wireStats().retransmits;
    EXPECT_GT(retransmits, 0u);
}

TEST(Chaos, CheckpointHandoffUnderLossyLinks) {
    // A worker dies mid-command on a lossy network; the replacement must
    // resume from the newest streamed checkpoint, and the stored
    // trajectory must stay contiguous (no gaps, no duplicated frames).
    core::Deployment dep(17);
    core::ServerConfig sc;
    sc.heartbeatInterval = 30.0;
    auto& server = dep.addServer("s0", sc);

    auto model = md::hairpinGoModel();
    core::MsmControllerParams mp;
    mp.model = model;
    mp.startingConformations = md::makeUnfoldedConformations(model, 2, 9);
    mp.tasksPerStart = 1;
    mp.segmentSteps = 2000; // 400 s per command at 0.2 s/step
    mp.maxGenerations = 1;
    mp.pipeline.numClusters = 8;
    mp.pipeline.snapshotStride = 2;
    mp.simulation.integrator.temperature = 0.5;
    mp.simulation.sampleInterval = 50;
    mp.seed = 17;
    auto controller = std::make_unique<core::MsmController>(mp);
    auto* msm = controller.get();
    server.createProject({.name = "handoff"}, std::move(controller));

    core::ExecutableRegistry reg;
    reg.add("mdrun",
            core::makeMdrunExecutable(core::linearDurationModel(0.2)));
    core::WorkerConfig wc;
    wc.heartbeatInterval = 30.0;
    auto& doomed = dep.addWorker("doomed", server, wc, std::move(reg),
                                 core::links::intraCluster());
    doomed.failAfter(150.0); // dies with ~250 s of its command left
    core::ExecutableRegistry reg2;
    reg2.add("mdrun",
             core::makeMdrunExecutable(core::linearDurationModel(0.2)));
    dep.addWorker("rescuer", server, wc, std::move(reg2),
                  core::links::intraCluster());

    net::FaultPlan plan;
    plan.seed = 17;
    plan.defaultProfile.dropProbability = 0.1; // checkpoints + acks drop too
    dep.setFaultPlan(plan);

    ASSERT_TRUE(dep.runUntilDone(1e6));
    EXPECT_GE(server.stats().commandsRequeued, 1u);
    // The streamed checkpoints travelled the handoff path as shared
    // buffers: the scheduler adopted bytes by reference.
    EXPECT_GT(server.schedulerStats().checkpointUpdates, 0u);
    EXPECT_GT(server.schedulerStats().checkpointBytesShared, 0u);
    for (const auto& [id, traj] : msm->trajectories()) {
        for (std::size_t f = 1; f < traj.numFrames(); ++f)
            EXPECT_EQ(traj.frame(f).step - traj.frame(f - 1).step, 50)
                << "trajectory " << id << " frame " << f;
    }
}

TEST(Chaos, WorkerFailsOverToAlternateServer) {
    // The worker's closest server dies for good while the project lives
    // on another server. After its reliable sends exhaust their
    // retransmits, the worker re-targets the undelivered message at a
    // configured fallback server and the project still completes.
    core::Deployment dep(19);
    auto& primary = dep.addServer("primary");
    auto& backup = dep.addServer("backup");
    dep.connectServers(primary, backup, core::links::dataCenter());

    core::WorkerConfig wc;
    wc.rpc.backoff = net::BackoffPolicy{5.0, 2.0, 20.0, 0.2};
    wc.rpc.maxAttempts = 3; // fail over quickly
    auto& worker = dep.addWorker("w0", primary, wc, echoRegistry(50.0),
                                 core::links::intraCluster());
    dep.addFallbackServer(worker, backup, core::links::dataCenter());

    net::FaultPlan plan;
    plan.crashNode(primary.id(), 60.0); // never restarts
    dep.setFaultPlan(plan);

    auto ctrl = std::make_unique<FixedController>(6);
    auto* c = ctrl.get();
    backup.createProject({.name = "failover"}, std::move(ctrl));
    ASSERT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(c->results.size(), 6u);
    EXPECT_GE(worker.stats().serverFailovers, 1u);
    EXPECT_EQ(worker.currentServer(), backup.id());
}

/// Submits an initial command batch at project start and accepts late
/// submissions mid-run; records trajectoryIds in completion order.
class LateSubmitController : public core::Controller {
public:
    LateSubmitController(std::vector<core::CommandSpec> initial, int expected)
        : initial_(std::move(initial)), expected_(expected) {}
    void onProjectStart(core::ProjectContext& ctx) override {
        ctx_ = &ctx;
        for (auto& spec : initial_) ctx.submitCommand(std::move(spec));
    }
    void submitLate(core::CommandSpec spec) {
        ctx_->submitCommand(std::move(spec));
    }
    void onCommandFinished(core::ProjectContext&,
                           const core::CommandResult& r) override {
        completionOrder.push_back(r.trajectoryId);
    }
    bool isDone(const core::ProjectContext&) const override {
        return int(completionOrder.size()) == expected_;
    }
    std::vector<int> completionOrder;

private:
    std::vector<core::CommandSpec> initial_;
    int expected_;
    core::ProjectContext* ctx_ = nullptr;
};

core::CommandSpec echoSpec(int trajectoryId, int cores) {
    core::CommandSpec spec;
    spec.executable = "echo";
    spec.steps = 10;
    spec.trajectoryId = trajectoryId;
    spec.preferredCores = cores;
    return spec;
}

TEST(Chaos, LeaseExpiryRequeueBeatsNewerSamePriorityWork) {
    // Requeue-to-head ordering end to end: command A is lost to a relay
    // crash and recovered by lease expiry while newer same-priority work G
    // is already waiting. The recovered A must land at the head of its
    // priority level and run before G.
    core::Deployment dep(29);
    core::ServerConfig sc;
    sc.heartbeatInterval = 30.0;
    auto& project = dep.addServer("project", sc);
    auto& relay = dep.addServer("relay", sc);
    dep.connectServers(project, relay, core::links::dataCenter());

    core::WorkerConfig wc;
    wc.heartbeatInterval = 30.0;
    wc.cores = 1; // doomed can only ever hold the 1-core command A
    auto& doomed = dep.addWorker("doomed", relay, wc, echoRegistry(400.0),
                                 core::links::intraCluster());
    wc.cores = 2;
    dep.addWorker("survivor", project, wc, echoRegistry(400.0),
                  core::links::intraCluster());

    net::FaultPlan plan;
    plan.crashNode(relay.id(), 100.0); // never restarts
    dep.setFaultPlan(plan);
    doomed.failAfter(100.0); // dies with the relay: no WorkerFailed signal

    // F (2 cores) occupies the survivor; A (1 core) lands on doomed.
    std::vector<core::CommandSpec> initial;
    initial.push_back(echoSpec(0, 2)); // F
    initial.push_back(echoSpec(1, 1)); // A
    auto ctrl =
        std::make_unique<LateSubmitController>(std::move(initial), 3);
    auto* c = ctrl.get();
    project.createProject({.name = "lease-order"}, std::move(ctrl));

    // G arrives while A's original run is still leased out.
    dep.loop().schedule(60.0, [c] { c->submitLate(echoSpec(2, 2)); });

    ASSERT_TRUE(dep.runUntilDone(1e6));
    EXPECT_GE(project.stats().leasesExpired, 1u);
    EXPECT_GE(project.stats().commandsRequeued, 1u);
    // F finishes on the survivor, then the recovered A beats the newer G.
    EXPECT_EQ(c->completionOrder, (std::vector<int>{0, 1, 2}));
}

TEST(Chaos, LeaseExpiryRequeuesAfterRelayCrash) {
    // A worker reports to a relay server while running a command leased
    // by the project server. Relay and worker die together, so no
    // WorkerFailed signal can ever reach the project server — only the
    // command lease notices, expires, and requeues onto the survivor.
    core::Deployment dep(23);
    core::ServerConfig sc;
    sc.heartbeatInterval = 30.0;
    auto& project = dep.addServer("project", sc);
    auto& relay = dep.addServer("relay", sc);
    dep.connectServers(project, relay, core::links::dataCenter());

    core::WorkerConfig wc;
    wc.heartbeatInterval = 30.0;
    auto& doomed = dep.addWorker("doomed", relay, wc, echoRegistry(200.0),
                                 core::links::intraCluster());
    dep.addWorker("survivor", project, wc, echoRegistry(200.0),
                  core::links::intraCluster());

    net::FaultPlan plan;
    plan.crashNode(relay.id(), 100.0); // never restarts
    dep.setFaultPlan(plan);
    doomed.failAfter(100.0);

    auto ctrl = std::make_unique<FixedController>(3);
    auto* c = ctrl.get();
    project.createProject({.name = "leased"}, std::move(ctrl));
    ASSERT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(c->results.size(), 3u);
    EXPECT_GE(project.stats().leasesExpired, 1u);
    EXPECT_GE(project.stats().commandsRequeued, 1u);
}

} // namespace
} // namespace cop
