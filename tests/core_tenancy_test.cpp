// Multi-tenant scheduling plane: weighted DRR claim shares, admission
// control end to end (controller, client and worker backpressure), park
// queue hygiene across worker death, the consolidated metrics surface,
// and a chaos-seed sweep over a multi-tenant deployment.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/copernicus.hpp"
#include "core/plane_events.hpp"
#include "core/scheduler.hpp"

namespace cop::core {
namespace {

// ---- ShardedScheduler unit level ---------------------------------------

CommandSpec specFor(ProjectId tenant, CommandId id, std::size_t bytes = 0) {
    CommandSpec spec;
    spec.id = id;
    spec.projectId = tenant;
    spec.executable = "echo";
    spec.steps = 10;
    if (bytes > 0)
        spec.input = SharedBytes(std::vector<std::uint8_t>(bytes, 0xAB));
    return spec;
}

/// Fills `sched` with `perTenant` one-core commands on every tenant.
void backlog(ShardedScheduler& sched, const std::vector<ProjectId>& tenants,
             int perTenant, CommandId& nextId) {
    for (ProjectId t : tenants)
        for (int i = 0; i < perTenant; ++i)
            EXPECT_TRUE(sched.push(t, specFor(t, nextId++)).admitted);
}

TEST(ShardedScheduler, WeightedDrrSplitsMultiCoreOffers) {
    // Three backlogged tenants, weights 1:2:4, repeatedly offered 8-core
    // workloads: granted cores must converge to weight proportion.
    SegmentStore store;
    ShardedScheduler sched{store};
    sched.addTenant(1, TenantConfig{1.0});
    sched.addTenant(2, TenantConfig{2.0});
    sched.addTenant(3, TenantConfig{4.0});
    CommandId next = 1;
    backlog(sched, {1, 2, 3}, 400, next);

    // Offer exactly the weight sum per call so each claim tiles a whole
    // DRR round; remainder cores would otherwise skew small samples.
    const std::vector<std::string> execs = {"echo"};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sched.claim(execs, 7, net::NodeId(1)).size(), 7u);

    const double total = 700.0;
    const double weightSum = 7.0;
    for (ProjectId t : {1, 2, 3}) {
        const double got = double(sched.tenantStats(t).coresGranted);
        const double expected =
            total * sched.tenantConfig(t).weight / weightSum;
        EXPECT_GT(got, 0.85 * expected) << "tenant " << t;
        EXPECT_LT(got, 1.15 * expected) << "tenant " << t;
    }
}

TEST(ShardedScheduler, EqualWeightSingleCoreOffersStayEven) {
    SegmentStore store;
    ShardedScheduler sched{store};
    for (ProjectId t = 1; t <= 4; ++t) sched.addTenant(t, TenantConfig{});
    CommandId next = 1;
    backlog(sched, {1, 2, 3, 4}, 200, next);

    const std::vector<std::string> execs = {"echo"};
    for (int i = 0; i < 400; ++i)
        EXPECT_EQ(sched.claim(execs, 1, net::NodeId(1)).size(), 1u);

    for (ProjectId t = 1; t <= 4; ++t) {
        const auto claimed = sched.tenantStats(t).commandsClaimed;
        EXPECT_GE(claimed, 90u) << "tenant " << t;
        EXPECT_LE(claimed, 110u) << "tenant " << t;
    }
}

TEST(ShardedScheduler, ExtremeWeightRatioCannotStarveLightTenant) {
    // Weight 100 vs 1: the light tenant's share shrinks but its deficit
    // still accrues every service round, so it keeps making progress.
    SegmentStore store;
    ShardedScheduler sched{store};
    sched.addTenant(1, TenantConfig{100.0});
    sched.addTenant(2, TenantConfig{1.0});
    CommandId next = 1;
    backlog(sched, {1, 2}, 300, next);

    const std::vector<std::string> execs = {"echo"};
    for (int i = 0; i < 40; ++i) sched.claim(execs, 8, net::NodeId(1));

    const auto heavy = sched.tenantStats(1).commandsClaimed;
    const auto light = sched.tenantStats(2).commandsClaimed;
    EXPECT_GT(light, 0u);
    EXPECT_GT(heavy, light);
}

TEST(ShardedScheduler, IdleTenantCannotBankDeficit) {
    // A tenant whose shard drained forfeits its deficit: after sitting
    // idle through many service rounds it must not burst ahead of a
    // steadily backlogged tenant once it has work again.
    SegmentStore store;
    ShardedScheduler sched{store};
    sched.addTenant(1, TenantConfig{});
    sched.addTenant(2, TenantConfig{});
    CommandId next = 1;
    backlog(sched, {1}, 400, next); // tenant 2 idle

    const std::vector<std::string> execs = {"echo"};
    for (int i = 0; i < 30; ++i) sched.claim(execs, 8, net::NodeId(1));

    backlog(sched, {2}, 100, next);
    const auto before1 = sched.tenantStats(1).commandsClaimed;
    for (int i = 0; i < 10; ++i) sched.claim(execs, 8, net::NodeId(1));
    const auto gained1 = sched.tenantStats(1).commandsClaimed - before1;
    const auto gained2 = sched.tenantStats(2).commandsClaimed;
    // Equal weights from here on: roughly half the 80 offered cores each,
    // not an 80-core make-up burst for tenant 2.
    EXPECT_GE(gained1, 30u);
    EXPECT_GE(gained2, 30u);
}

TEST(ShardedScheduler, AdmissionQuotaRejectsWithRetryAfter) {
    SegmentStore store;
    ShardedScheduler sched{store};
    TenantConfig cfg;
    cfg.maxPendingCommands = 2;
    cfg.admissionRetryAfter = 12.5;
    sched.addTenant(1, cfg);

    EXPECT_TRUE(sched.push(1, specFor(1, 1)).admitted);
    EXPECT_TRUE(sched.push(1, specFor(1, 2)).admitted);
    const auto rejected = sched.push(1, specFor(1, 3));
    EXPECT_FALSE(rejected.admitted);
    EXPECT_DOUBLE_EQ(rejected.retryAfter, 12.5);
    EXPECT_EQ(sched.pendingOf(1), 2u);
    EXPECT_EQ(sched.tenantStats(1).admissionRejections, 1u);

    // Forced pushes (requeues, trusted controller paths) bypass the quota.
    EXPECT_TRUE(sched.push(1, specFor(1, 4), /*force=*/true).admitted);
    EXPECT_EQ(sched.pendingOf(1), 3u);
}

TEST(ShardedScheduler, ByteQuotaCountsPendingPayloadBytes) {
    SegmentStore store;
    ShardedScheduler sched{store};
    TenantConfig cfg;
    cfg.maxPendingBytes = 1000;
    sched.addTenant(1, cfg);

    EXPECT_TRUE(sched.push(1, specFor(1, 1, 600)).admitted);
    EXPECT_EQ(sched.pendingBytesOf(1), 600u);
    EXPECT_FALSE(sched.push(1, specFor(1, 2, 600)).admitted);

    // Claiming the pending command frees its bytes for new submissions.
    EXPECT_EQ(sched.claim({"echo"}, 1, net::NodeId(1)).size(), 1u);
    EXPECT_EQ(sched.pendingBytesOf(1), 0u);
    EXPECT_TRUE(sched.push(1, specFor(1, 3, 600)).admitted);
}

TEST(ShardedScheduler, RequeueBypassesAdmission) {
    // Recovery must never be load-shed: a worker death may push a tenant
    // past its pending quota and that has to succeed.
    SegmentStore store;
    ShardedScheduler sched{store};
    TenantConfig cfg;
    cfg.maxPendingCommands = 2;
    sched.addTenant(1, cfg);
    EXPECT_TRUE(sched.push(1, specFor(1, 1)).admitted);
    EXPECT_TRUE(sched.push(1, specFor(1, 2)).admitted);
    EXPECT_EQ(sched.claim({"echo"}, 2, net::NodeId(7)).size(), 2u);

    EXPECT_TRUE(sched.push(1, specFor(1, 3)).admitted);
    EXPECT_TRUE(sched.push(1, specFor(1, 4)).admitted);
    EXPECT_EQ(sched.pendingOf(1), 2u); // at quota

    EXPECT_EQ(sched.requeueWorker(net::NodeId(7)).size(), 2u);
    EXPECT_EQ(sched.pendingOf(1), 4u); // over quota, by design
    EXPECT_EQ(sched.tenantStats(1).commandsRequeued, 2u);
}

TEST(ShardedScheduler, RestoreRejectsDeficitOutOfRange) {
    // claim() truncates the deficit to int, so a NaN or huge value from a
    // snapshot would be undefined behaviour there.
    SegmentStore store;
    ShardedScheduler sched{store};
    const TenantConfig cfg;
    sched.addTenant(1, cfg);
    EXPECT_TRUE(sched.push(1, specFor(1, 1)).admitted);
    BinaryWriter w;
    sched.serialize(w);
    const auto image = w.buffer();
    BinaryWriter configBytes;
    cfg.serialize(configBytes);
    // Tenant count, tenant id, config, then the deficit.
    const std::size_t deficitAt = 8 + 8 + configBytes.buffer().size();

    const auto restoreFrom = [](const std::vector<std::uint8_t>& bytes) {
        SegmentStore fresh;
        ShardedScheduler restored{fresh};
        BinaryReader r{std::span<const std::uint8_t>(bytes)};
        restored.restore(r);
    };
    for (const double ok : {0.0, 3.5, 1024.0}) {
        auto patched = image;
        std::memcpy(patched.data() + deficitAt, &ok, 8);
        EXPECT_NO_THROW(restoreFrom(patched)) << ok;
    }
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                             -1e300, 1024.5, 1e300}) {
        auto patched = image;
        std::memcpy(patched.data() + deficitAt, &bad, 8);
        EXPECT_THROW(restoreFrom(patched), cop::IoError) << bad;
    }
}

TEST(TenantConfig, DeserializeRejectsNegativeOrNanRetryAfter) {
    // The WAL record and the scheduler snapshot share this codec, so both
    // refuse a retry-after the wire would refuse in a shed reply.
    for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
        TenantConfig cfg;
        cfg.admissionRetryAfter = bad;
        BinaryWriter w;
        cfg.serialize(w);
        BinaryReader r{std::span<const std::uint8_t>(w.buffer())};
        EXPECT_THROW(TenantConfig::deserialize(r), cop::IoError) << bad;

        BinaryWriter record;
        event::TenantAdd{1, cfg, "p"}.encode(record);
        EXPECT_THROW(event::decode(WalRecordType::TenantAdd, record.buffer()),
                     cop::IoError)
            << bad;

        SegmentStore store;
        ShardedScheduler sched{store};
        EXPECT_THROW(sched.addTenant(1, cfg), cop::InvalidArgument) << bad;
    }
    TenantConfig zero;
    zero.admissionRetryAfter = 0.0;
    BinaryWriter w;
    zero.serialize(w);
    BinaryReader r{std::span<const std::uint8_t>(w.buffer())};
    EXPECT_EQ(TenantConfig::deserialize(r).admissionRetryAfter, 0.0);
}

// ---- Deployment level ---------------------------------------------------

ExecutableRegistry echoRegistry(double duration = 10.0) {
    ExecutableRegistry reg;
    reg.add("echo", [duration](const CommandSpec& cmd, int) {
        Execution e;
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

/// Submits `total` commands through the admission-checked path, topping
/// the backlog back up after every completion.
class GreedyController : public Controller {
public:
    explicit GreedyController(int total) : total_(total) {}
    void onProjectStart(ProjectContext& ctx) override { pump(ctx); }
    void onCommandFinished(ProjectContext& ctx,
                           const CommandResult&) override {
        ++finished_;
        pump(ctx);
    }
    bool isDone(const ProjectContext& ctx) const override {
        return finished_ >= total_ && ctx.outstandingCommands() == 0;
    }

    int finished() const { return finished_; }
    int rejections() const { return rejections_; }
    double lastRetryAfter() const { return lastRetryAfter_; }

private:
    void pump(ProjectContext& ctx) {
        while (submitted_ < total_) {
            CommandSpec spec;
            spec.executable = "echo";
            spec.steps = 10;
            spec.trajectoryId = submitted_;
            const auto r = ctx.trySubmitCommand(std::move(spec));
            if (!r.admitted) {
                ++rejections_;
                lastRetryAfter_ = r.retryAfter;
                return;
            }
            ++submitted_;
        }
    }

    int total_ = 0;
    int submitted_ = 0;
    int finished_ = 0;
    int rejections_ = 0;
    double lastRetryAfter_ = 0.0;
};

/// Submits `first` commands up front, then `onTrigger` more for every
/// client "go" command — work arriving long after workers went idle.
class TriggerController : public Controller {
public:
    TriggerController(int first, int onTrigger)
        : first_(first), onTrigger_(onTrigger), total_(first + onTrigger) {}
    void onProjectStart(ProjectContext& ctx) override {
        for (int i = 0; i < first_; ++i) submit(ctx);
    }
    void onCommandFinished(ProjectContext&, const CommandResult&) override {
        ++finished_;
    }
    std::string handleClientCommand(ProjectContext& ctx,
                                    const std::string& command) override {
        if (command != "go") return "unknown";
        for (int i = 0; i < onTrigger_; ++i) submit(ctx);
        return "ok";
    }
    bool isDone(const ProjectContext& ctx) const override {
        // Wait for the triggered batch too — the project must stay live
        // across the idle gap or the run ends before the client fires.
        return finished_ >= total_ && ctx.outstandingCommands() == 0;
    }
    int finished() const { return finished_; }

private:
    void submit(ProjectContext& ctx) {
        CommandSpec spec;
        spec.executable = "echo";
        spec.steps = 10;
        spec.trajectoryId = submitted_++;
        ctx.submitCommand(std::move(spec));
    }

    int first_ = 0;
    int onTrigger_ = 0;
    int total_ = 0;
    int submitted_ = 0;
    int finished_ = 0;
};

TEST(Tenancy, ProjectSpecControlsShardConfigAndOldOverloadKeepsDefaults) {
    Deployment dep(3);
    auto& server = dep.addServer("s0");

    const auto legacy =
        server.createProject({.name = "legacy"},
                             std::make_unique<GreedyController>(0));
    ProjectSpec spec;
    spec.name = "tuned";
    spec.tenant.weight = 3.0;
    spec.tenant.claimPolicy = ClaimPolicy::LargestFit;
    spec.tenant.maxPendingCommands = 5;
    spec.tenant.maxPendingBytes = 1 << 20;
    spec.tenant.admissionRetryAfter = 9.0;
    const auto tuned = server.createProject(
        std::move(spec), std::make_unique<GreedyController>(0));

    const auto& legacyCfg = server.scheduler().tenantConfig(legacy);
    EXPECT_DOUBLE_EQ(legacyCfg.weight, 1.0);
    EXPECT_EQ(legacyCfg.claimPolicy, ClaimPolicy::FirstFit); // the default
    EXPECT_EQ(legacyCfg.maxPendingCommands, 0u);
    EXPECT_DOUBLE_EQ(legacyCfg.admissionRetryAfter, 30.0);

    const auto& tunedCfg = server.scheduler().tenantConfig(tuned);
    EXPECT_DOUBLE_EQ(tunedCfg.weight, 3.0);
    EXPECT_EQ(tunedCfg.claimPolicy, ClaimPolicy::LargestFit);
    EXPECT_EQ(tunedCfg.maxPendingCommands, 5u);
    EXPECT_EQ(tunedCfg.maxPendingBytes, std::size_t(1) << 20);
    EXPECT_DOUBLE_EQ(tunedCfg.admissionRetryAfter, 9.0);
}

TEST(Tenancy, AdmissionRejectionsResolveThroughCompletions) {
    // Quota 4, 24 commands, 2 single-core workers: the controller is
    // rejected at the quota, re-pumps on completions, and still lands
    // every command.
    Deployment dep(5);
    auto& server = dep.addServer("s0");
    for (int w = 0; w < 2; ++w)
        dep.addWorker("w" + std::to_string(w), server, WorkerConfig{},
                      echoRegistry(10.0), links::intraCluster());

    auto ctrl = std::make_unique<GreedyController>(24);
    auto* greedy = ctrl.get();
    ProjectSpec spec;
    spec.name = "quota";
    spec.tenant.maxPendingCommands = 4;
    spec.tenant.admissionRetryAfter = 7.5;
    const auto pid = server.createProject(std::move(spec), std::move(ctrl));

    EXPECT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(greedy->finished(), 24);
    EXPECT_GT(greedy->rejections(), 0);
    EXPECT_DOUBLE_EQ(greedy->lastRetryAfter(), 7.5);

    const auto metrics = server.metricsSnapshot();
    ASSERT_EQ(metrics.tenants.size(), 1u);
    EXPECT_EQ(metrics.tenants[0].id, pid);
    EXPECT_EQ(metrics.tenants[0].counters.pendingPeak, 4u);
    EXPECT_EQ(metrics.tenants[0].counters.admissionRejections,
              std::uint64_t(greedy->rejections()));
    EXPECT_TRUE(metrics.tenants[0].done);
}

TEST(Tenancy, ClientControlCommandShedWithRetryAfterWhileOverQuota) {
    // One worker, quota 2: between waves the backlog sits exactly at the
    // quota, so a mid-run control command is load-shed with the tenant's
    // retry-after while plain status stays exempt.
    Deployment dep(7);
    auto& server = dep.addServer("s0");
    dep.addWorker("w0", server, WorkerConfig{}, echoRegistry(50.0),
                  links::intraCluster());

    auto ctrl = std::make_unique<GreedyController>(10);
    ProjectSpec spec;
    spec.name = "quota";
    spec.tenant.maxPendingCommands = 2;
    spec.tenant.admissionRetryAfter = 30.0;
    const auto pid = server.createProject(std::move(spec), std::move(ctrl));

    auto& client = dep.addClient("cli", server, links::dataCenter());
    dep.loop().schedule(75.0, [&] {
        client.sendCommand(server.id(), pid, "poke");
    });
    dep.loop().schedule(80.0, [&] {
        EXPECT_FALSE(client.lastAccepted());
        EXPECT_DOUBLE_EQ(client.lastRetryAfter(), 30.0);
        EXPECT_EQ(client.responsesShed(), 1u);
        client.requestStatus(server.id(), pid); // status is never shed
    });
    dep.loop().schedule(85.0, [&] {
        EXPECT_TRUE(client.lastAccepted());
        EXPECT_EQ(client.responsesShed(), 1u);
    });

    EXPECT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(server.stats().clientRequestsShed, 1u);
    EXPECT_EQ(client.responsesReceived(), 2u);
}

TEST(Tenancy, ParkQueueBackpressureRetryAfterStretchesWorkerBackoff) {
    // One command, three workers, park capacity one: the losing worker is
    // bounced NoWork with the server's retry-after, which must floor its
    // poll backoff (counted as a backpressure deferral) — and everything
    // still completes once more work appears.
    Deployment dep(9);
    ServerConfig sc;
    sc.maxParkedRequests = 1;
    sc.parkRetryAfter = 40.0; // above the default 30s-base poll backoff
    auto& server = dep.addServer("s0", sc);
    std::vector<Worker*> workers;
    for (int w = 0; w < 3; ++w)
        workers.push_back(&dep.addWorker("w" + std::to_string(w), server,
                                         WorkerConfig{}, echoRegistry(30.0),
                                         links::intraCluster()));

    auto ctrl = std::make_unique<TriggerController>(1, 3);
    auto* trig = ctrl.get();
    const auto pid =
        server.createProject({.name = "trickle"}, std::move(ctrl));

    auto& client = dep.addClient("cli", server, links::dataCenter());
    dep.loop().schedule(35.0, [&] {
        client.sendCommand(server.id(), pid, "go");
    });

    EXPECT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(trig->finished(), 4);
    EXPECT_GE(server.stats().parkRejections, 1u);
    std::uint64_t deferrals = 0;
    for (const auto* w : workers)
        deferrals += w->stats().backpressureDeferrals;
    EXPECT_GE(deferrals, 1u);
}

TEST(Tenancy, IdleParkedWorkerSurvivesSweepAfterHavingRunWork) {
    // Regression for the park-prune rule: a worker that ran commands,
    // went idle and parked is silent (no heartbeats without running
    // commands) and will be "swept" once the failure deadline passes —
    // but its stale last heartbeat still lists the finished commands.
    // Its park slot must survive, or late-arriving work strands it.
    Deployment dep(11);
    ServerConfig sc;
    sc.heartbeatInterval = 5.0; // sweep deadline: 10 s
    auto& server = dep.addServer("s0", sc);
    WorkerConfig wc;
    wc.heartbeatInterval = 5.0;
    dep.addWorker("w0", server, wc, echoRegistry(2.0),
                  links::intraCluster());

    auto ctrl = std::make_unique<TriggerController>(1, 1);
    auto* trig = ctrl.get();
    const auto pid = server.createProject({.name = "lazy"}, std::move(ctrl));

    auto& client = dep.addClient("cli", server, links::dataCenter());
    // Fires long after the worker (idle since ~t=2) has been swept.
    dep.loop().schedule(40.0, [&] {
        client.sendCommand(server.id(), pid, "go");
    });

    EXPECT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(trig->finished(), 2);
    EXPECT_GE(server.stats().workersFailed, 1u); // it *was* swept
    EXPECT_EQ(server.stats().parkedRequestsDropped, 0u);
}

TEST(Tenancy, DeadMidRunWorkerHandsOffToParkedPeer) {
    // w0 claims the only command and dies mid-run; parked w1 must receive
    // the requeued command through the unpark path.
    Deployment dep(13);
    ServerConfig sc;
    sc.heartbeatInterval = 5.0;
    auto& server = dep.addServer("s0", sc);
    WorkerConfig wc;
    wc.heartbeatInterval = 5.0;
    auto& w0 = dep.addWorker("w0", server, wc, echoRegistry(100.0),
                             links::intraCluster());
    dep.addWorker("w1", server, wc, echoRegistry(100.0),
                  links::intraCluster());

    auto ctrl = std::make_unique<TriggerController>(1, 0);
    auto* trig = ctrl.get();
    server.createProject({.name = "solo"}, std::move(ctrl));
    w0.failAfter(20.0);

    EXPECT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(trig->finished(), 1);
    EXPECT_GE(server.stats().workersFailed, 1u);
    EXPECT_GE(server.stats().commandsRequeued, 1u);
}

TEST(Tenancy, MetricsSnapshotAggregatesMatchLegacyViews) {
    Deployment dep(15);
    auto& server = dep.addServer("s0");
    WorkerConfig wc;
    wc.cores = 4;
    dep.addWorker("w0", server, wc, echoRegistry(5.0),
                  links::intraCluster());

    ProjectSpec a;
    a.name = "alpha";
    a.tenant.weight = 2.0;
    server.createProject(std::move(a), std::make_unique<GreedyController>(6));
    ProjectSpec b;
    b.name = "beta";
    server.createProject(std::move(b), std::make_unique<GreedyController>(4));

    EXPECT_TRUE(dep.runUntilDone(1e6));

    const auto metrics = server.metricsSnapshot();
    ASSERT_EQ(metrics.tenants.size(), 2u);
    EXPECT_EQ(metrics.tenants[0].name, "alpha");
    EXPECT_DOUBLE_EQ(metrics.tenants[0].config.weight, 2.0);
    EXPECT_EQ(metrics.tenants[0].counters.commandsClaimed, 6u);
    EXPECT_EQ(metrics.tenants[1].name, "beta");
    EXPECT_EQ(metrics.tenants[1].counters.commandsClaimed, 4u);
    for (const auto& t : metrics.tenants) {
        EXPECT_EQ(t.pending, 0u);
        EXPECT_EQ(t.inFlight, 0u);
        EXPECT_EQ(t.outstanding, 0u);
        EXPECT_TRUE(t.done);
    }

    // The legacy accessors are views over the same components.
    EXPECT_EQ(metrics.server.commandsCompleted,
              server.stats().commandsCompleted);
    EXPECT_EQ(metrics.scheduler.commandsClaimed,
              server.schedulerStats().commandsClaimed);
    EXPECT_EQ(metrics.wire.sent, server.wireStats().sent);
}

TEST(Tenancy, HeartbeatSummariesKeepRemoteLeasesAliveAcrossEdges) {
    // Worker on an edge server, project one hop away: renewals must ride
    // aggregated HeartbeatSummary digests (never per-heartbeat forwards)
    // and still prevent any lease expiry over a long command.
    Deployment dep(17);
    ServerConfig sc;
    sc.heartbeatInterval = 20.0; // lease: 60 s, command spans 200 s
    auto& project = dep.addServer("project", sc);
    auto& edge = dep.addServer("edge", sc);
    dep.connectServers(project, edge, links::dataCenter());
    WorkerConfig wc;
    wc.heartbeatInterval = 20.0;
    dep.addWorker("w0", edge, wc, echoRegistry(200.0),
                  links::intraCluster());

    auto ctrl = std::make_unique<TriggerController>(1, 0);
    auto* trig = ctrl.get();
    project.createProject({.name = "far"}, std::move(ctrl));

    EXPECT_TRUE(dep.runUntilDone(1e6));
    EXPECT_EQ(trig->finished(), 1);
    EXPECT_GE(edge.stats().heartbeatSummariesSent, 2u);
    EXPECT_GE(edge.stats().leaseRenewalsAggregated, 2u);
    EXPECT_GE(project.stats().heartbeatSummariesReceived, 2u);
    EXPECT_EQ(project.stats().leasesExpired, 0u);
    EXPECT_EQ(project.stats().commandsRequeued, 0u);
}

TEST(Tenancy, ChaosSeedSweepCompletesEveryTenant) {
    // Multi-tenant deployment under drop/duplicate/reorder chaos across
    // several seeds: every tenant's commands complete exactly once.
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Deployment dep(seed);
        auto& server = dep.addServer("s0");
        WorkerConfig wc;
        wc.cores = 2;
        for (int w = 0; w < 4; ++w)
            dep.addWorker("w" + std::to_string(w), server, wc,
                          echoRegistry(10.0), links::intraCluster());

        net::FaultPlan plan;
        plan.seed = seed * 1000 + 7;
        plan.defaultProfile.dropProbability = 0.05;
        plan.defaultProfile.duplicateProbability = 0.05;
        plan.defaultProfile.reorderProbability = 0.05;
        dep.setFaultPlan(plan);

        std::vector<GreedyController*> ctrls;
        for (int p = 0; p < 3; ++p) {
            auto ctrl = std::make_unique<GreedyController>(20);
            ctrls.push_back(ctrl.get());
            ProjectSpec spec;
            spec.name = "tenant" + std::to_string(p);
            spec.tenant.weight = double(p + 1);
            spec.tenant.maxPendingCommands = 10;
            server.createProject(std::move(spec), std::move(ctrl));
        }

        EXPECT_TRUE(dep.runUntilDone(1e6));
        for (const auto* c : ctrls) EXPECT_EQ(c->finished(), 20);
    }
}

} // namespace
} // namespace cop::core
