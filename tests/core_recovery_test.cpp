// Crash-recovery chaos: kill and resurrect the project server mid-study
// from its WAL and verify the rebuilt plane is *schedule-transparent* —
// the surviving run is trace-hash-identical to one that never crashed.

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "core/backends.hpp"
#include "core/bar_controller.hpp"
#include "core/copernicus.hpp"
#include "core/msm_controller.hpp"
#include "mdlib/units.hpp"
#include "util/random.hpp"

namespace cop::core {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("cop_recovery_" + tag + "_" +
                std::to_string(Rng(std::uint64_t(::getpid())).next()));
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

ExecutableRegistry bothRegistries() {
    ExecutableRegistry reg;
    reg.add("mdrun", makeMdrunExecutable(linearDurationModel(0.05)));
    reg.add("fe_sample", makeFeSampleExecutable(linearDurationModel(0.001)));
    return reg;
}

MsmControllerParams msmParams(std::uint64_t seed) {
    MsmControllerParams p;
    p.model = md::hairpinGoModel();
    p.startingConformations = md::makeUnfoldedConformations(p.model, 2, seed);
    p.tasksPerStart = 2;
    p.segmentSteps = 1000;
    p.maxGenerations = 2;
    p.pipeline.numClusters = 15;
    p.pipeline.snapshotStride = 2;
    p.pipeline.medoidSweeps = 1;
    p.simulation.integrator.kind = md::IntegratorKind::LangevinBAOAB;
    p.simulation.integrator.temperature = 0.5;
    p.simulation.integrator.friction = 0.5;
    p.simulation.sampleInterval = 25;
    p.seed = seed;
    return p;
}

BarControllerParams barParams(std::uint64_t seed) {
    BarControllerParams p;
    p.samplesPerCommand = 500;
    p.targetError = 0.05;
    p.seed = seed;
    return p;
}

struct RunOutcome {
    bool done = false;
    std::uint64_t traceHash = 0;
    double msmMinRmsd = 0.0;
    std::size_t msmGenerations = 0;
    double barDeltaF = 0.0;
    double barError = 0.0;
    int barRounds = 0;
    std::uint64_t commandsCompleted = 0;
    std::uint64_t deadLetters = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t walRecords = 0;
    std::uint64_t storeSpills = 0;
    std::uint64_t snapshotsAtCrash = 0;
    ServerStats stats;
};

/// The ServerStats counters Server::apply() owns: recovery rebuilds them
/// from snapshot + log, so a crash must not change any of them.
void expectDurableCountersEqual(const ServerStats& a, const ServerStats& b,
                                std::uint64_t seed) {
    EXPECT_EQ(a.commandsAssigned, b.commandsAssigned) << "seed " << seed;
    EXPECT_EQ(a.commandsCompleted, b.commandsCompleted) << "seed " << seed;
    EXPECT_EQ(a.commandsFailed, b.commandsFailed) << "seed " << seed;
    EXPECT_EQ(a.workersFailed, b.workersFailed) << "seed " << seed;
    EXPECT_EQ(a.commandsRequeued, b.commandsRequeued) << "seed " << seed;
    EXPECT_EQ(a.heartbeatsReceived, b.heartbeatsReceived) << "seed " << seed;
    EXPECT_EQ(a.duplicateResultsDropped, b.duplicateResultsDropped)
        << "seed " << seed;
    EXPECT_EQ(a.leasesExpired, b.leasesExpired) << "seed " << seed;
    EXPECT_EQ(a.parkedRequestsDropped, b.parkedRequestsDropped)
        << "seed " << seed;
}

enum class Crash { None, Transparent, FullLoss };

/// One MSM + one BAR study against a WAL-enabled server. `crash` wipes the
/// whole scheduler/lease/cache plane mid-study (and for FullLoss also the
/// endpoint's volatile wire state) and rebuilds it from snapshot + log.
RunOutcome runStudy(std::uint64_t seed, Crash crash,
                    const std::string& walDir,
                    std::uint64_t snapshotEvery = 150,
                    double crashAt = 111.377) {
    Deployment dep(seed);
    ServerConfig sc;
    sc.durability.walEnabled = true;
    sc.durability.walDir = walDir;
    sc.durability.snapshotEveryRecords = snapshotEvery;
    sc.durability.storeRamBytes = 32 * 1024; // force tiering mid-study
    auto& server = dep.addServer("s0", sc);
    for (int i = 0; i < 3; ++i)
        dep.addWorker("w" + std::to_string(i), server, WorkerConfig{},
                      bothRegistries(), links::intraCluster());

    auto msmCtrl = std::make_unique<MsmController>(msmParams(seed));
    auto* msm = msmCtrl.get();
    server.createProject({.name = "msm"}, std::move(msmCtrl));
    auto barCtrl = std::make_unique<BarController>(barParams(seed));
    auto* bar = barCtrl.get();
    server.createProject({.name = "bar"}, std::move(barCtrl));

    RunOutcome out;
    if (crash != Crash::None) {
        dep.loop().schedule(crashAt, [&server, crash, &dep, &out] {
            out.snapshotsAtCrash = server.wal()->stats().snapshots;
            if (crash == Crash::FullLoss) server.endpoint().reset();
            server.recoverFromWal();
            if (crash == Crash::FullLoss) {
                // A restart brings capacity with it; the fresh worker also
                // backstops assignments that died in the killed process's
                // transmit queues.
                dep.addWorker("respawn", server, WorkerConfig{},
                              bothRegistries(), links::intraCluster());
            }
        });
    }

    out.done = dep.runUntilDone(1e9);
    out.traceHash = dep.network().traceHash();
    out.msmMinRmsd = msm->minRmsdAngstrom();
    out.msmGenerations = msm->history().size();
    if (bar->estimate().has_value()) {
        out.barDeltaF = bar->estimate()->totalDeltaF;
        out.barError = bar->estimate()->totalError;
    }
    out.barRounds = bar->rounds();
    const auto m = server.metricsSnapshot();
    out.commandsCompleted = m.server.commandsCompleted;
    out.deadLetters = m.wire.deliveriesFailed;
    for (const auto& w : dep.workers())
        out.deadLetters += w->wireStats().deliveriesFailed;
    out.recoveries = m.recoveries;
    out.walRecords = m.wal.records;
    out.storeSpills = m.store.spills;
    out.stats = m.server;
    return out;
}

/// The tentpole guarantee, five seeds: a mid-study kill + WAL resurrection
/// is invisible — byte-identical event trace, study outputs and durable
/// counters. Two legs: recovery replays the whole log (the studies write
/// fewer records than the first leg's snapshot budget), or it restores a
/// snapshot and replays only the tail.
TEST(Recovery, KillResurrectIsScheduleTransparent) {
    for (std::uint64_t snapshotEvery : {150u, 20u}) {
        SCOPED_TRACE("snapshotEveryRecords " + std::to_string(snapshotEvery));
        for (std::uint64_t seed : {101u, 102u, 103u, 104u, 105u}) {
            TempDir base(std::to_string(seed) + "_base");
            TempDir crash(std::to_string(seed) + "_crash");
            const auto a = runStudy(seed, Crash::None, base.path.string(),
                                    snapshotEvery);
            const auto b = runStudy(seed, Crash::Transparent,
                                    crash.path.string(), snapshotEvery);
            ASSERT_TRUE(a.done) << "seed " << seed;
            ASSERT_TRUE(b.done) << "seed " << seed;
            if (snapshotEvery == 20)
                EXPECT_GT(b.snapshotsAtCrash, 0u) << "seed " << seed;
            else
                EXPECT_EQ(b.snapshotsAtCrash, 0u) << "seed " << seed;
            EXPECT_EQ(a.traceHash, b.traceHash) << "seed " << seed;
            EXPECT_EQ(a.msmMinRmsd, b.msmMinRmsd) << "seed " << seed;
            EXPECT_EQ(a.msmGenerations, b.msmGenerations) << "seed " << seed;
            EXPECT_EQ(a.barDeltaF, b.barDeltaF) << "seed " << seed;
            EXPECT_EQ(a.barError, b.barError) << "seed " << seed;
            EXPECT_EQ(a.barRounds, b.barRounds) << "seed " << seed;
            expectDurableCountersEqual(a.stats, b.stats, seed);
            EXPECT_EQ(a.deadLetters, 0u) << "seed " << seed;
            EXPECT_EQ(b.deadLetters, 0u) << "seed " << seed;
            EXPECT_EQ(a.recoveries, 0u);
            EXPECT_EQ(b.recoveries, 1u) << "seed " << seed;
            EXPECT_GT(b.walRecords, 0u);
            // The tiered store actually tiered (the cap was chosen to
            // force spills with these studies' checkpoint volume).
            EXPECT_GT(b.storeSpills, 0u) << "seed " << seed;
        }
    }
}

/// Harsher variant: the crash also wipes the endpoint's volatile wire
/// state (retransmit table, queued envelopes, dedup window) — messages in
/// flight at the kill die. The studies must still complete with zero dead
/// letters; the trace legitimately diverges.
TEST(Recovery, SurvivesFullProcessLoss) {
    for (std::uint64_t seed : {201u, 202u}) {
        TempDir tmp(std::to_string(seed) + "_loss");
        const auto r = runStudy(seed, Crash::FullLoss, tmp.path.string());
        ASSERT_TRUE(r.done) << "seed " << seed;
        EXPECT_EQ(r.deadLetters, 0u) << "seed " << seed;
        EXPECT_EQ(r.recoveries, 1u) << "seed " << seed;
        EXPECT_GT(r.commandsCompleted, 0u);
    }
}

/// Repeated resurrection: several crashes in one study still converge.
TEST(Recovery, SurvivesRepeatedCrashes) {
    const std::uint64_t seed = 301;
    TempDir tmp("repeat");
    Deployment dep(seed);
    ServerConfig sc;
    sc.durability.walEnabled = true;
    sc.durability.walDir = tmp.path.string();
    sc.durability.snapshotEveryRecords = 100;
    auto& server = dep.addServer("s0", sc);
    for (int i = 0; i < 2; ++i)
        dep.addWorker("w" + std::to_string(i), server, WorkerConfig{},
                      bothRegistries(), links::intraCluster());
    // The MSM study runs for hundreds of sim-seconds — all three crash
    // points land mid-flight (a BAR-only study would finish first).
    auto msmCtrl = std::make_unique<MsmController>(msmParams(seed));
    auto* msm = msmCtrl.get();
    server.createProject({.name = "msm"}, std::move(msmCtrl));
    for (double t : {23.13, 61.77, 107.03})
        dep.loop().schedule(t, [&server] { server.recoverFromWal(); });
    ASSERT_TRUE(dep.runUntilDone(1e9));
    EXPECT_EQ(server.metricsSnapshot().recoveries, 3u);
    EXPECT_EQ(msm->history().size(), 2u);
}

/// A server snapshot of an empty plane, in the layout of format
/// `version`: v1 also carried the DRR quantum (and, per tenant shard, a
/// checkpoint deep-copy counter, absent here with no tenants).
std::vector<std::uint8_t> emptyPlaneSnapshot(std::uint32_t version) {
    BinaryWriter w;
    w.writeHeader("CPSS", version);
    w.write(std::uint64_t(0)); // command counter
    w.write(std::uint64_t(1)); // next project id
    w.write(std::uint64_t(0)); // scheduler: tenants
    w.write(std::uint64_t(0)); // scheduler: DRR cursor
    if (version == 1) w.write(1.0); // scheduler: quantum
    w.write(std::uint64_t(0)); // scheduler: orphan checkpoints
    for (int i = 0; i < 5; ++i) // completed, leases, workers, parked,
        w.write(std::uint64_t(0)); // unpark cursor
    w.write(std::uint64_t(0)); // cached checkpoints
    for (int i = 0; i < 16; ++i) w.write(std::uint64_t(0)); // ServerStats
    return w.takeBuffer();
}

/// Recovering from a snapshot written in the previous format fails loudly
/// with IoError instead of misparsing it; the same plane in the current
/// format recovers.
TEST(Recovery, RejectsVersionOneSnapshot) {
    for (std::uint32_t version : {1u, 2u}) {
        TempDir tmp("snapshot_v" + std::to_string(version));
        {
            WalConfig cfg;
            cfg.dir = tmp.path.string();
            Wal(cfg).writeSnapshot(emptyPlaneSnapshot(version));
        }
        Deployment dep(9);
        ServerConfig sc;
        sc.durability.walEnabled = true;
        sc.durability.walDir = tmp.path.string();
        auto& server = dep.addServer("s0", sc);
        if (version == 1) {
            try {
                server.recoverFromWal();
                ADD_FAILURE() << "a v1 snapshot was accepted";
            } catch (const IoError& e) {
                EXPECT_NE(std::string(e.what()).find("unsupported version"),
                          std::string::npos)
                    << e.what();
            }
        } else {
            EXPECT_EQ(server.recoverFromWal(), 0u);
            EXPECT_EQ(server.metricsSnapshot().recoveries, 1u);
        }
    }
}

/// A CRC-valid logged Push whose CommandSpec names an unknown version is
/// untrusted input like any other malformed record: recovery fails with
/// IoError.
TEST(Recovery, RejectsUnknownCommandSpecVersion) {
    TempDir tmp("spec_version");
    {
        CommandSpec spec;
        spec.projectId = 1;
        spec.executable = "mdrun";
        BinaryWriter w;
        w.write(std::uint64_t(1)); // tenant
        w.write(std::uint8_t(0));  // force
        const std::size_t header = w.buffer().size();
        spec.serialize(w);
        auto body = w.takeBuffer();
        body[header + 4] = 2; // "CCMD", then the little-endian version
        WalConfig cfg;
        cfg.dir = tmp.path.string();
        Wal wal(cfg);
        wal.append(WalRecordType::Push, body);
        wal.flush();
    }
    Deployment dep(9);
    ServerConfig sc;
    sc.durability.walEnabled = true;
    sc.durability.walDir = tmp.path.string();
    auto& server = dep.addServer("s0", sc);
    try {
        server.recoverFromWal();
        ADD_FAILURE() << "a version-2 command spec was accepted";
    } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find("unsupported command version"),
                  std::string::npos)
            << e.what();
    }
}

/// The WAL-disabled default is unchanged seed behavior: no log, no store
/// spills unless a cap is set, and metrics report zeroes.
TEST(Recovery, WalDisabledByDefault) {
    Deployment dep(7);
    auto& server = dep.addServer("s0");
    dep.addWorker("w0", server, WorkerConfig{}, bothRegistries(),
                  links::intraCluster());
    auto barCtrl = std::make_unique<BarController>(barParams(7));
    server.createProject({.name = "bar"}, std::move(barCtrl));
    ASSERT_TRUE(dep.runUntilDone(1e9));
    const auto m = server.metricsSnapshot();
    EXPECT_EQ(m.wal.records, 0u);
    EXPECT_EQ(m.store.spills, 0u);
    EXPECT_EQ(m.recoveries, 0u);
    EXPECT_EQ(server.wal(), nullptr);
}

/// Satellite 1: the checkpoint cache is LRU-bounded through the segment
/// store — worker churn streams checkpoints through a tiny RAM tier, the
/// cache's hot footprint stays under the cap, and the hit/miss/spill
/// counters surface through metricsSnapshot().
TEST(Recovery, CheckpointCacheIsBoundedByStoreCap) {
    TempDir tmp("cache");
    Deployment dep(11);
    ServerConfig sc;
    sc.heartbeatInterval = 30.0;
    sc.durability.walEnabled = true;
    sc.durability.walDir = tmp.path.string();
    sc.durability.storeRamBytes = 16 * 1024;
    auto& server = dep.addServer("s0", sc);

    MsmControllerParams mp = msmParams(11);
    mp.maxGenerations = 1;
    mp.segmentSteps = 2000; // 400 s per command at 0.2 s/step
    ExecutableRegistry slowReg;
    slowReg.add("mdrun", makeMdrunExecutable(linearDurationModel(0.2)));
    auto ctrl = std::make_unique<MsmController>(mp);
    server.createProject({.name = "churn"}, std::move(ctrl));

    WorkerConfig wc;
    wc.heartbeatInterval = 30.0;
    for (int w = 0; w < 3; ++w) {
        ExecutableRegistry reg;
        reg.add("mdrun", makeMdrunExecutable(linearDurationModel(0.2)));
        auto& worker = dep.addWorker("w" + std::to_string(w), server, wc,
                                     std::move(reg),
                                     links::intraCluster());
        worker.failAfter(150.0 * (1.0 + 0.3 * w));
    }
    bool done = false;
    for (int wave = 0; wave < 40 && !done; ++wave) {
        done = dep.runUntilDone(dep.loop().now() + 400.0);
        if (!done) {
            ExecutableRegistry reg;
            reg.add("mdrun",
                    makeMdrunExecutable(linearDurationModel(0.2)));
            auto& w = dep.addWorker("wave" + std::to_string(wave), server,
                                    wc, std::move(reg),
                                    links::intraCluster());
            if (wave < 6) w.failAfter(150.0);
        }
    }
    ASSERT_TRUE(done);
    const auto m = server.metricsSnapshot();
    EXPECT_GT(m.server.workersFailed, 0u);
    // Checkpoints streamed through the cache; the RAM tier never grew
    // past the cap and the overflow went cold.
    EXPECT_GT(m.store.puts, 0u);
    EXPECT_LE(m.store.ramBytesUsed, sc.durability.storeRamBytes);
    EXPECT_GT(m.store.spills, 0u);
    EXPECT_GT(m.store.hits + m.store.misses, 0u);
}

} // namespace
} // namespace cop::core
