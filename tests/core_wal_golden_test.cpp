// WAL format golden test: seeded deployments with the log on and
// snapshots off, whose wal.log bytes are pinned by FNV-1a hash. Together
// the scenarios emit every WalRecordType, so any change to a record's
// encoding, or to which records are written and in what order, fails
// here. The executables are synthetic (fixed durations and checkpoint
// bytes, no MD), so the pinned bytes depend on the scheduling plane alone,
// not on floating-point kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/copernicus.hpp"
#include "core/wal.hpp"
#include "util/random.hpp"

namespace cop::core {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("cop_wal_golden_" + tag + "_" +
                std::to_string(Rng(std::uint64_t(::getpid())).next()));
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

/// "work": a fixed-duration command that streams one synthetic checkpoint
/// halfway through.
ExecutableRegistry workRegistry(double seconds) {
    ExecutableRegistry reg;
    reg.add("work", [seconds](const CommandSpec& cmd, int) {
        Execution e;
        e.result.commandId = cmd.id;
        e.result.projectId = cmd.projectId;
        e.result.trajectoryId = cmd.trajectoryId;
        e.result.success = true;
        e.simSeconds = seconds;
        std::vector<std::uint8_t> blob(48);
        for (std::size_t i = 0; i < blob.size(); ++i)
            blob[i] = std::uint8_t(cmd.id * 31 + i);
        e.checkpoints.emplace_back(0.5, std::move(blob));
        return e;
    });
    return reg;
}

/// Keeps `width` commands in flight until `total` have finished. With
/// `admission`, each submission first tries the quota-checked path and
/// falls back to a forced submit when it is rejected, so the log carries
/// both kinds of Push.
class ChainController : public Controller {
public:
    ChainController(int total, int width, bool admission)
        : total_(total), width_(width), admission_(admission) {}

    void onProjectStart(ProjectContext& ctx) override {
        for (int i = 0; i < width_; ++i) submitNext(ctx);
    }
    void onCommandFinished(ProjectContext& ctx,
                           const CommandResult&) override {
        ++finished_;
        if (submitted_ < total_) submitNext(ctx);
    }
    bool isDone(const ProjectContext& ctx) const override {
        return finished_ >= total_ && ctx.outstandingCommands() == 0;
    }

private:
    void submitNext(ProjectContext& ctx) {
        CommandSpec spec;
        spec.executable = "work";
        spec.steps = 100;
        spec.trajectoryId = submitted_++;
        spec.input = SharedBytes(std::vector<std::uint8_t>(
            16, std::uint8_t(spec.trajectoryId)));
        if (admission_ && ctx.trySubmitCommand(spec).admitted) return;
        ctx.submitCommand(std::move(spec));
    }

    int total_;
    int width_;
    bool admission_;
    int submitted_ = 0;
    int finished_ = 0;
};

ServerConfig walServer(const fs::path& dir) {
    ServerConfig sc;
    sc.heartbeatInterval = 30.0;
    sc.durability.walEnabled = true;
    sc.durability.walDir = dir.string();
    return sc;
}

WorkerConfig workerConfig(bool batching = true) {
    WorkerConfig wc;
    wc.heartbeatInterval = 30.0;
    wc.batch.enabled = batching;
    return wc;
}

ProjectSpec named(std::string name) {
    ProjectSpec spec;
    spec.name = std::move(name);
    return spec;
}

/// One server's log after its deployment shut down (the WAL flushes and
/// trims its preallocated tail on destruction).
struct ServerLog {
    std::string server;
    std::vector<std::uint8_t> bytes;
};

std::vector<std::uint8_t> readLog(const fs::path& dir) {
    std::ifstream in(dir / "wal.log", std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/// Two tenants on one server, more workers than commands: tenant add,
/// forced and quota-rejected pushes, claims, completions, local
/// checkpoints, renewals, worker liveness, parking and park passes.
std::vector<ServerLog> tenantsScenario() {
    TempDir dir("tenants");
    {
        Deployment dep(71);
        auto& server = dep.addServer("s0", walServer(dir.path));
        server.createProject(named("chain"),
                             std::make_unique<ChainController>(6, 2, false));
        ProjectSpec quota = named("quota");
        quota.tenant.weight = 2.0;
        quota.tenant.maxPendingCommands = 1;
        server.createProject(std::move(quota),
                             std::make_unique<ChainController>(6, 3, true));
        for (int i = 0; i < 6; ++i)
            dep.addWorker("w" + std::to_string(i), server, workerConfig(),
                          workRegistry(70.0), links::intraCluster());
        EXPECT_TRUE(dep.runUntilDone(1e6));
    }
    return {{"s0", readLog(dir.path)}};
}

/// Workers behind a WAL-on edge server die mid-command: the edge logs
/// cached checkpoints, their drops and the worker's death; the project
/// server logs the handed-off checkpoints and the requeue.
std::vector<ServerLog> churnScenario() {
    TempDir projectDir("churn_project");
    TempDir edgeDir("churn_edge");
    {
        Deployment dep(72);
        auto& project = dep.addServer("project", walServer(projectDir.path));
        auto& edge = dep.addServer("edge", walServer(edgeDir.path));
        dep.connectServers(project, edge, links::dataCenter());
        project.createProject(named("churn"),
                              std::make_unique<ChainController>(8, 4, false));
        for (int i = 0; i < 4; ++i) {
            auto& w = dep.addWorker("w" + std::to_string(i), edge,
                                    workerConfig(), workRegistry(100.0),
                                    links::intraCluster());
            if (i < 2) w.failAfter(70.0 + 20.0 * i);
        }
        EXPECT_TRUE(dep.runUntilDone(1e6));
    }
    return {{"project", readLog(projectDir.path)},
            {"edge", readLog(edgeDir.path)}};
}

/// A relay dies together with its worker, so no failure signal reaches
/// the project server: only the command's lease notices and requeues it.
std::vector<ServerLog> leaseScenario() {
    TempDir dir("lease");
    {
        Deployment dep(73);
        auto& project = dep.addServer("project", walServer(dir.path));
        ServerConfig relayConfig;
        relayConfig.heartbeatInterval = 30.0;
        auto& relay = dep.addServer("relay", relayConfig);
        dep.connectServers(project, relay, links::dataCenter());
        auto& doomed = dep.addWorker("doomed", relay, workerConfig(),
                                     workRegistry(200.0),
                                     links::intraCluster());
        dep.addWorker("survivor", project, workerConfig(),
                      workRegistry(200.0), links::intraCluster());
        net::FaultPlan plan;
        plan.crashNode(relay.id(), 100.0);
        dep.setFaultPlan(plan);
        doomed.failAfter(100.0);
        project.createProject(named("leased"),
                              std::make_unique<ChainController>(3, 3, false));
        EXPECT_TRUE(dep.runUntilDone(1e6));
    }
    return {{"project", readLog(dir.path)}};
}

/// A worker's final output is lost on an unbatched lossy link while its
/// next request (sent first) gets through and parks; the worker then dies
/// before retransmitting, so failure detection requeues the command and
/// drops the dead worker's park slot.
std::vector<ServerLog> parkDropScenario() {
    TempDir dir("parkdrop");
    {
        Deployment dep(74);
        auto& server = dep.addServer("s0", walServer(dir.path));
        server.createProject(named("parked"),
                             std::make_unique<ChainController>(2, 2, false));
        auto& doomed = dep.addWorker("doomed", server, workerConfig(false),
                                     workRegistry(100.0),
                                     links::intraCluster());
        dep.addWorker("survivor", server, workerConfig(false),
                      workRegistry(100.0), links::intraCluster());
        net::FaultPlan plan;
        plan.seed = 1; // drops the doomed worker's output, not its request
        net::FaultProfile lossy;
        lossy.dropProbability = 0.5;
        plan.linkProfiles[{std::min(doomed.id(), server.id()),
                           std::max(doomed.id(), server.id())}] = lossy;
        dep.setFaultPlan(plan);
        doomed.failAfter(103.0);
        EXPECT_TRUE(dep.runUntilDone(1e6));
    }
    return {{"s0", readLog(dir.path)}};
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::map<WalRecordType, int>
recordTypes(const std::vector<std::uint8_t>& log) {
    std::map<WalRecordType, int> seen;
    std::size_t torn = 0;
    const auto consumed = Wal::parseLog(
        log,
        [&](WalRecordType t, std::span<const std::uint8_t>) { ++seen[t]; },
        std::size_t(64) << 20, &torn);
    EXPECT_EQ(consumed, log.size());
    EXPECT_EQ(torn, 0u);
    return seen;
}

struct Scenario {
    const char* name;
    std::vector<ServerLog> (*run)();
};

const std::array<Scenario, 4> kScenarios = {{
    {"tenants", tenantsScenario},
    {"churn", churnScenario},
    {"lease", leaseScenario},
    {"parkdrop", parkDropScenario},
}};

TEST(Wal, GoldenScenariosEmitEveryRecordType) {
    std::map<WalRecordType, int> seen;
    for (const auto& scenario : kScenarios)
        for (const auto& log : scenario.run())
            for (const auto& [type, n] : recordTypes(log.bytes))
                seen[type] += n;
    for (std::uint8_t t = 1; t <= kWalRecordTypeMax; ++t)
        EXPECT_GT(seen[WalRecordType(t)], 0) << "record type " << int(t);
}

/// FNV-1a of every server's wal.log. These bytes are the on-disk format:
/// a change here is a format change, never a refactor.
TEST(Wal, GoldenLogBytesArePinned) {
    const std::map<std::string, std::uint64_t> pinned = {
        {"tenants/s0", 0xb3915401c40659a3ull},
        {"churn/project", 0x95232080c3772a16ull},
        {"churn/edge", 0x7abf97d73ffea377ull},
        {"lease/project", 0x998d25636dad1e44ull},
        {"parkdrop/s0", 0x92efff7ff37ddcaaull},
    };
    for (const auto& scenario : kScenarios)
        for (const auto& log : scenario.run()) {
            const std::string key =
                std::string(scenario.name) + "/" + log.server;
            char hex[32];
            std::snprintf(hex, sizeof hex, "0x%016llx",
                          static_cast<unsigned long long>(fnv1a(log.bytes)));
            const auto it = pinned.find(key);
            if (it == pinned.end()) {
                ADD_FAILURE() << "no pinned hash for " << key << " (" << hex
                              << ")";
                continue;
            }
            EXPECT_EQ(fnv1a(log.bytes), it->second) << key << " is " << hex;
        }
}

} // namespace
} // namespace cop::core
