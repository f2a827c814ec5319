/// The paper's Fig. 1 scenario: two sites on different continents, each
/// with its own head-node server and workers, cooperating on one project
/// over an authenticated overlay — including a worker crash mid-command,
/// detected by heartbeat timeout and transparently recovered from the
/// checkpoints its server cached.
///
///   $ ./build/examples/distributed_cluster

#include <cstdio>

#include "core/backends.hpp"
#include "core/copernicus.hpp"
#include "core/msm_controller.hpp"
#include "mdlib/proteins.hpp"
#include "util/logging.hpp"

using namespace cop;
using namespace cop::core;

namespace {

ExecutableRegistry mdRegistry() {
    ExecutableRegistry reg;
    // ~17 virtual minutes per 50 ns command: slow enough that several
    // heartbeats (120 s) and checkpoints happen during each run.
    reg.add("mdrun", makeMdrunExecutable(linearDurationModel(0.5)));
    return reg;
}

} // namespace

int main() {
    Logger::instance().setLevel(LogLevel::Info);

    Deployment dep(17);
    // Stockholm: gateway + project server; Palo Alto: one cluster head.
    auto& stockholm = dep.addServer("stockholm-gw");
    auto& paloAlto = dep.addServer("paloalto-head");
    dep.connectServers(stockholm, paloAlto, links::wideArea());

    WorkerConfig wc;
    wc.platform = "OpenMPI";
    wc.heartbeatInterval = 120.0;
    auto& w0 = dep.addWorker("sth-node0", stockholm, wc, mdRegistry(),
                             links::intraCluster());
    dep.addWorker("sth-node1", stockholm, wc, mdRegistry(),
                  links::intraCluster());
    dep.addWorker("pa-node0", paloAlto, wc, mdRegistry(),
                  links::intraCluster());
    dep.addWorker("pa-node1", paloAlto, wc, mdRegistry(),
                  links::intraCluster());

    // Untrusted nodes cannot join: the key exchange is mandatory.
    try {
        net::Node rogue(dep.network(), "rogue",
                        net::KeyPair::generate(666));
        dep.network().connect(rogue.id(), stockholm.id(), {});
        std::printf("ERROR: rogue node connected!\n");
        return 1;
    } catch (const Error&) {
        std::printf("rogue node without exchanged keys was refused "
                    "(SSL-style mutual auth)\n");
    }

    // A small adaptive MSM project hosted in Stockholm.
    auto model = md::villinGoModel();
    MsmControllerParams mp;
    mp.model = model;
    mp.startingConformations = md::makeUnfoldedConformations(model, 3, 5);
    mp.tasksPerStart = 3;
    mp.segmentSteps = md::kSegmentSteps;
    mp.maxGenerations = 2;
    mp.pipeline.numClusters = 40;
    mp.pipeline.snapshotStride = 3;
    mp.simulation = md::villinSimulationConfig();
    mp.seed = 5;
    auto controller = std::make_unique<MsmController>(mp);
    auto* msm = controller.get();
    stockholm.createProject({.name = "msm_villin"}, std::move(controller));

    // Crash a Stockholm worker mid-run; its commands restart elsewhere
    // from the cached checkpoints.
    w0.failAfter(400.0);

    const bool done = dep.runUntilDone(1e12);

    std::printf("\nproject %s after %.1f virtual hours\n",
                done ? "completed" : "DID NOT COMPLETE",
                dep.loop().now() / 3600.0);
    std::printf("stockholm server: %llu commands completed, %llu workers "
                "failed, %llu commands requeued\n",
                (unsigned long long)stockholm.stats().commandsCompleted,
                (unsigned long long)stockholm.stats().workersFailed,
                (unsigned long long)stockholm.stats().commandsRequeued);
    std::printf("wide-area link: %llu messages, %.2f MB (ensemble tier "
                "of Fig. 6)\n",
                (unsigned long long)dep.network()
                    .linkStats(stockholm.id(), paloAlto.id())
                    .messages,
                double(dep.network()
                           .linkStats(stockholm.id(), paloAlto.id())
                           .bytes) /
                    1e6);
    std::printf("best structure found: %.2f A from native\n",
                msm->minRmsdAngstrom());
    return done && stockholm.stats().workersFailed >= 1 ? 0 : 1;
}
