/// The paper's flagship scenario at example scale: fold the villin-like
/// protein with MSM-driven parallel adaptive sampling — unfolded starts,
/// a swarm of trajectory commands distributed over workers, periodic
/// clustering, adaptive respawning — and predict the native state blind
/// from the highest-equilibrium-population cluster.
///
///   $ ./build/examples/villin_folding

#include <cstdio>

#include "core/backends.hpp"
#include "core/copernicus.hpp"
#include "core/msm_controller.hpp"
#include "mdlib/observables.hpp"
#include "mdlib/proteins.hpp"
#include "mdlib/units.hpp"
#include "util/logging.hpp"

using namespace cop;
using namespace cop::core;

int main() {
    Logger::instance().setLevel(LogLevel::Warn);

    // A project server plus four workers on its cluster.
    Deployment dep(2011);
    auto& server = dep.addServer("project-server");
    for (int w = 0; w < 4; ++w) {
        ExecutableRegistry reg;
        reg.add("mdrun", makeMdrunExecutable(linearDurationModel(0.5)));
        dep.addWorker("node" + std::to_string(w), server, WorkerConfig{},
                      std::move(reg), links::intraCluster());
    }

    // The MSM adaptive-sampling project: 4 unfolded starts x 4 tasks,
    // clustering into 60 microstates after every 16 finished segments.
    auto model = md::villinGoModel();
    MsmControllerParams mp;
    mp.model = model;
    mp.startingConformations = md::makeUnfoldedConformations(model, 4, 99);
    mp.tasksPerStart = 4;
    mp.segmentSteps = md::kSegmentSteps;
    mp.maxGenerations = 4;
    mp.pipeline.numClusters = 60;
    mp.pipeline.snapshotStride = 3;
    mp.simulation = md::villinSimulationConfig();
    mp.seed = 2011;
    auto controller = std::make_unique<MsmController>(mp);
    auto* msm = controller.get();
    const auto pid = server.createProject({.name = "msm_villin"},
                                          std::move(controller));

    // A monitoring client, as the paper's command-line client would.
    auto& client = dep.addClient("laptop", server, links::wideArea());

    std::printf("running adaptive sampling...\n");
    const bool done = dep.runUntilDone(1e12);

    client.requestStatus(server.id(), pid);
    dep.loop().run(64);
    std::printf("\nclient view: %s\n", client.lastStatus().c_str());

    std::printf("\nper-generation progress:\n");
    for (const auto& rec : msm->history())
        std::printf("  gen %d: %5zu snapshots, min RMSD %.2f A, "
                    "folded %.1f%%, blind prediction %.2f A\n",
                    rec.generation, rec.totalSnapshots,
                    rec.minRmsdAngstrom, 100.0 * rec.foldedFraction,
                    rec.predictedRmsdAngstrom);

    std::printf("\nresult: %s; best structure %.2f A from native; "
                "blind prediction %.2f A\n",
                done ? "project completed" : "INCOMPLETE",
                msm->minRmsdAngstrom(),
                msm->history().back().predictedRmsdAngstrom);
    return done ? 0 : 1;
}
