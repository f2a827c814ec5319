// End-to-end integration scenarios spanning every layer of the stack.

#include <gtest/gtest.h>

#include "core/backends.hpp"
#include "core/copernicus.hpp"
#include "core/msm_controller.hpp"
#include "mdlib/observables.hpp"
#include "mdlib/units.hpp"
#include "msm/spectral.hpp"

namespace cop {
namespace {

core::ExecutableRegistry mdRegistry(double secondsPerStep = 0.2) {
    core::ExecutableRegistry reg;
    reg.add("mdrun", core::makeMdrunExecutable(
                         core::linearDurationModel(secondsPerStep)));
    return reg;
}

/// The paper's whole §3 pipeline at miniature scale: adaptive sampling on
/// the hairpin, MSM analysis, blind structure prediction — all through
/// the distributed framework.
TEST(Integration, PaperPipelineOnHairpin) {
    core::Deployment dep(42);
    auto& projectServer = dep.addServer("project");
    auto& relay = dep.addServer("relay");
    dep.connectServers(projectServer, relay, core::links::dataCenter());
    for (int w = 0; w < 4; ++w)
        dep.addWorker("w" + std::to_string(w),
                      w % 2 ? relay : projectServer, core::WorkerConfig{},
                      mdRegistry(), core::links::intraCluster());

    auto model = md::hairpinGoModel();
    core::MsmControllerParams mp;
    mp.model = model;
    mp.startingConformations = md::makeUnfoldedConformations(model, 3, 7);
    mp.tasksPerStart = 3;
    mp.segmentSteps = 1500;
    mp.maxGenerations = 3;
    mp.pipeline.numClusters = 25;
    mp.pipeline.snapshotStride = 2;
    mp.simulation.integrator.kind = md::IntegratorKind::LangevinBAOAB;
    mp.simulation.integrator.temperature = 0.55;
    mp.simulation.integrator.friction = 0.4;
    mp.simulation.sampleInterval = 25;
    mp.seed = 42;
    auto controller = std::make_unique<core::MsmController>(mp);
    auto* msm = controller.get();
    projectServer.createProject({.name = "hairpin"}, std::move(controller));

    ASSERT_TRUE(dep.runUntilDone(1e12));

    // The hairpin folds reliably at this temperature: the swarm must find
    // the native basin, and the blind prediction must identify it.
    EXPECT_LT(msm->minRmsdAngstrom(), md::kFoldedRmsdAngstrom);
    EXPECT_LT(msm->history().back().predictedRmsdAngstrom,
              2.0 * md::kFoldedRmsdAngstrom);
    EXPECT_GT(msm->history().back().foldedFraction, 0.1);

    // Downstream analysis works on the controller's final model (skip
    // when everything collapsed into a single connected state).
    const auto& result = *msm->lastMsm();
    if (result.model.numStates() >= 2) {
        const auto macro = msm::identifyMacrostates(result.model, 2, 1);
        double pop = 0.0;
        for (double p : macro.populations) pop += p;
        EXPECT_NEAR(pop, 1.0, 1e-9);
    }

    // Both servers carried traffic.
    EXPECT_GT(dep.network()
                  .linkStats(projectServer.id(), relay.id())
                  .messages,
              0u);
}

/// The paper §2.3 "cluster burn-in" scenario: every worker keeps dying,
/// yet the project completes, resuming each command from the newest
/// streamed checkpoint (not from scratch).
TEST(Integration, SurvivesRepeatedWorkerChurn) {
    core::Deployment dep(43);
    core::ServerConfig sc;
    sc.heartbeatInterval = 30.0;
    auto& server = dep.addServer("s0", sc);

    auto model = md::hairpinGoModel();
    core::MsmControllerParams mp;
    mp.model = model;
    mp.startingConformations = md::makeUnfoldedConformations(model, 2, 9);
    mp.tasksPerStart = 2;
    mp.segmentSteps = 2000;
    mp.maxGenerations = 1; // one generation: 4 commands + extensions
    mp.pipeline.numClusters = 10;
    mp.pipeline.snapshotStride = 2;
    mp.simulation.integrator.temperature = 0.5;
    mp.simulation.sampleInterval = 50;
    mp.seed = 43;
    auto controller = std::make_unique<core::MsmController>(mp);
    auto* msm = controller.get();
    server.createProject({.name = "churn"}, std::move(controller));

    core::WorkerConfig wc;
    wc.heartbeatInterval = 30.0;
    // Command duration is 2000 steps * 0.2 s = 400 s; workers die every
    // ~150 s, so no command can finish without checkpoint resumption.
    const double lifetime = 150.0;
    int spawned = 0;
    for (; spawned < 3; ++spawned) {
        auto& w = dep.addWorker("gen0-" + std::to_string(spawned), server,
                                wc, mdRegistry(), core::links::intraCluster());
        w.failAfter(lifetime * (1.0 + 0.3 * spawned));
    }
    // Keep replacing workers until the project finishes.
    bool done = false;
    for (int wave = 0; wave < 40 && !done; ++wave) {
        done = dep.runUntilDone(dep.loop().now() + 400.0);
        if (!done) {
            auto& w = dep.addWorker("wave" + std::to_string(wave), server,
                                    wc, mdRegistry(),
                                    core::links::intraCluster());
            if (wave < 6) w.failAfter(lifetime);
            ++spawned;
        }
    }
    ASSERT_TRUE(done) << "project did not survive worker churn";
    EXPECT_GE(server.stats().workersFailed, 3u);
    EXPECT_GE(server.stats().commandsRequeued, 3u);
    // Data integrity: every stored trajectory is contiguous (one frame
    // per sampling interval, no gaps or duplicates from the resumptions).
    for (const auto& [id, traj] : msm->trajectories()) {
        for (std::size_t f = 1; f < traj.numFrames(); ++f)
            EXPECT_EQ(traj.frame(f).step - traj.frame(f - 1).step, 50)
                << "trajectory " << id << " frame " << f;
    }
}

/// Resuming from a mid-segment checkpoint runs only the remaining steps:
/// trajectories never overshoot the segment boundary.
TEST(Integration, MidSegmentResumeRunsRemainingSteps) {
    const auto model = md::hairpinGoModel();
    md::SimulationConfig cfg;
    cfg.sampleInterval = 10;
    cfg.seed = 5;
    auto sim = md::Simulation::forGoModel(model, model.native, cfg);
    sim.initializeVelocities();
    sim.run(150); // mid-segment state: step 150 of a 400-step command

    core::CommandSpec cmd;
    cmd.id = 1;
    cmd.executable = "mdrun";
    cmd.steps = 400;
    cmd.input = sim.checkpoint();
    const auto handler =
        core::makeMdrunExecutable(core::linearDurationModel(0.1));
    const auto exec = handler(cmd, 1);
    const auto out = core::MdrunOutput::decode(exec.result.output);
    auto resumed = md::Simulation::restore(out.checkpoint);
    EXPECT_EQ(resumed.state().step, 400); // not 550
    EXPECT_NEAR(exec.simSeconds, 250 * 0.1, 1e-9);
}

} // namespace
} // namespace cop
