#include "villin_study.hpp"

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace cop::bench {

VillinStudy runVillinStudy(const VillinStudyConfig& config) {
    Logger::instance().setLevel(LogLevel::Warn);

    VillinStudy study;
    study.deployment = std::make_unique<core::Deployment>(config.seed);
    auto& dep = *study.deployment;

    // Two-server overlay like the paper's Fig. 1: a project server and a
    // relay on a second "cluster"; half of the workers attach to each.
    auto& projectServer = dep.addServer("project-server");
    auto& relay = dep.addServer("cluster1-head");
    dep.connectServers(projectServer, relay, core::links::dataCenter());
    study.server = &projectServer;

    // The virtual duration of a command follows the paper-calibrated MD
    // performance model at 24 cores per simulation.
    const perf::MdPerfModel perfModel;
    const double cmdSeconds =
        perfModel.commandSeconds(md::stepsToNs(double(config.segmentSteps)),
                                 24);
    const double secondsPerStep = cmdSeconds / double(config.segmentSteps);

    for (int w = 0; w < config.workers; ++w) {
        core::ExecutableRegistry reg;
        reg.add("mdrun", core::makeMdrunExecutable(
                             core::linearDurationModel(secondsPerStep)));
        core::WorkerConfig wc;
        wc.platform = "OpenMPI";
        wc.cores = 1; // one command at a time per worker
        dep.addWorker("worker" + std::to_string(w),
                      (w % 2 == 0) ? projectServer : relay, wc,
                      std::move(reg), core::links::intraCluster());
    }

    auto model = md::villinGoModel();
    core::MsmControllerParams mp;
    mp.model = model;
    mp.startingConformations = md::makeUnfoldedConformations(
        model, std::size_t(config.starts), config.seed * 7919 + 1);
    mp.tasksPerStart = config.tasksPerStart;
    mp.segmentSteps = config.segmentSteps;
    mp.maxGenerations = config.generations;
    mp.pipeline.numClusters = config.numClusters;
    // Paper: clustering snapshots every 1.5 ns = 60 steps = 3 frames at
    // the 20-step sampling interval.
    mp.pipeline.snapshotStride = 3;
    mp.pipeline.lag = 1;
    mp.pipeline.medoidSweeps = 1;
    mp.weighting = msm::WeightingScheme::Adaptive;
    mp.evenGenerations = 1;
    mp.simulation = md::villinSimulationConfig();
    mp.seed = config.seed;

    auto controller = std::make_unique<core::MsmController>(mp);
    study.controller = controller.get();
    study.projectId =
        projectServer.createProject({.name = "msm_villin"},
                                    std::move(controller));

    Timer timer;
    const bool done = dep.runUntilDone(1e12);
    study.wallSeconds = timer.elapsedSeconds();
    COP_ENSURE(done, "villin study did not complete");
    return study;
}

} // namespace cop::bench
