/// The `copernicus` command-line tool: drives the framework the way the
/// paper's command-line client would. Subcommands:
///
///   copernicus fold     — run an MSM adaptive-sampling folding project
///   copernicus bar      — run a BAR free-energy project
///   copernicus scaling  — simulate the controller at a given core count
///   copernicus info     — print model, units and calibration constants
///
/// Run with no arguments for usage.

#include <cstdio>

#include "core/backends.hpp"
#include "core/bar_controller.hpp"
#include "core/copernicus.hpp"
#include "core/msm_controller.hpp"
#include "mdlib/observables.hpp"
#include "mdlib/pdb.hpp"
#include "mdlib/proteins.hpp"
#include "mdlib/units.hpp"
#include "perfmodel/scaling.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace cop;

namespace {

int usage() {
    std::printf(
        "copernicus — parallel adaptive molecular dynamics (SC11 "
        "reproduction)\n\n"
        "  copernicus fold [--starts N] [--tasks N] [--generations N]\n"
        "                  [--clusters N] [--workers N] [--seed N]\n"
        "                  [--pdb out.pdb]\n"
        "      Run the villin MSM adaptive-sampling project.\n\n"
        "  copernicus bar [--windows N] [--target-error X] [--seed N]\n"
        "      Run the BAR free-energy project on the harmonic chain.\n\n"
        "  copernicus scaling --total N [--cores-per-sim M]\n"
        "                     [--generations G] [--stop-generation S]\n"
        "      Simulate the controller's activity (Figs. 7-9 machinery).\n\n"
        "  copernicus info\n"
        "      Print model, unit-mapping and calibration constants.\n");
    return 2;
}

int cmdFold(const CliArgs& args) {
    core::Deployment dep(std::uint64_t(args.getInt("seed", 2011)));
    auto& server = dep.addServer("project-server");
    const long workers = args.getInt("workers", 4);
    for (long w = 0; w < workers; ++w) {
        core::ExecutableRegistry reg;
        reg.add("mdrun", core::makeMdrunExecutable(
                             core::linearDurationModel(0.5)));
        dep.addWorker("worker" + std::to_string(w), server,
                      core::WorkerConfig{}, std::move(reg),
                      core::links::intraCluster());
    }

    auto model = md::villinGoModel();
    core::MsmControllerParams mp;
    mp.model = model;
    mp.startingConformations = md::makeUnfoldedConformations(
        model, std::size_t(args.getInt("starts", 4)),
        std::uint64_t(args.getInt("seed", 2011)) * 7919 + 1);
    mp.tasksPerStart = int(args.getInt("tasks", 4));
    mp.maxGenerations = int(args.getInt("generations", 4));
    mp.pipeline.numClusters = std::size_t(args.getInt("clusters", 60));
    mp.pipeline.snapshotStride = 3;
    mp.simulation = md::villinSimulationConfig();
    mp.seed = std::uint64_t(args.getInt("seed", 2011));
    auto controller = std::make_unique<core::MsmController>(mp);
    auto* msm = controller.get();
    server.createProject({.name = "msm_villin"}, std::move(controller));

    std::printf("folding: %ld starts x %ld tasks, %ld generations, "
                "%ld workers\n",
                args.getInt("starts", 4), args.getInt("tasks", 4),
                args.getInt("generations", 4), workers);
    const bool done = dep.runUntilDone(1e12);

    Table table({"gen", "snapshots", "min RMSD (A)", "folded frac",
                 "blind pred (A)"});
    for (const auto& rec : msm->history())
        table.addRow({std::to_string(rec.generation),
                      std::to_string(rec.totalSnapshots),
                      formatFixed(rec.minRmsdAngstrom, 2),
                      formatFixed(rec.foldedFraction, 3),
                      formatFixed(rec.predictedRmsdAngstrom, 2)});
    std::printf("%s", table.render().c_str());
    std::printf("best structure: %.2f A from native\n",
                msm->minRmsdAngstrom());

    const auto pdbPath = args.getString("pdb", "");
    if (!pdbPath.empty()) {
        // Export the closest-to-native frame.
        double best = 1e30;
        std::vector<Vec3> bestPos;
        for (const auto& [id, traj] : msm->trajectories()) {
            for (const auto& frame : traj.frames()) {
                const double r = md::toAngstrom(
                    md::rmsd(model.native, frame.positions));
                if (r < best) {
                    best = r;
                    bestPos = frame.positions;
                }
            }
        }
        md::superimpose(model.native, bestPos);
        const auto pdb = md::pdbString({model.native, bestPos},
                                       "native vs best sampled frame");
        writeFile(pdbPath,
                  std::span(reinterpret_cast<const std::uint8_t*>(
                                pdb.data()),
                            pdb.size()));
        std::printf("wrote %s\n", pdbPath.c_str());
    }
    return done ? 0 : 1;
}

int cmdBar(const CliArgs& args) {
    core::Deployment dep(1976);
    auto& server = dep.addServer("fe-server");
    for (int w = 0; w < 3; ++w) {
        core::ExecutableRegistry reg;
        reg.add("fe_sample", core::makeFeSampleExecutable(
                                 core::linearDurationModel(0.01)));
        dep.addWorker("worker" + std::to_string(w), server,
                      core::WorkerConfig{}, std::move(reg),
                      core::links::intraCluster());
    }
    core::BarControllerParams bp;
    bp.numWindows = std::size_t(args.getInt("windows", 5));
    bp.targetError = args.getDouble("target-error", 0.02);
    bp.seed = std::uint64_t(args.getInt("seed", 1976));
    auto controller = std::make_unique<core::BarController>(bp);
    auto* barCtrl = controller.get();
    server.createProject({.name = "free_energy"}, std::move(controller));
    const bool done = dep.runUntilDone(1e12);
    const auto& est = *barCtrl->estimate();
    std::printf("deltaF = %.4f +/- %.4f kT after %d rounds (analytic "
                "%.4f)\n",
                est.totalDeltaF, est.totalError, barCtrl->rounds(),
                barCtrl->analyticDeltaF());
    return done ? 0 : 1;
}

int cmdScaling(const CliArgs& args) {
    perf::ScalingConfig cfg;
    cfg.totalCores = int(args.getInt("total", 5000));
    cfg.coresPerSim = int(args.getInt("cores-per-sim", 24));
    cfg.generations = int(args.getInt("generations", 8));
    cfg.stopGeneration = int(args.getInt("stop-generation", 3));
    const auto r = perf::simulateRun(cfg);
    std::printf("N = %d cores, %d per simulation (%d workers)\n",
                r.totalCores, r.coresPerSim, r.workers);
    std::printf("  time to first fold: %s\n",
                formatHours(r.timeToSolutionHours).c_str());
    std::printf("  full project:       %s\n",
                formatHours(r.totalTimeHours).c_str());
    std::printf("  scaling efficiency: %.1f%%\n", 100.0 * r.efficiency);
    std::printf("  ensemble bandwidth: %.4f MB/s\n",
                r.ensembleBandwidth / 1e6);
    return 0;
}

int cmdInfo() {
    const auto model = md::villinGoModel();
    perf::MdPerfModel perfModel;
    std::printf("model: %s\n", model.topology.summary().c_str());
    std::printf("units: 1 sigma = %.1f A, 1 step = %.0f ps mapped "
                "(50 ns segment = %lld steps)\n",
                md::kAngstromPerSigma, md::kPicosecondsPerStep,
                (long long)md::kSegmentSteps);
    std::printf("production run: T = %.2f eps, Langevin friction %.1f\n",
                md::villinSimulationConfig().integrator.temperature,
                md::villinSimulationConfig().integrator.friction);
    std::printf("perf model: %.1f ns/day serial; efficiency %.2f @ 24, "
                "%.2f @ 96 cores\n",
                perfModel.rate1NsPerDay, perfModel.efficiency(24),
                perfModel.efficiency(96));
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    Logger::instance().setLevel(LogLevel::Warn);
    try {
        const CliArgs args(argc, argv);
        int rc;
        if (args.subcommand() == "fold")
            rc = cmdFold(args);
        else if (args.subcommand() == "bar")
            rc = cmdBar(args);
        else if (args.subcommand() == "scaling")
            rc = cmdScaling(args);
        else if (args.subcommand() == "info")
            rc = cmdInfo();
        else
            return usage();
        for (const auto& key : args.unusedKeys())
            std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                         key.c_str());
        return rc;
    } catch (const Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
