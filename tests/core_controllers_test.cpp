// MSM adaptive-sampling controller and BAR free-energy controller driven
// through the full framework (integration-level tests).

#include <gtest/gtest.h>

#include <memory>

#include "core/backends.hpp"
#include "core/bar_controller.hpp"
#include "core/copernicus.hpp"
#include "core/msm_controller.hpp"
#include "mdlib/units.hpp"

namespace cop::core {
namespace {

ExecutableRegistry mdRegistry() {
    ExecutableRegistry reg;
    reg.add("mdrun", makeMdrunExecutable(linearDurationModel(0.05)));
    return reg;
}

MsmControllerParams smallMsmParams(std::uint64_t seed = 11) {
    MsmControllerParams p;
    p.model = md::hairpinGoModel();
    p.startingConformations =
        md::makeUnfoldedConformations(p.model, 2, seed);
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

TEST(MsmControllerTest, RunsGenerationsAndBuildsModel) {
    Deployment dep(20);
    auto& server = dep.addServer("s0");
    for (int i = 0; i < 3; ++i)
        dep.addWorker("w" + std::to_string(i), server, WorkerConfig{},
                      mdRegistry(), links::intraCluster());
    auto ctrl = std::make_unique<MsmController>(smallMsmParams());
    auto* c = ctrl.get();
    server.createProject({.name = "hairpin"}, std::move(ctrl));
    ASSERT_TRUE(dep.runUntilDone(1e9));

    EXPECT_EQ(c->generation(), 2);
    EXPECT_EQ(c->history().size(), 2u);
    ASSERT_TRUE(c->lastMsm().has_value());
    EXPECT_GE(c->lastMsm()->model.numStates(), 1u);
    // Trajectories accumulated: initial 4 + respawns.
    EXPECT_GE(c->trajectories().size(), 4u);
    // Generation records are monotone in data volume.
    EXPECT_GE(c->history()[1].totalSnapshots,
              c->history()[0].totalSnapshots);
    // The hairpin folds easily: minimum RMSD should reach the folded zone.
    EXPECT_LT(c->minRmsdAngstrom(), md::kFoldedRmsdAngstrom);
    EXPECT_GE(c->firstFoldedGeneration(), 0);
    // MSM build accounting: generation 1 is always a full (first) build
    // and sees every snapshot as new; later generations only pay for the
    // data that arrived since.
    const auto& s1 = c->history()[0].msmStats;
    const auto& s2 = c->history()[1].msmStats;
    EXPECT_TRUE(s1.fullRebuild);
    EXPECT_EQ(s1.snapshotsNew, s1.snapshotsTotal);
    EXPECT_GT(s1.rmsd.calls, 0u);
    EXPECT_EQ(s2.generation, 2u);
    EXPECT_EQ(s2.snapshotsTotal, c->history()[1].totalSnapshots);
    if (!s2.fullRebuild) {
        EXPECT_LT(s2.snapshotsNew, s2.snapshotsTotal);
    }
    EXPECT_FALSE(s2.summary().empty());
}

TEST(MsmControllerTest, StatusReportMentionsGeneration) {
    Deployment dep(21);
    auto& server = dep.addServer("s0");
    dep.addWorker("w0", server, WorkerConfig{}, mdRegistry(),
                  links::intraCluster());
    auto ctrl = std::make_unique<MsmController>(smallMsmParams(13));
    const auto pid =
        server.createProject({.name = "hairpin"}, std::move(ctrl));
    dep.runUntilDone(1e9);
    const auto status = server.projectStatus(pid);
    EXPECT_NE(status.find("generation"), std::string::npos);
    EXPECT_NE(status.find("min RMSD"), std::string::npos);
}

TEST(MsmControllerTest, DeterministicAcrossRuns) {
    auto run = [](std::uint64_t seed) {
        Deployment dep(22);
        auto& server = dep.addServer("s0");
        dep.addWorker("w0", server, WorkerConfig{}, mdRegistry(),
                      links::intraCluster());
        auto ctrl = std::make_unique<MsmController>(smallMsmParams(seed));
        auto* c = ctrl.get();
        server.createProject({.name = "hairpin"}, std::move(ctrl));
        dep.runUntilDone(1e9);
        return c->minRmsdAngstrom();
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}

TEST(MsmControllerTest, RejectsBadParameters) {
    MsmControllerParams p;
    p.model = md::hairpinGoModel();
    EXPECT_THROW(MsmController{p}, cop::InvalidArgument); // no starts
    p = smallMsmParams();
    p.tasksPerStart = 0;
    EXPECT_THROW(MsmController{p}, cop::InvalidArgument);
    p = smallMsmParams();
    p.commandsPerGeneration = kMaxSeedsPerGeneration + 1;
    EXPECT_THROW(MsmController{p}, cop::InvalidArgument);
}

/// A context for calls that never reach the framework.
class DetachedContext : public ProjectContext {
public:
    ProjectId projectId() const override { return 1; }
    net::SimTime now() const override { return 0.0; }
    CommandId submitCommand(CommandSpec) override { return 0; }
    std::size_t outstandingCommands() const override { return 0; }
};

/// "set" commands arrive over the wire from any client: a number must be
/// the whole token and in range, or the command is refused and the
/// parameters stay as they were.
TEST(MsmControllerTest, SetCommandsRejectMalformedAndOutOfRangeNumbers) {
    MsmController c(smallMsmParams());
    DetachedContext ctx;
    const int seeds = c.params().commandsPerGeneration;
    const std::size_t clusters = c.params().pipeline.numClusters;
    for (const char* cmd :
         {"set seeds 12abc", "set seeds 0", "set seeds -3", "set seeds +5",
          "set seeds 0x10", "set seeds 65537", "set seeds 99999999999",
          "set clusters 16x", "set clusters 1", "set clusters -20",
          "set clusters 99999999999", "set clusters 2147483648"}) {
        const std::string reply = c.handleClientCommand(ctx, cmd);
        EXPECT_EQ(reply.find(" set to "), std::string::npos) << cmd;
        EXPECT_EQ(c.params().commandsPerGeneration, seeds) << cmd;
        EXPECT_EQ(c.params().pipeline.numClusters, clusters) << cmd;
    }
    EXPECT_EQ(c.handleClientCommand(ctx, "set seeds 65536"),
              "seeds per generation set to 65536");
    EXPECT_EQ(c.params().commandsPerGeneration, kMaxSeedsPerGeneration);
    EXPECT_NE(c.handleClientCommand(ctx, "set clusters 16").find(" set to "),
              std::string::npos);
    EXPECT_EQ(c.params().pipeline.numClusters, 16u);
}

/// A successful result whose output does not decode is the command's
/// failure, not an exception out of the event loop: the controller
/// resubmits it, the project completes, and the server counts the
/// rejected output once. Covers plain garbage and a well-formed output
/// stamped with an unknown version.
TEST(MsmControllerTest, UndecodableOutputIsHandledAsFailure) {
    std::vector<std::uint8_t> versionTwo = MdrunOutput{}.encode();
    versionTwo[4] = 2; // "MOUT", then the little-endian version
    const std::vector<std::vector<std::uint8_t>> corruptions = {
        {0xde, 0xad, 0xbe, 0xef}, versionTwo};
    for (const auto& bad : corruptions) {
        SCOPED_TRACE("output of " + std::to_string(bad.size()) + " bytes");
        auto mdrun = makeMdrunExecutable(linearDurationModel(0.05));
        auto corrupted = std::make_shared<bool>(false);
        ExecutableRegistry reg;
        reg.add("mdrun", [mdrun, corrupted, bad](const CommandSpec& cmd,
                                                 int cores) {
            auto exec = mdrun(cmd, cores);
            if (!*corrupted) {
                *corrupted = true;
                exec.result.output = bad;
            }
            return exec;
        });
        Deployment dep(20);
        auto& server = dep.addServer("s0");
        dep.addWorker("w0", server, WorkerConfig{}, reg,
                      links::intraCluster());
        auto ctrl = std::make_unique<MsmController>(smallMsmParams());
        auto* c = ctrl.get();
        server.createProject({.name = "hairpin"}, std::move(ctrl));
        ASSERT_TRUE(dep.runUntilDone(1e9));
        EXPECT_TRUE(*corrupted);
        EXPECT_EQ(c->generation(), 2);
        EXPECT_EQ(server.metricsSnapshot().server.undecodableResults, 1u);
    }
}

/// Submits one command per event and, once a command finishes, fails
/// with IoError after submitting the next: an error of the server's own
/// I/O, not an output it could not decode.
class SubmitThenThrowController : public Controller {
public:
    void onProjectStart(ProjectContext& ctx) override { submit(ctx); }
    void onCommandFinished(ProjectContext& ctx,
                           const CommandResult&) override {
        submit(ctx);
        throw IoError("plane write failed");
    }
    bool isDone(const ProjectContext&) const override { return false; }

private:
    static void submit(ProjectContext& ctx) {
        CommandSpec spec;
        spec.executable = "sim";
        spec.steps = 10;
        ctx.submitCommand(std::move(spec));
    }
};

TEST(ControllerErrors, IoErrorAfterCommittingPropagates) {
    ExecutableRegistry reg;
    reg.add("sim", makeSimulatedExecutable(linearDurationModel(0.01), 8));
    Deployment dep(23);
    auto& server = dep.addServer("s0");
    dep.addWorker("w0", server, WorkerConfig{}, reg, links::intraCluster());
    server.createProject({.name = "throws"},
                         std::make_unique<SubmitThenThrowController>());
    EXPECT_THROW(dep.runUntilDone(1e9), IoError);
    EXPECT_EQ(server.metricsSnapshot().server.undecodableResults, 0u);
}

TEST(BarControllerTest, ConvergesToAnalyticResult) {
    Deployment dep(23);
    auto& server = dep.addServer("s0");
    for (int i = 0; i < 2; ++i) {
        ExecutableRegistry reg;
        reg.add("fe_sample",
                makeFeSampleExecutable(linearDurationModel(0.001)));
        dep.addWorker("few" + std::to_string(i), server, WorkerConfig{},
                      std::move(reg), links::intraCluster());
    }
    BarControllerParams bp;
    bp.targetError = 0.02;
    auto ctrl = std::make_unique<BarController>(bp);
    auto* c = ctrl.get();
    server.createProject({.name = "bar"}, std::move(ctrl));
    ASSERT_TRUE(dep.runUntilDone(1e9));

    ASSERT_TRUE(c->estimate().has_value());
    const auto& est = *c->estimate();
    EXPECT_LE(est.totalError, bp.targetError * 1.001);
    EXPECT_NEAR(est.totalDeltaF, c->analyticDeltaF(),
                4.0 * est.totalError + 0.01);
    EXPECT_GE(c->rounds(), 1);
}

TEST(BarControllerTest, AdaptiveRefinementAddsRounds) {
    // A tight error target forces several refinement rounds.
    Deployment dep(24);
    auto& server = dep.addServer("s0");
    ExecutableRegistry reg;
    reg.add("fe_sample",
            makeFeSampleExecutable(linearDurationModel(0.001)));
    dep.addWorker("few", server, WorkerConfig{}, std::move(reg),
                  links::intraCluster());
    BarControllerParams bp;
    bp.samplesPerCommand = 200;
    bp.targetError = 0.015;
    bp.maxRounds = 40;
    auto ctrl = std::make_unique<BarController>(bp);
    auto* c = ctrl.get();
    server.createProject({.name = "bar"}, std::move(ctrl));
    ASSERT_TRUE(dep.runUntilDone(1e9));
    EXPECT_GT(c->rounds(), 1);
    EXPECT_LE(c->estimate()->totalError, bp.targetError * 1.001);
}

/// A rejected fe_sample output is resubmitted like any failed command.
/// The corrupted one is the last of the opening round (one worker runs
/// the round's 2 * numWindows commands in order), so without the
/// resubmission nothing would ever call refine and the project would
/// stall.
TEST(BarControllerTest, UndecodableOutputIsHandledAsFailure) {
    BarControllerParams bp;
    bp.samplesPerCommand = 200;
    bp.maxRounds = 3;
    const int roundSize = int(2 * bp.numWindows);
    auto feSample = makeFeSampleExecutable(linearDurationModel(0.001));
    auto executed = std::make_shared<int>(0);
    ExecutableRegistry reg;
    reg.add("fe_sample", [feSample, executed, roundSize](
                             const CommandSpec& cmd, int cores) {
        auto exec = feSample(cmd, cores);
        if (++*executed == roundSize)
            exec.result.output = {0xde, 0xad, 0xbe, 0xef};
        return exec;
    });
    Deployment dep(25);
    auto& server = dep.addServer("s0");
    dep.addWorker("few", server, WorkerConfig{}, std::move(reg),
                  links::intraCluster());
    auto ctrl = std::make_unique<BarController>(bp);
    auto* c = ctrl.get();
    server.createProject({.name = "bar"}, std::move(ctrl));
    ASSERT_TRUE(dep.runUntilDone(1e9));
    EXPECT_GT(*executed, roundSize);
    EXPECT_GE(c->rounds(), 1);
    ASSERT_TRUE(c->estimate().has_value());
    EXPECT_EQ(server.metricsSnapshot().server.undecodableResults, 1u);
}

TEST(Backends, MdrunOutputRoundTrip) {
    md::Trajectory traj;
    traj.append(0, 0.0, std::vector<Vec3>{{1, 2, 3}});
    MdrunOutput out;
    out.segment = traj;
    out.checkpoint = {5, 5};
    const auto out2 = MdrunOutput::decode(out.encode());
    EXPECT_EQ(out2.segment.numFrames(), 1u);
    EXPECT_EQ(out2.checkpoint, out.checkpoint);
}

TEST(Backends, MdrunExecutableRunsFromCheckpoint) {
    const auto model = md::hairpinGoModel();
    md::SimulationConfig cfg;
    cfg.sampleInterval = 10;
    cfg.seed = 3;
    auto sim = md::Simulation::forGoModel(model, model.native, cfg);
    sim.initializeVelocities();

    CommandSpec cmd;
    cmd.id = 1;
    cmd.executable = "mdrun";
    cmd.steps = 100;
    cmd.input = sim.checkpoint();

    const auto handler = makeMdrunExecutable(linearDurationModel(0.01));
    const auto exec = handler(cmd, 2);
    EXPECT_TRUE(exec.result.success);
    EXPECT_NEAR(exec.simSeconds, 100 * 0.01 / 2.0, 1e-12);
    EXPECT_EQ(exec.checkpoints.size(), 3u); // quarters
    const auto out = MdrunOutput::decode(exec.result.output);
    EXPECT_EQ(out.segment.numFrames(), 11u);
    // Continuing from the produced checkpoint works.
    auto sim2 = md::Simulation::restore(out.checkpoint);
    EXPECT_EQ(sim2.state().step, 100);
}

TEST(Backends, FeSampleInputRoundTrip) {
    FeSampleInput in;
    in.sampled = {2.0, 0.5};
    in.target = {3.0, -0.5};
    in.samples = 123;
    in.beta = 1.5;
    in.seed = 99;
    const auto in2 = FeSampleInput::decode(in.encode());
    EXPECT_EQ(in2.sampled.k, 2.0);
    EXPECT_EQ(in2.target.x0, -0.5);
    EXPECT_EQ(in2.samples, 123u);
    EXPECT_EQ(in2.beta, 1.5);
    EXPECT_EQ(in2.seed, 99u);
}

TEST(Backends, SimulatedExecutableShapesOutput) {
    const auto handler = makeSimulatedExecutable(
        linearDurationModel(2.0), /*outputBytes=*/512);
    CommandSpec cmd;
    cmd.id = 4;
    cmd.steps = 50;
    const auto exec = handler(cmd, 4);
    EXPECT_EQ(exec.result.output.size(), 512u);
    EXPECT_NEAR(exec.simSeconds, 50 * 2.0 / 4.0, 1e-12);
}

TEST(Backends, LinearDurationModelValidation) {
    EXPECT_THROW(linearDurationModel(0.0), cop::InvalidArgument);
    const auto m = linearDurationModel(1.5);
    EXPECT_DOUBLE_EQ(m(10, 5), 3.0);
}

} // namespace
} // namespace cop::core
