#include "perfmodel/scaling.hpp"

#include <algorithm>
#include <memory>

#include "core/backends.hpp"
#include "core/copernicus.hpp"
#include "util/error.hpp"

namespace cop::perf {

namespace {

/// Controller that reproduces the MSM controller's command pattern
/// without the MD: `commandsPerGeneration` trajectory chains, each
/// extended segment-by-segment for `generations` rounds, exactly like the
/// real controller extends trajectories as their segments return (no
/// global barrier - workers never idle while any chain has work).
class SyntheticMsmController : public core::Controller {
public:
    explicit SyntheticMsmController(const ScalingConfig& config)
        : config_(config) {}

    void onProjectStart(core::ProjectContext& ctx) override {
        segmentsDone_.assign(std::size_t(config_.commandsPerGeneration), 0);
        for (int c = 0; c < config_.commandsPerGeneration; ++c)
            submitSegment(ctx, c, 0);
    }

    void onCommandFinished(core::ProjectContext& ctx,
                           const core::CommandResult& r) override {
        ++totalFinished_;
        // A "generation" completes when C more segments have landed; the
        // clustering step is charged to the generation-end timestamp.
        if (totalFinished_ % config_.commandsPerGeneration == 0)
            generationEnds_.push_back(ctx.now() + config_.clusteringSeconds);
        auto& done = segmentsDone_[std::size_t(r.trajectoryId)];
        ++done;
        if (done < config_.generations)
            submitSegment(ctx, r.trajectoryId, done);
        if (totalFinished_ ==
            config_.generations * config_.commandsPerGeneration)
            done_ = true;
    }

    bool isDone(const core::ProjectContext&) const override { return done_; }

    const std::vector<double>& generationEnds() const {
        return generationEnds_;
    }

private:
    void submitSegment(core::ProjectContext& ctx, int chain, int segment) {
        core::CommandSpec spec;
        spec.executable = "mdrun_sim";
        spec.steps = std::int64_t(config_.segmentNs);
        spec.preferredCores = config_.coresPerSim;
        spec.trajectoryId = chain;
        spec.generation = segment;
        ctx.submitCommand(std::move(spec));
    }

    ScalingConfig config_;
    std::vector<int> segmentsDone_;
    int totalFinished_ = 0;
    bool done_ = false;
    std::vector<double> generationEnds_;
};

} // namespace

double serialTimeHours(const ScalingConfig& config) {
    return config.generations * config.commandsPerGeneration *
           config.perf.commandSeconds(config.segmentNs, 1) / 3600.0;
}

ScalingResult simulateRun(const ScalingConfig& config) {
    COP_REQUIRE(config.totalCores >= config.coresPerSim,
                "fewer cores than one simulation needs");
    COP_REQUIRE(config.stopGeneration >= 1 &&
                    config.stopGeneration <= config.generations,
                "bad stop generation");

    core::Deployment dep(config.totalCores * 31 + config.coresPerSim);
    core::ServerConfig sc;
    sc.heartbeatInterval = 6.0 * 3600.0; // suppress heartbeat traffic noise
    sc.batch.enabled = config.batching;
    auto& server = dep.addServer("project-server", sc);

    const int workers = config.totalCores / config.coresPerSim;
    const MdPerfModel perf = config.perf;
    const double segmentNs = config.segmentNs;
    for (int w = 0; w < workers; ++w) {
        core::ExecutableRegistry reg;
        reg.add("mdrun_sim",
                core::makeSimulatedExecutable(
                    [perf, segmentNs](std::int64_t steps, int cores) {
                        (void)steps;
                        return perf.commandSeconds(segmentNs, cores);
                    },
                    perf.outputBytesPerCommand));
        core::WorkerConfig wc;
        wc.cores = config.coresPerSim;
        wc.heartbeatInterval = 6.0 * 3600.0;
        // Fixed 600 s poll (no growth, no jitter) keeps the traffic model
        // of the original study.
        wc.pollBackoff = net::BackoffPolicy{600.0, 1.0, 600.0, 0.0};
        wc.batch.enabled = config.batching;
        dep.addWorker("w" + std::to_string(w), server, wc, std::move(reg),
                      core::links::intraCluster());
    }

    auto controller = std::make_unique<SyntheticMsmController>(config);
    auto* driver = controller.get();
    server.createProject({.name = "villin-scaling"}, std::move(controller));

    const bool done = dep.runUntilDone(1e12);
    COP_ENSURE(done, "scaling run did not finish");

    const auto& ends = driver->generationEnds();
    COP_ENSURE(int(ends.size()) == config.generations,
               "missing generation records");

    ScalingResult res;
    res.totalCores = config.totalCores;
    res.coresPerSim = config.coresPerSim;
    res.workers = workers;
    res.timeToSolutionHours =
        ends[std::size_t(config.stopGeneration - 1)] / 3600.0;
    res.totalTimeHours = ends.back() / 3600.0;
    res.efficiency = serialTimeHours(config) /
                     (double(config.totalCores) * res.totalTimeHours);
    const auto stats = dep.network().totalStats();
    res.totalBytes = double(stats.bytes);
    res.bytesPerGeneration = res.totalBytes / config.generations;
    res.totalFrames = double(stats.messages);
    res.ensembleBandwidth = res.totalTimeHours > 0.0
                                ? res.totalBytes /
                                      (res.totalTimeHours * 3600.0)
                                : 0.0;
    // Busy core-seconds / available core-seconds.
    double busy = 0.0;
    for (const auto& w : dep.workers())
        busy += w->stats().busySeconds * config.coresPerSim *
                perf.efficiency(config.coresPerSim);
    res.utilization = busy / (double(config.totalCores) *
                              res.totalTimeHours * 3600.0);
    return res;
}

std::vector<ScalingResult> sweepTotalCores(
    const ScalingConfig& base, const std::vector<int>& totalCores) {
    std::vector<ScalingResult> out;
    out.reserve(totalCores.size());
    for (int n : totalCores) {
        if (n < base.coresPerSim) continue;
        ScalingConfig cfg = base;
        cfg.totalCores = n;
        out.push_back(simulateRun(cfg));
    }
    return out;
}

} // namespace cop::perf
