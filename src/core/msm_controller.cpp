#include "core/msm_controller.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <sstream>

#include "core/backends.hpp"
#include "mdlib/observables.hpp"
#include "mdlib/units.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/statistics.hpp"
#include "util/string_util.hpp"

namespace cop::core {

MsmController::MsmController(MsmControllerParams params)
    : params_(std::move(params)), rng_(params_.seed),
      msmBuilder_(msm::IncrementalMsmParams{
          params_.pipeline, params_.msmRebuildRadiusFactor}) {
    COP_REQUIRE(!params_.startingConformations.empty(),
                "need at least one starting conformation");
    COP_REQUIRE(params_.tasksPerStart >= 1, "tasksPerStart must be >= 1");
    COP_REQUIRE(params_.segmentSteps > 0, "segmentSteps must be > 0");
    COP_REQUIRE(params_.maxGenerations >= 1, "maxGenerations must be >= 1");
    if (params_.commandsPerGeneration <= 0)
        params_.commandsPerGeneration =
            int(params_.startingConformations.size()) * params_.tasksPerStart;
    COP_REQUIRE(params_.commandsPerGeneration <= kMaxSeedsPerGeneration,
                "commandsPerGeneration exceeds kMaxSeedsPerGeneration");
    nativeCentered_ = md::centered(params_.model.native, nativeNorm2_);
}

double MsmController::rmsdToNativeAngstrom(std::span<const Vec3> xs) const {
    double g = 0.0;
    const auto cx = md::centered(xs, g);
    return md::toAngstrom(
        md::rmsdCentered(nativeCentered_, cx, nativeNorm2_, g));
}

void MsmController::onProjectStart(ProjectContext& ctx) {
    spawnInitialSwarm(ctx);
}

void MsmController::spawnInitialSwarm(ProjectContext& ctx) {
    for (const auto& start : params_.startingConformations) {
        COP_REQUIRE(start.size() == params_.model.numResidues(),
                    "starting conformation size mismatch");
        for (int t = 0; t < params_.tasksPerStart; ++t) {
            md::SimulationConfig cfg = params_.simulation;
            cfg.seed = rng_.next();
            md::Simulation sim =
                md::Simulation::forGoModel(params_.model, start, cfg);
            sim.initializeVelocities();
            submitSegment(ctx, nextTrajectoryId_++, sim.checkpoint());
        }
    }
}

void MsmController::submitSegment(ProjectContext& ctx, int trajectoryId,
                                  std::vector<std::uint8_t> checkpoint) {
    CommandSpec spec;
    spec.executable = "mdrun";
    spec.steps = params_.segmentSteps;
    spec.preferredCores = 1;
    spec.trajectoryId = trajectoryId;
    spec.generation = generation_;
    spec.input = std::move(checkpoint);
    ctx.submitCommand(std::move(spec));
}

void MsmController::onCommandFinished(ProjectContext& ctx,
                                      const CommandResult& result) {
    if (done_) return;
    const auto out = MdrunOutput::decode(result.output);

    // Accumulate the segment and scan it for monitoring statistics.
    auto& traj = trajectories_[result.trajectoryId];
    const std::size_t firstNew = traj.numFrames() == 0 ? 0 : 1;
    for (std::size_t f = firstNew; f < out.segment.numFrames(); ++f) {
        const auto& frame = out.segment.frame(f);
        const double r = rmsdToNativeAngstrom(frame.positions);
        if (r < minRmsdAngstrom_) minRmsdAngstrom_ = r;
        if (r < md::kFoldedRmsdAngstrom && firstFoldedTime_ < 0.0) {
            firstFoldedTime_ = ctx.now();
            firstFoldedGeneration_ = generation_;
        }
        traj.append(frame);
    }

    ++resultsSinceClustering_;
    if (resultsSinceClustering_ >= params_.commandsPerGeneration) {
        clusteringStep(ctx);
    } else if (result.generation == generation_) {
        // Current-generation trajectory: the controller extends the run by
        // another segment (paper §3.2).
        submitSegment(ctx, result.trajectoryId,
                      std::vector<std::uint8_t>(out.checkpoint));
    }
    // Results from older generations are recorded but their trajectories
    // were marked for termination at the last clustering step.
}

void MsmController::onCommandFailed(ProjectContext& ctx,
                                    const CommandSpec& spec) {
    // Failed commands are simply resubmitted from their newest checkpoint
    // (the spec the queue hands back already carries it).
    COP_LOG_INFO("msm") << "resubmitting failed command for trajectory "
                        << spec.trajectoryId;
    CommandSpec again = spec;
    again.id = 0;
    ctx.submitCommand(std::move(again));
}

void MsmController::clusteringStep(ProjectContext& ctx) {
    resultsSinceClustering_ = 0;
    ++generation_;

    // The incremental builder keeps clustering state between generations,
    // so the controller hands it non-owning pointers instead of deep
    // copies; only newly appended frames are snapshotted and assigned.
    std::vector<std::pair<int, const md::Trajectory*>> trajs;
    trajs.reserve(trajectories_.size());
    for (const auto& [id, traj] : trajectories_) {
        if (traj.numFrames() == 0) continue;
        trajs.emplace_back(id, &traj);
    }
    COP_REQUIRE(!trajs.empty(), "clustering with no data");

    msmBuilder_.setNumClusters(params_.pipeline.numClusters);
    msmBuilder_.setSeed(rng_.next());
    lastMsm_ = msmBuilder_.update(trajs);
    const auto& msmResult = *lastMsm_;
    COP_LOG_INFO("msm") << msmResult.stats.summary();

    GenerationRecord rec;
    rec.generation = generation_;
    rec.wallClockSimTime = ctx.now();
    rec.numClusters = msmResult.clustering.numClusters();
    rec.minRmsdAngstrom = minRmsdAngstrom_;
    rec.msmStats = msmResult.stats;

    // Snapshot monitoring statistics, extended by the frames that arrived
    // since the last clustering step (rmsd-to-native per frame is
    // immutable, so accumulating is equivalent to the full rescan).
    for (const auto& [id, traj] : trajectories_) {
        if (traj.numFrames() == 0) continue;
        std::size_t& from = statScanFrom_[id];
        for (std::size_t f = from; f < traj.numFrames();
             f += params_.pipeline.snapshotStride) {
            const double r = rmsdToNativeAngstrom(traj.frame(f).positions);
            snapshotRmsdStats_.add(r);
            if (r < md::kFoldedRmsdAngstrom) ++snapshotsFolded_;
            ++snapshotsSeen_;
            from = f + params_.pipeline.snapshotStride;
        }
    }
    rec.totalSnapshots = snapshotsSeen_;
    rec.meanRmsdAngstrom = snapshotRmsdStats_.mean();
    rec.foldedFraction = snapshotsSeen_ ? double(snapshotsFolded_) /
                                              double(snapshotsSeen_)
                                        : 0.0;
    rec.predictedRmsdAngstrom = scoreBlindPrediction(msmResult);

    if (generation_ >= params_.maxGenerations) {
        done_ = true;
        history_.push_back(rec);
        COP_LOG_INFO("msm") << "project finished after generation "
                            << generation_;
        return;
    }

    // Adaptive sampling: spawn the next generation's trajectories from
    // cluster representatives, weighted per the configured scheme.
    msm::AdaptiveParams ap;
    ap.scheme = generation_ <= params_.evenGenerations
                    ? msm::WeightingScheme::Even
                    : params_.weighting;
    ap.totalSeeds = params_.commandsPerGeneration;
    ap.seed = rng_.next();
    const auto plan =
        msm::planAdaptiveSampling(msmResult.sparseCounts,
                                  msmResult.observedStates(), ap);
    rec.seedsSpawned = plan.totalSeeds();
    history_.push_back(rec);

    for (std::size_t state = 0; state < plan.seedsPerState.size(); ++state) {
        for (int s = 0; s < plan.seedsPerState[state]; ++s) {
            md::SimulationConfig cfg = params_.simulation;
            cfg.seed = rng_.next();
            md::Simulation sim = md::Simulation::forGoModel(
                params_.model, msmResult.centers[state], cfg);
            sim.initializeVelocities();
            submitSegment(ctx, nextTrajectoryId_++, sim.checkpoint());
        }
    }
}

double MsmController::scoreBlindPrediction(
    const msm::MsmPipelineResult& msmResult) {
    // Highest-equilibrium-population cluster = predicted native state
    // (paper §3.2). Score: RMSD to native averaged over the center plus
    // up to four random member snapshots ("five random samples").
    const auto& model = msmResult.model;
    const auto& pi = model.stationaryDistribution();
    std::size_t bestActive = 0;
    for (std::size_t a = 1; a < pi.size(); ++a)
        if (pi[a] > pi[bestActive]) bestActive = a;
    const int micro = model.activeState(bestActive);

    RunningStats score;
    score.add(rmsdToNativeAngstrom(msmResult.centers[std::size_t(micro)]));

    // Collect member snapshot indices of this microstate.
    std::vector<std::pair<std::size_t, std::size_t>> members; // (traj, frame)
    std::size_t flat = 0;
    std::size_t trajIdx = 0;
    for (const auto& dt : msmResult.discrete) {
        for (std::size_t s = 0; s < dt.size(); ++s, ++flat) {
            if (dt[s] == micro)
                members.emplace_back(trajIdx, s);
        }
        ++trajIdx;
    }
    // Sample up to 4 members (deterministic).
    Rng sampler(rng_.next());
    for (int k = 0; k < 4 && !members.empty(); ++k) {
        const auto& pick = members[sampler.uniformInt(members.size())];
        // Recover the frame: snapshots were taken with the pipeline stride.
        std::size_t count = 0;
        for (const auto& [id, traj] : trajectories_) {
            if (traj.numFrames() == 0) continue;
            if (count == pick.first) {
                const std::size_t frameIdx =
                    pick.second * params_.pipeline.snapshotStride;
                if (frameIdx < traj.numFrames())
                    score.add(rmsdToNativeAngstrom(
                        traj.frame(frameIdx).positions));
                break;
            }
            ++count;
        }
    }
    return score.mean();
}

namespace {

/// The whole token as a base-10 int in [lo, hi]; nullopt for trailing
/// bytes, overflow or a value out of range. The token arrives over the
/// wire, so nothing about it is trusted.
std::optional<int> parseIntIn(const std::string& token, int lo, int hi) {
    int value = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc{} || ptr != end || value < lo || value > hi)
        return std::nullopt;
    return value;
}

} // namespace

std::string MsmController::handleClientCommand(ProjectContext& ctx,
                                               const std::string& command) {
    (void)ctx;
    const auto parts = split(trim(command), ' ');
    if (parts.size() == 3 && parts[0] == "set") {
        if (parts[1] == "clusters") {
            const auto n = parseIntIn(parts[2], 2, INT_MAX);
            if (!n) return "clusters must be an integer >= 2";
            params_.pipeline.numClusters = std::size_t(*n);
            return "clusters set to " + parts[2] +
                   " (takes effect at the next clustering step)";
        }
        if (parts[1] == "seeds") {
            const auto n = parseIntIn(parts[2], 1, kMaxSeedsPerGeneration);
            if (!n)
                return "seeds must be an integer in [1, " +
                       std::to_string(kMaxSeedsPerGeneration) + "]";
            params_.commandsPerGeneration = *n;
            return "seeds per generation set to " + parts[2];
        }
        if (parts[1] == "weighting") {
            if (parts[2] == "even")
                params_.weighting = msm::WeightingScheme::Even;
            else if (parts[2] == "adaptive")
                params_.weighting = msm::WeightingScheme::Adaptive;
            else
                return "weighting must be 'even' or 'adaptive'";
            return "weighting set to " + parts[2];
        }
    }
    return "unknown command: " + command +
           " (try: set clusters <n> | set seeds <n> | set weighting "
           "even|adaptive)";
}

bool MsmController::isDone(const ProjectContext& ctx) const {
    (void)ctx;
    return done_;
}

std::string MsmController::statusReport(const ProjectContext& ctx) const {
    std::ostringstream oss;
    oss << "generation " << generation_ << "/" << params_.maxGenerations
        << ", " << trajectories_.size() << " trajectories, "
        << ctx.outstandingCommands() << " commands outstanding, min RMSD "
        << minRmsdAngstrom_ << " A";
    if (!history_.empty())
        oss << ", predicted-state RMSD "
            << history_.back().predictedRmsdAngstrom << " A";
    return oss.str();
}

} // namespace cop::core
