#pragma once

/// \file msm_controller.hpp
/// The Markov-state-model adaptive sampling controller (paper §3): spawns
/// an initial swarm of trajectories from user-supplied unfolded
/// conformations, extends each trajectory as its segments come back,
/// periodically clusters all accumulated data, terminates well-sampled
/// trajectories and spawns new ones from under-explored microstates using
/// even or adaptive (uncertainty) weighting.

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/controller.hpp"
#include "mdlib/proteins.hpp"
#include "msm/adaptive.hpp"
#include "msm/pipeline.hpp"
#include "util/statistics.hpp"

namespace cop::core {

/// Upper bound on the trajectories respawned per generation, whether set in
/// MsmControllerParams or by a client's "set seeds <n>". Each seed costs a
/// Simulation and a checkpoint before it is queued, so one unbounded
/// request could exhaust the server's memory; 65536 is about 290 times the
/// paper's 225 commands per generation.
inline constexpr int kMaxSeedsPerGeneration = 65536;

struct MsmControllerParams {
    md::GoModel model;
    /// Starting conformations (paper: nine unfolded villin structures).
    std::vector<std::vector<Vec3>> startingConformations;
    /// Trajectories per starting conformation (paper: 25, for 225 total).
    int tasksPerStart = 25;
    /// Steps per command segment (paper: 50 ns).
    std::int64_t segmentSteps = md::kSegmentSteps;
    /// Results between clustering steps; defaults to the swarm size. At
    /// most kMaxSeedsPerGeneration.
    int commandsPerGeneration = 0;
    /// Stop after this many clustering generations.
    int maxGenerations = 8;
    /// Clustering / MSM estimation settings.
    msm::MsmPipelineParams pipeline;
    /// Radius-degradation threshold for the incremental MSM builder's
    /// fall-back to a full re-cluster (<= 0 re-clusters every generation).
    double msmRebuildRadiusFactor = 1.5;
    /// Weighting for respawns; the first `evenGenerations` use Even
    /// regardless (paper §3.2: even early, adaptive once states settle).
    msm::WeightingScheme weighting = msm::WeightingScheme::Adaptive;
    int evenGenerations = 1;
    /// Template integrator settings (temperature etc.).
    md::SimulationConfig simulation;
    std::uint64_t seed = 2011;
};

/// Per-generation monitoring record (drives Figs. 2-4 and the status
/// report a client sees).
struct GenerationRecord {
    int generation = 0;
    double wallClockSimTime = 0.0; ///< overlay-network time of clustering
    std::size_t totalSnapshots = 0;
    std::size_t numClusters = 0;
    double minRmsdAngstrom = 0.0;       ///< best frame seen so far
    double meanRmsdAngstrom = 0.0;      ///< over this generation's snapshots
    double foldedFraction = 0.0;        ///< frames within 3.5 A of native
    double predictedRmsdAngstrom = 0.0; ///< blind prediction score (§3.2)
    int seedsSpawned = 0;
    /// Work accounting for this generation's MSM build (incremental vs
    /// full rebuild, RMSD calls vs pruned, per-stage wall time).
    msm::MsmStats msmStats;
};

class MsmController : public Controller {
public:
    explicit MsmController(MsmControllerParams params);

    void onProjectStart(ProjectContext& ctx) override;
    void onCommandFinished(ProjectContext& ctx,
                           const CommandResult& result) override;
    void onCommandFailed(ProjectContext& ctx,
                         const CommandSpec& spec) override;
    bool isDone(const ProjectContext& ctx) const override;
    std::string statusReport(const ProjectContext& ctx) const override;

    /// Dynamic parameter changes (paper §3.2: "future versions will allow
    /// the values to be changed dynamically, since the optimal settings
    /// depend on the available compute resources"). Supported:
    ///   "set clusters <n>"  — clusters per clustering step
    ///   "set seeds <n>"     — trajectories respawned per generation,
    ///                         1..kMaxSeedsPerGeneration
    ///   "set weighting even|adaptive"
    std::string handleClientCommand(ProjectContext& ctx,
                                    const std::string& command) override;

    // --- Monitoring / analysis access --------------------------------

    int generation() const { return generation_; }
    const std::vector<GenerationRecord>& history() const { return history_; }
    /// All trajectories accumulated so far, keyed by trajectory id.
    const std::map<int, md::Trajectory>& trajectories() const {
        return trajectories_;
    }
    /// The most recent MSM build (empty before the first clustering).
    const std::optional<msm::MsmPipelineResult>& lastMsm() const {
        return lastMsm_;
    }
    const MsmControllerParams& params() const { return params_; }
    /// Minimum RMSD to native over every frame seen, in Angstrom.
    double minRmsdAngstrom() const { return minRmsdAngstrom_; }
    /// Simulation time (overlay clock) when a frame first came within
    /// 3.5 A of native; negative if not yet.
    double firstFoldedTime() const { return firstFoldedTime_; }
    /// Generation in which the first folded frame appeared (-1 if none).
    int firstFoldedGeneration() const { return firstFoldedGeneration_; }

private:
    void spawnInitialSwarm(ProjectContext& ctx);
    void submitSegment(ProjectContext& ctx, int trajectoryId,
                       std::vector<std::uint8_t> checkpoint);
    void clusteringStep(ProjectContext& ctx);
    /// Blind native-state prediction (paper §3.2): RMSD between native and
    /// the highest-equilibrium-population cluster, averaged over samples.
    double scoreBlindPrediction(const msm::MsmPipelineResult& msmResult);
    /// RMSD of `xs` to the native structure, in Angstrom; equal to
    /// md::toAngstrom(md::rmsd(native, xs)).
    double rmsdToNativeAngstrom(std::span<const Vec3> xs) const;

    MsmControllerParams params_;
    // params_.model.native, centered once, with its squared norm.
    std::vector<Vec3> nativeCentered_;
    double nativeNorm2_ = 0.0;
    Rng rng_;
    msm::IncrementalMsmBuilder msmBuilder_;
    int nextTrajectoryId_ = 0;
    int generation_ = 0;
    int resultsSinceClustering_ = 0;
    bool done_ = false;
    std::map<int, md::Trajectory> trajectories_;
    std::vector<GenerationRecord> history_;
    std::optional<msm::MsmPipelineResult> lastMsm_;
    double minRmsdAngstrom_ = 1e30;
    double firstFoldedTime_ = -1.0;
    int firstFoldedGeneration_ = -1;
    // Cumulative snapshot monitoring statistics, extended per generation by
    // scanning only frames not seen before (statScanFrom_ per trajectory)
    // instead of re-walking every trajectory from frame 0.
    RunningStats snapshotRmsdStats_;
    std::size_t snapshotsFolded_ = 0;
    std::size_t snapshotsSeen_ = 0;
    std::map<int, std::size_t> statScanFrom_;
};

} // namespace cop::core
