#pragma once

/// \file pipeline.hpp
/// End-to-end MSM construction from raw trajectories, as performed by the
/// paper's MSM controller at each clustering step: subsample snapshots
/// (paper: every 1.5 ns), cluster (k-centers [+ k-medoids refinement]),
/// assign, count transitions, estimate the transition matrix on the largest
/// connected subset.
///
/// IncrementalMsmBuilder is the one build path: it persists clustering
/// state across adaptive generations, assigning only newly appended
/// snapshots to the frozen centers and counting only the new transition
/// windows, with a fallback to a full re-cluster when coverage degrades.
/// The adaptive-sampling loop re-runs the MSM every generation over an
/// ever-growing dataset; incrementality makes that rebuild cost
/// proportional to the *new* data instead of the total. buildMsm is one
/// update of a fresh builder: the from-scratch pipeline over a full
/// trajectory set.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mdlib/trajectory.hpp"
#include "msm/clustering.hpp"
#include "msm/markov_model.hpp"

namespace cop {
class ThreadPool;
}

namespace cop::msm {

struct MsmPipelineParams {
    std::size_t numClusters = 200;
    /// Frames of the input trajectories between clustering snapshots
    /// (paper: snapshots every 1.5 ns).
    std::size_t snapshotStride = 3;
    /// MSM lag time in snapshot intervals.
    std::size_t lag = 1;
    EstimatorKind estimator = EstimatorKind::ReversibleMle;
    int medoidSweeps = 1;
    std::uint64_t seed = 0;
};

/// Per-build accounting: how much work one MSM construction (or one
/// incremental generation) actually performed. Logged by the MSM controller
/// each generation.
struct MsmStats {
    std::size_t generation = 0; ///< 1-based update index (1 for buildMsm)
    bool fullRebuild = false;   ///< re-clustered from scratch this build
    std::size_t snapshotsTotal = 0;
    std::size_t snapshotsNew = 0; ///< snapshots first seen this build
    /// RMSD evaluations performed vs pruned during this build.
    RmsdCounters rmsd;
    /// Current max point-to-center distance, and its value at the last
    /// full re-cluster (the degradation baseline).
    double clusterRadius = 0.0;
    double radiusAtFull = 0.0;
    double clusterSeconds = 0.0;  ///< k-centers (+ medoid refinement)
    double assignSeconds = 0.0;   ///< frozen-center assignment (incremental)
    double countSeconds = 0.0;    ///< transition counting
    double estimateSeconds = 0.0; ///< SCC restriction + estimator

    double totalSeconds() const {
        return clusterSeconds + assignSeconds + countSeconds +
               estimateSeconds;
    }
    /// One-line human-readable summary for the controller log.
    std::string summary() const;
};

struct MsmPipelineResult {
    ClusteringResult clustering;
    /// One discrete trajectory per input trajectory, over microstates.
    std::vector<DiscreteTrajectory> discrete;
    /// Transition counts over all microstates (before SCC restriction).
    SparseCounts sparseCounts;
    MarkovStateModel model;
    /// Representative conformation of each microstate.
    std::vector<std::vector<Vec3>> centers;
    /// Total snapshots per microstate.
    std::vector<std::size_t> populations;
    /// Work accounting for the build that produced this result.
    MsmStats stats;

    /// Microstates with at least one snapshot (all of them, by
    /// construction) — convenience for adaptive planning.
    std::vector<bool> observedStates() const;
};

/// Non-owning trajectory list: the pipeline only reads frames, so callers
/// (the MSM controller in particular) pass pointers instead of deep-copying
/// every trajectory each generation.
using TrajectoryRefs = std::vector<const md::Trajectory*>;

/// Runs the full pipeline as the first update of a fresh
/// IncrementalMsmBuilder, keying each trajectory by its index. Requires at
/// least one non-empty trajectory. With a pool, the RMSD sweeps and
/// transition counting are chunked across threads; the result is identical
/// to the serial run.
MsmPipelineResult buildMsm(const TrajectoryRefs& trajectories,
                           const MsmPipelineParams& params,
                           ThreadPool* pool = nullptr);

/// Convenience overload for owned trajectory vectors.
MsmPipelineResult buildMsm(const std::vector<md::Trajectory>& trajectories,
                           const MsmPipelineParams& params,
                           ThreadPool* pool = nullptr);

/// Incremental MSM construction across adaptive-sampling generations.
///
/// Each update() appends the new frames of its input trajectories (keyed by
/// a stable id; a trajectory may only grow between updates), assigns only
/// the new snapshots to the frozen cluster centers (triangle-inequality
/// pruned, threaded), and extends the sparse count matrix with only the
/// transition windows that end in the new suffixes. A full re-cluster runs
/// when:
///  - this is the first update,
///  - the target cluster count changed,
///  - rebuildRadiusFactor <= 0 (always-full mode), or
///  - the max point-to-center radius exceeds rebuildRadiusFactor times its
///    value at the last full build (the frozen centers no longer cover the
///    sampled region).
///
/// On a full rebuild the snapshot store is reordered trajectory-major
/// first, so the rebuild is bit-identical to a fresh builder's first update
/// (buildMsm) over the same trajectories with the same parameters.
struct IncrementalMsmParams {
    MsmPipelineParams pipeline;
    /// Radius-degradation threshold for falling back to a full re-cluster.
    /// <= 0 forces a full rebuild every update.
    double rebuildRadiusFactor = 1.5;
};

class IncrementalMsmBuilder {
public:
    explicit IncrementalMsmBuilder(IncrementalMsmParams params)
        : params_(std::move(params)) {}

    /// Ingests trajectory growth and returns the updated pipeline result.
    MsmPipelineResult update(
        const std::vector<std::pair<int, const md::Trajectory*>>& trajectories,
        ThreadPool* pool = nullptr);

    std::size_t generation() const { return generation_; }
    const IncrementalMsmParams& params() const { return params_; }
    /// Per-generation work accounting, oldest first.
    const std::vector<MsmStats>& history() const { return history_; }

    /// Changes the target microstate count; the next update() re-clusters.
    void setNumClusters(std::size_t k) { params_.pipeline.numClusters = k; }

    /// Seed used by the next full re-cluster (first-center choice and
    /// medoid sampling). The controller redraws it every generation so the
    /// draw order matches the historical from-scratch pipeline.
    void setSeed(std::uint64_t seed) { params_.pipeline.seed = seed; }

private:
    struct TrajState {
        std::size_t nextSnapshotFrame = 0; ///< next frame index to sample
        std::vector<std::size_t> snapIdx;  ///< flat indices, temporal order
        DiscreteTrajectory discrete;
        std::size_t countedLength = 0; ///< discrete length already counted
    };

    void reorderTrajectoryMajor();
    void fullRebuild(MsmStats& stats, ThreadPool* pool);
    MsmPipelineResult assembleResult(MsmStats stats);

    IncrementalMsmParams params_;
    std::size_t generation_ = 0;

    ConformationSet snapshots_; ///< flat, arrival order between rebuilds
    std::vector<TrajState> states_;         // in first-seen order
    std::unordered_map<int, std::size_t> idToState_;

    std::vector<int> assignments_;   ///< flat, aligned with snapshots_
    std::vector<double> distances_;  ///< flat, aligned with snapshots_
    std::vector<std::size_t> centers_;
    std::vector<double> centerDist_; ///< lazy k*k prune table
    SparseCounts counts_;
    double radiusAtFull_ = 0.0;
    double maxRadius_ = 0.0;
    std::size_t kAtFull_ = 0;
    RmsdCounters cumulativeRmsd_;
    std::vector<MsmStats> history_;
};

/// Implied-timescale sensitivity analysis (paper §3.2: "the system became
/// Markovian for lag times of 20 ns or greater"): slowest `nTimescales`
/// implied timescales for each lag in `lags` (snapshot-interval units).
/// All lags are counted in a single pass over the trajectories.
std::vector<std::vector<double>> impliedTimescaleSweep(
    const std::vector<DiscreteTrajectory>& discrete, std::size_t numStates,
    const std::vector<std::size_t>& lags, std::size_t nTimescales,
    EstimatorKind estimator = EstimatorKind::ReversibleMle);

} // namespace cop::msm
