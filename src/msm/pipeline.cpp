#include "msm/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/error.hpp"

namespace cop::msm {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double maxOf(const std::vector<double>& v) {
    double m = 0.0;
    for (double d : v) m = std::max(m, d);
    return m;
}

} // namespace

std::string MsmStats::summary() const {
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "msm gen %zu %s: snapshots %zu (+%zu), rmsd %llu calls / %llu "
        "pruned (%.0f%% skipped), radius %.4g (at full %.4g), "
        "%.3fs = cluster %.3f + assign %.3f + count %.3f + estimate %.3f",
        generation, fullRebuild ? "FULL" : "incr", snapshotsTotal,
        snapshotsNew, (unsigned long long)rmsd.calls,
        (unsigned long long)rmsd.pruned, 100.0 * rmsd.pruneFraction(),
        clusterRadius, radiusAtFull, totalSeconds(), clusterSeconds,
        assignSeconds, countSeconds, estimateSeconds);
    return buf;
}

std::vector<bool> MsmPipelineResult::observedStates() const {
    std::vector<bool> obs(populations.size());
    for (std::size_t i = 0; i < populations.size(); ++i)
        obs[i] = populations[i] > 0;
    return obs;
}

MsmPipelineResult buildMsm(const TrajectoryRefs& trajectories,
                           const MsmPipelineParams& params,
                           ThreadPool* pool) {
    std::vector<std::pair<int, const md::Trajectory*>> keyed;
    keyed.reserve(trajectories.size());
    for (std::size_t t = 0; t < trajectories.size(); ++t)
        keyed.emplace_back(int(t), trajectories[t]);
    return IncrementalMsmBuilder({params}).update(keyed, pool);
}

MsmPipelineResult buildMsm(const std::vector<md::Trajectory>& trajectories,
                           const MsmPipelineParams& params,
                           ThreadPool* pool) {
    TrajectoryRefs refs;
    refs.reserve(trajectories.size());
    for (const auto& traj : trajectories) refs.push_back(&traj);
    return buildMsm(refs, params, pool);
}

void IncrementalMsmBuilder::reorderTrajectoryMajor() {
    // Snapshots arrive generation-major; full rebuilds must see them
    // trajectory-major to be bit-identical to a fresh builder's first
    // update (buildMsm). Skip the copy when the store is already in order
    // (e.g. the first build).
    bool ordered = true;
    std::size_t next = 0;
    for (const auto& st : states_) {
        for (std::size_t idx : st.snapIdx)
            if (idx != next++) {
                ordered = false;
                break;
            }
        if (!ordered) break;
    }
    if (ordered) return;

    ConformationSet reordered;
    for (auto& st : states_)
        for (std::size_t& idx : st.snapIdx) {
            const std::size_t newIdx = reordered.size();
            reordered.add(snapshots_[idx]);
            idx = newIdx;
        }
    snapshots_ = std::move(reordered);
    // assignments_/distances_ are stale now; fullRebuild overwrites them.
}

void IncrementalMsmBuilder::fullRebuild(MsmStats& stats, ThreadPool* pool) {
    const auto& pp = params_.pipeline;
    stats.fullRebuild = true;
    reorderTrajectoryMajor();

    const auto tCluster = Clock::now();
    KCentersParams kc;
    kc.numClusters = pp.numClusters;
    kc.seed = pp.seed;
    ClusteringResult clustering = kCenters(snapshots_, kc, pool);
    if (pp.medoidSweeps > 0)
        clustering = kMedoidsRefine(snapshots_, std::move(clustering),
                                    pp.medoidSweeps, pp.seed);
    stats.clusterSeconds += secondsSince(tCluster);
    stats.rmsd += clustering.rmsd;

    assignments_ = std::move(clustering.assignments);
    distances_ = std::move(clustering.distances);
    centers_ = std::move(clustering.centers);
    centerDist_.clear(); // rebuilt lazily on the next incremental update
    radiusAtFull_ = maxOf(distances_);
    maxRadius_ = radiusAtFull_;
    kAtFull_ = pp.numClusters;

    std::vector<DiscreteTrajectory> discrete;
    discrete.reserve(states_.size());
    for (auto& st : states_) {
        st.discrete.clear();
        st.discrete.reserve(st.snapIdx.size());
        for (std::size_t idx : st.snapIdx)
            st.discrete.push_back(assignments_[idx]);
        st.countedLength = st.discrete.size();
        discrete.push_back(st.discrete);
    }

    const auto tCount = Clock::now();
    counts_ = countTransitionsSparse(discrete, centers_.size(), pp.lag, pool);
    stats.countSeconds += secondsSince(tCount);
}

MsmPipelineResult IncrementalMsmBuilder::assembleResult(MsmStats stats) {
    const auto& pp = params_.pipeline;
    const std::size_t k = centers_.size();

    MsmPipelineResult result;
    result.clustering.assignments = assignments_;
    result.clustering.centers = centers_;
    result.clustering.distances = distances_;
    result.discrete.reserve(states_.size());
    for (const auto& st : states_) result.discrete.push_back(st.discrete);
    result.sparseCounts = counts_;

    const auto tEstimate = Clock::now();
    result.model =
        MarkovStateModel::fromCounts(counts_, {pp.lag, pp.estimator});
    stats.estimateSeconds += secondsSince(tEstimate);

    result.centers.reserve(k);
    for (std::size_t c = 0; c < k; ++c)
        result.centers.push_back(snapshots_[centers_[c]]);
    result.populations.assign(k, 0);
    for (int a : assignments_) ++result.populations[std::size_t(a)];

    stats.clusterRadius = maxRadius_;
    stats.radiusAtFull = radiusAtFull_;
    cumulativeRmsd_ += stats.rmsd;
    result.clustering.rmsd = cumulativeRmsd_;
    result.stats = stats;
    history_.push_back(std::move(stats));
    return result;
}

MsmPipelineResult IncrementalMsmBuilder::update(
    const std::vector<std::pair<int, const md::Trajectory*>>& trajectories,
    ThreadPool* pool) {
    const auto& pp = params_.pipeline;
    COP_REQUIRE(pp.snapshotStride >= 1, "snapshotStride must be >= 1");
    COP_REQUIRE(pp.numClusters >= 2, "need at least 2 clusters");
    ++generation_;

    MsmStats stats;
    stats.generation = generation_;

    // Ingest new frames: each trajectory is keyed by a stable id and may
    // only grow between updates; only frames past the last sampled one are
    // snapshotted.
    const std::size_t oldFlat = snapshots_.size();
    for (const auto& [id, traj] : trajectories) {
        COP_REQUIRE(traj != nullptr, "null trajectory");
        auto [it, inserted] = idToState_.try_emplace(id, states_.size());
        if (inserted) states_.emplace_back();
        TrajState& st = states_[it->second];
        for (std::size_t f = st.nextSnapshotFrame; f < traj->numFrames();
             f += pp.snapshotStride) {
            st.snapIdx.push_back(snapshots_.size());
            snapshots_.add(traj->frame(f).positions);
            st.nextSnapshotFrame = f + pp.snapshotStride;
        }
    }
    COP_REQUIRE(!snapshots_.empty(), "no snapshots to cluster");
    stats.snapshotsTotal = snapshots_.size();
    stats.snapshotsNew = snapshots_.size() - oldFlat;

    bool needFull = centers_.empty() || kAtFull_ != pp.numClusters ||
                    params_.rebuildRadiusFactor <= 0.0;

    if (!needFull && stats.snapshotsNew > 0) {
        // Assign only the new snapshots to the frozen centers, then check
        // whether coverage degraded past the rebuild threshold.
        const auto tAssign = Clock::now();
        if (centerDist_.empty()) {
            RmsdCounters cc;
            centerDist_ =
                centerDistanceMatrix(snapshots_, centers_, pool, &cc);
            stats.rmsd += cc;
        }
        AssignResult assigned =
            assignRangeToCenters(snapshots_, oldFlat, snapshots_.size(),
                                 centers_, centerDist_, pool);
        stats.assignSeconds += secondsSince(tAssign);
        stats.rmsd += assigned.rmsd;

        const double newMax = std::max(maxRadius_, maxOf(assigned.distances));
        if (newMax > params_.rebuildRadiusFactor * radiusAtFull_) {
            needFull = true; // frozen centers no longer cover the data
        } else {
            maxRadius_ = newMax;
            assignments_.insert(assignments_.end(),
                                assigned.assignments.begin(),
                                assigned.assignments.end());
            distances_.insert(distances_.end(), assigned.distances.begin(),
                              assigned.distances.end());
            // Extend the discrete trajectories and count only the windows
            // that end in the newly appended suffixes.
            const auto tCount = Clock::now();
            for (auto& st : states_) {
                while (st.discrete.size() < st.snapIdx.size()) {
                    const std::size_t idx = st.snapIdx[st.discrete.size()];
                    st.discrete.push_back(assignments_[idx]);
                }
                if (st.discrete.size() > st.countedLength) {
                    addSuffixTransitions(counts_, st.discrete, pp.lag,
                                         st.countedLength);
                    st.countedLength = st.discrete.size();
                }
            }
            stats.countSeconds += secondsSince(tCount);
        }
    }

    if (needFull) fullRebuild(stats, pool);
    return assembleResult(std::move(stats));
}

std::vector<std::vector<double>> impliedTimescaleSweep(
    const std::vector<DiscreteTrajectory>& discrete, std::size_t numStates,
    const std::vector<std::size_t>& lags, std::size_t nTimescales,
    EstimatorKind estimator) {
    // One counting pass shared by every lag, instead of re-walking the
    // trajectories per lag.
    const auto countsPerLag =
        countTransitionsMultiLag(discrete, numStates, lags);
    std::vector<std::vector<double>> out;
    out.reserve(lags.size());
    for (std::size_t l = 0; l < lags.size(); ++l) {
        MarkovModelParams mp;
        mp.lag = lags[l];
        mp.estimator = estimator;
        const auto model = MarkovStateModel::fromCounts(countsPerLag[l], mp);
        out.push_back(model.impliedTimescales(nTimescales));
    }
    return out;
}

} // namespace cop::msm
