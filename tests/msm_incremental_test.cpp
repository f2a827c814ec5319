#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "mdlib/observables.hpp"
#include "mdlib/trajectory.hpp"
#include "msm/pipeline.hpp"
#include "msm/transition_counts.hpp"
#include "support/msm_oracles.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace cop::msm {
namespace {

// ---------------------------------------------------------------- helpers

std::vector<Vec3> gaussianConf(Rng& rng, std::size_t nAtoms, double scale) {
    std::vector<Vec3> x(nAtoms);
    for (auto& v : x) v = rng.gaussianVec3(scale);
    return x;
}

std::vector<Vec3> nearConf(Rng& rng, const std::vector<Vec3>& base,
                           double noise) {
    std::vector<Vec3> x = base;
    for (auto& v : x) v += rng.gaussianVec3(noise);
    return x;
}

/// Conformations drawn from `nBasins` well-separated shape prototypes with
/// small within-basin noise (RMSD is superposition-invariant, so the basins
/// differ in shape, not placement).
struct BasinSampler {
    std::vector<std::vector<Vec3>> prototypes;
    double noise;
    BasinSampler(Rng& rng, std::size_t nBasins, std::size_t nAtoms,
                 double noiseIn = 0.02)
        : noise(noiseIn) {
        for (std::size_t b = 0; b < nBasins; ++b)
            prototypes.push_back(gaussianConf(rng, nAtoms, 1.0));
    }
    std::vector<Vec3> draw(Rng& rng) const {
        return nearConf(rng, prototypes[rng.uniformInt(prototypes.size())],
                        noise);
    }
};

void appendFrames(md::Trajectory& traj, Rng& rng, const BasinSampler& basins,
                  std::size_t nFrames) {
    for (std::size_t f = 0; f < nFrames; ++f) {
        const auto step = std::int64_t(traj.numFrames());
        traj.append(step, double(step), basins.draw(rng));
    }
}

std::vector<DiscreteTrajectory> randomDiscrete(Rng& rng, std::size_t nTrajs,
                                               std::size_t len,
                                               std::size_t numStates) {
    std::vector<DiscreteTrajectory> trajs(nTrajs);
    for (auto& t : trajs) {
        // Vary the length so some trajectories are shorter than the lag.
        const std::size_t n = 1 + rng.uniformInt(len);
        t.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            t.push_back(int(rng.uniformInt(numStates)));
    }
    return trajs;
}

void expectSameModel(const MarkovStateModel& a, const MarkovStateModel& b) {
    EXPECT_EQ(a.activeStates(), b.activeStates());
    EXPECT_EQ(a.transitionMatrix().data(), b.transitionMatrix().data());
    EXPECT_EQ(a.countMatrix().data(), b.countMatrix().data());
}

void expectSameResult(const MsmPipelineResult& a, const MsmPipelineResult& b) {
    EXPECT_EQ(a.clustering.assignments, b.clustering.assignments);
    EXPECT_EQ(a.clustering.centers, b.clustering.centers);
    EXPECT_EQ(a.clustering.distances, b.clustering.distances);
    EXPECT_EQ(a.discrete, b.discrete);
    EXPECT_EQ(a.sparseCounts, b.sparseCounts);
    EXPECT_EQ(a.populations, b.populations);
    expectSameModel(a.model, b.model);
}

// ----------------------------------------------------- sparse count tests

/// Reference oracle: the plain dense K x K sliding-window count.
DenseMatrix denseCounts(const std::vector<DiscreteTrajectory>& trajs,
                        std::size_t numStates, std::size_t lag) {
    DenseMatrix counts(numStates, numStates);
    for (const auto& traj : trajs)
        for (std::size_t t = 0; t + lag < traj.size(); ++t)
            counts(std::size_t(traj[t]), std::size_t(traj[t + lag])) += 1.0;
    return counts;
}

TEST(SparseCounts, MatchesDenseCounting) {
    Rng rng(11);
    const std::size_t numStates = 23; // some states never visited
    const auto trajs = randomDiscrete(rng, 7, 40, 17);
    for (std::size_t lag : {std::size_t(1), std::size_t(3), std::size_t(8)}) {
        const auto dense = denseCounts(trajs, numStates, lag);
        const auto sparse = countTransitionsSparse(trajs, numStates, lag);
        std::size_t nonZeros = 0;
        for (std::size_t i = 0; i < numStates; ++i)
            for (std::size_t j = 0; j < numStates; ++j) {
                EXPECT_EQ(sparse.at(int(i), int(j)), dense(i, j))
                    << "lag " << lag << " at (" << i << ", " << j << ")";
                nonZeros += dense(i, j) != 0.0;
            }
        // Only observed transitions are stored.
        EXPECT_EQ(sparse.nonZeros(), nonZeros) << "lag " << lag;
        // Rows for unvisited states stay empty.
        for (std::size_t i = 17; i < numStates; ++i)
            EXPECT_TRUE(sparse.row(i).empty());
    }
}

TEST(SparseCounts, AccessorsAndRowSums) {
    SparseCounts c(4);
    c.add(0, 2);
    c.add(0, 1, 2.0);
    c.add(0, 2); // merge into existing entry
    c.add(3, 0, 5.0);
    EXPECT_EQ(c.at(0, 2), 2.0);
    EXPECT_EQ(c.at(0, 1), 2.0);
    EXPECT_EQ(c.at(1, 1), 0.0);
    EXPECT_EQ(c.rowSum(0), 4.0);
    EXPECT_EQ(c.rowSum(1), 0.0);
    EXPECT_EQ(c.nonZeros(), 3u);
    // Rows keep ascending column order.
    EXPECT_EQ(c.row(0).front().first, 1);
    EXPECT_EQ(c.row(0).back().first, 2);
    c.resize(6);
    EXPECT_EQ(c.numStates(), 6u);
    EXPECT_EQ(c.at(0, 2), 2.0);
    EXPECT_THROW(c.resize(3), cop::InvalidArgument);
}

TEST(SparseCounts, SuffixUpdateEqualsRecount) {
    Rng rng(29);
    for (std::size_t lag : {std::size_t(1), std::size_t(4)}) {
        DiscreteTrajectory traj;
        SparseCounts incremental(9);
        std::size_t counted = 0;
        // Grow the trajectory in uneven chunks (including one empty growth)
        // and count only each new suffix.
        for (std::size_t chunk : {std::size_t(2), std::size_t(0),
                                  std::size_t(7), std::size_t(1),
                                  std::size_t(12)}) {
            for (std::size_t i = 0; i < chunk; ++i)
                traj.push_back(int(rng.uniformInt(9)));
            addSuffixTransitions(incremental, traj, lag, counted);
            counted = traj.size();
            const auto scratch = countTransitionsSparse({traj}, 9, lag);
            EXPECT_EQ(incremental, scratch) << "lag " << lag;
        }
    }
}

TEST(SparseCounts, MultiLagSweepMatchesPerLag) {
    Rng rng(43);
    const auto trajs = randomDiscrete(rng, 6, 30, 10);
    const std::vector<std::size_t> lags{1, 2, 5, 29};
    const auto multi = countTransitionsMultiLag(trajs, 10, lags);
    ASSERT_EQ(multi.size(), lags.size());
    for (std::size_t l = 0; l < lags.size(); ++l)
        EXPECT_EQ(multi[l], countTransitionsSparse(trajs, 10, lags[l]))
            << "lag " << lags[l];
}

TEST(SparseCounts, PooledCountingMatchesSerial) {
    Rng rng(53);
    const auto trajs = randomDiscrete(rng, 32, 60, 14);
    ThreadPool pool(4);
    const auto serial = countTransitionsSparse(trajs, 14, 3, nullptr);
    const auto pooled = countTransitionsSparse(trajs, 14, 3, &pool);
    EXPECT_EQ(serial, pooled);
}

// --------------------------------------------------------- pruning tests

ConformationSet clusteredSet(Rng& rng, std::size_t n, std::size_t nBasins) {
    const BasinSampler basins(rng, nBasins, 8);
    ConformationSet data;
    for (std::size_t i = 0; i < n; ++i) data.add(basins.draw(rng));
    return data;
}

TEST(Pruning, KCentersPrunedMatchesUnpruned) {
    Rng rng(61);
    const auto data = clusteredSet(rng, 240, 6);
    KCentersParams params;
    params.numClusters = 12;
    params.seed = 5;

    const auto a = kCenters(data, params);
    const auto b = kCentersUnpruned(data, params);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_EQ(a.centers, b.centers);
    EXPECT_EQ(a.distances, b.distances);
    // Tight basins far apart: the bound must actually fire.
    EXPECT_GT(a.rmsd.pruned, 0u);
    EXPECT_LT(a.rmsd.calls, b.rmsd.calls);
    EXPECT_EQ(b.rmsd.pruned, 0u);
}

TEST(Pruning, AdversarialEquidistantIdentical) {
    // Near-equidistant set: every conformation is an independent Gaussian
    // shape, so center-center and point-center distances are all similar
    // and the triangle bound almost never proves anything — the worst case
    // for pruning. Results must still be identical.
    Rng rng(67);
    ConformationSet data;
    for (std::size_t i = 0; i < 120; ++i) data.add(gaussianConf(rng, 8, 1.0));
    KCentersParams params;
    params.numClusters = 10;
    params.seed = 3;
    const auto a = kCenters(data, params);
    const auto b = kCentersUnpruned(data, params);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_EQ(a.centers, b.centers);
    EXPECT_EQ(a.distances, b.distances);

    // Same invariance for range assignment against those centers.
    const auto cc = centerDistanceMatrix(data, a.centers);
    const auto pruned = assignRangeToCenters(data, 0, data.size(), a.centers,
                                             cc);
    const auto plain = assignRangeToCenters(data, 0, data.size(), a.centers);
    EXPECT_EQ(pruned.assignments, plain.assignments);
    EXPECT_EQ(pruned.distances, plain.distances);
}

TEST(Pruning, AssignRangeMatchesNaive) {
    Rng rng(71);
    const auto data = clusteredSet(rng, 150, 5);
    KCentersParams kc;
    kc.numClusters = 10;
    kc.seed = 9;
    const auto clustering = kCenters(data, kc);
    const auto& centers = clustering.centers;
    const std::size_t k = centers.size();

    RmsdCounters ccWork;
    const auto cc = centerDistanceMatrix(data, centers, nullptr, &ccWork);
    EXPECT_EQ(ccWork.calls, k * (k - 1) / 2);

    const std::size_t first = 30, last = 120;
    const auto pruned = assignRangeToCenters(data, first, last, centers, cc);
    const auto plain = assignRangeToCenters(data, first, last, centers);

    // Naive reference scan over the raw metric.
    std::vector<int> expectAssign;
    std::vector<double> expectDist;
    for (std::size_t i = first; i < last; ++i) {
        double best = std::numeric_limits<double>::max();
        int bestC = 0;
        for (std::size_t c = 0; c < k; ++c) {
            const double d = md::rmsd(data[i], data[centers[c]]);
            if (d < best) {
                best = d;
                bestC = int(c);
            }
        }
        expectAssign.push_back(bestC);
        expectDist.push_back(best);
    }
    EXPECT_EQ(plain.assignments, expectAssign);
    EXPECT_EQ(plain.distances, expectDist);
    EXPECT_EQ(pruned.assignments, expectAssign);
    EXPECT_EQ(pruned.distances, expectDist);

    // Every candidate is either evaluated or provably skipped.
    const std::size_t n = last - first;
    EXPECT_EQ(pruned.rmsd.calls + pruned.rmsd.pruned, n * k);
    EXPECT_GT(pruned.rmsd.pruned, 0u);
    EXPECT_EQ(plain.rmsd.calls, n * k);
    EXPECT_EQ(plain.rmsd.pruned, 0u);

    // And the pooled path is bit-identical with chunk-invariant counters.
    ThreadPool pool(3);
    const auto pooled =
        assignRangeToCenters(data, first, last, centers, cc, &pool);
    EXPECT_EQ(pooled.assignments, expectAssign);
    EXPECT_EQ(pooled.distances, expectDist);
    EXPECT_EQ(pooled.rmsd.calls, pruned.rmsd.calls);
    EXPECT_EQ(pooled.rmsd.pruned, pruned.rmsd.pruned);
}

TEST(Pruning, KCentersPooledMatchesSerial) {
    Rng rng(73);
    const auto data = clusteredSet(rng, 200, 4);
    KCentersParams kc;
    kc.numClusters = 8;
    kc.seed = 1;
    ThreadPool pool(4);
    const auto serial = kCenters(data, kc);
    const auto pooled = kCenters(data, kc, &pool);
    EXPECT_EQ(serial.assignments, pooled.assignments);
    EXPECT_EQ(serial.centers, pooled.centers);
    EXPECT_EQ(serial.distances, pooled.distances);
    EXPECT_EQ(serial.rmsd.calls, pooled.rmsd.calls);
    EXPECT_EQ(serial.rmsd.pruned, pooled.rmsd.pruned);
}

// ----------------------------------------------------- incremental builds

MsmPipelineParams smallPipeline() {
    MsmPipelineParams p;
    p.numClusters = 8;
    p.snapshotStride = 2;
    p.lag = 2;
    p.medoidSweeps = 1;
    p.seed = 17;
    return p;
}

TEST(IncrementalMsm, AlwaysFullMatchesBuildMsm) {
    Rng rng(81);
    const BasinSampler basins(rng, 5, 8);
    const auto pp = smallPipeline();

    IncrementalMsmParams ip;
    ip.pipeline = pp;
    ip.rebuildRadiusFactor = 0.0; // always re-cluster from scratch

    IncrementalMsmBuilder builder(ip);
    std::vector<md::Trajectory> trajs(3);
    for (int gen = 1; gen <= 4; ++gen) {
        // Grow existing trajectories and, from generation 2 on, spawn a
        // new one — so the arrival order differs from trajectory-major
        // order and the rebuild has to reorder.
        if (gen >= 2) trajs.emplace_back();
        for (auto& traj : trajs) appendFrames(traj, rng, basins, 11);

        std::vector<std::pair<int, const md::Trajectory*>> refs;
        for (std::size_t t = 0; t < trajs.size(); ++t)
            refs.emplace_back(int(t), &trajs[t]);
        const auto incremental = builder.update(refs);
        const auto scratch = buildMsm(trajs, pp);

        EXPECT_TRUE(incremental.stats.fullRebuild) << "gen " << gen;
        expectSameResult(incremental, scratch);
    }
}

TEST(IncrementalMsm, FrozenMatchesReferenceReassignment) {
    Rng rng(87);
    const BasinSampler basins(rng, 4, 8);
    IncrementalMsmParams ip;
    ip.pipeline = smallPipeline();
    ip.rebuildRadiusFactor = 1e9; // never rebuild after the first

    IncrementalMsmBuilder builder(ip);
    std::vector<md::Trajectory> trajs(3);
    for (auto& traj : trajs) appendFrames(traj, rng, basins, 20);
    std::vector<std::pair<int, const md::Trajectory*>> refs;
    for (std::size_t t = 0; t < trajs.size(); ++t)
        refs.emplace_back(int(t), &trajs[t]);
    const auto first = builder.update(refs);
    ASSERT_TRUE(first.stats.fullRebuild);

    for (auto& traj : trajs) appendFrames(traj, rng, basins, 10);
    const auto second = builder.update(refs);
    EXPECT_FALSE(second.stats.fullRebuild);
    EXPECT_EQ(second.clustering.centers, first.clustering.centers);

    // New snapshots must carry the nearest frozen center, computed here
    // independently with the raw metric.
    const std::size_t oldCount = first.clustering.assignments.size();
    ASSERT_GT(second.clustering.assignments.size(), oldCount);
    std::size_t flat = 0;
    std::size_t checked = 0;
    for (std::size_t t = 0; t < trajs.size(); ++t) {
        const auto& dt = second.discrete[t];
        for (std::size_t s = 0; s < dt.size(); ++s, ++flat) {
            if (s < first.discrete[t].size()) {
                EXPECT_EQ(dt[s], first.discrete[t][s]);
                continue;
            }
            const auto& x =
                trajs[t].frame(s * ip.pipeline.snapshotStride).positions;
            double best = std::numeric_limits<double>::max();
            int bestC = 0;
            for (std::size_t c = 0; c < second.centers.size(); ++c) {
                const double d = md::rmsd(second.centers[c], x);
                if (d < best) {
                    best = d;
                    bestC = int(c);
                }
            }
            EXPECT_EQ(dt[s], bestC);
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);

    // Counts over the stitched discrete trajectories equal a recount.
    EXPECT_EQ(second.sparseCounts,
              countTransitionsSparse(second.discrete,
                                     second.clustering.numClusters(),
                                     ip.pipeline.lag));
}

TEST(IncrementalMsm, RadiusDegradationTriggersRebuild) {
    Rng rng(91);
    const BasinSampler homeBasins(rng, 3, 8, 0.01);
    IncrementalMsmParams ip;
    ip.pipeline = smallPipeline();
    ip.pipeline.numClusters = 6;
    ip.rebuildRadiusFactor = 1.5;

    IncrementalMsmBuilder builder(ip);
    std::vector<md::Trajectory> trajs(2);
    for (auto& traj : trajs) appendFrames(traj, rng, homeBasins, 30);
    std::vector<std::pair<int, const md::Trajectory*>> refs;
    for (std::size_t t = 0; t < trajs.size(); ++t)
        refs.emplace_back(int(t), &trajs[t]);
    const auto first = builder.update(refs);
    ASSERT_TRUE(first.stats.fullRebuild);
    ASSERT_GT(first.stats.radiusAtFull, 0.0);

    // Mild growth inside the same basins: stays incremental.
    for (auto& traj : trajs) appendFrames(traj, rng, homeBasins, 6);
    const auto second = builder.update(refs);
    EXPECT_FALSE(second.stats.fullRebuild);

    // A structurally new region far outside the frozen centers' coverage
    // forces the fallback to a full re-cluster.
    const BasinSampler farBasins(rng, 2, 8, 0.01);
    for (auto& traj : trajs) appendFrames(traj, rng, farBasins, 10);
    const auto third = builder.update(refs);
    EXPECT_TRUE(third.stats.fullRebuild);
    // The rebuilt clustering absorbs the new region into its radius.
    EXPECT_EQ(third.stats.clusterRadius, third.stats.radiusAtFull);
}

TEST(IncrementalMsm, ClusterCountChangeTriggersRebuild) {
    Rng rng(97);
    const BasinSampler basins(rng, 4, 8);
    IncrementalMsmParams ip;
    ip.pipeline = smallPipeline();
    ip.rebuildRadiusFactor = 1e9;

    IncrementalMsmBuilder builder(ip);
    md::Trajectory traj;
    appendFrames(traj, rng, basins, 40);
    const std::vector<std::pair<int, const md::Trajectory*>> refs{{0, &traj}};
    (void)builder.update(refs);

    appendFrames(traj, rng, basins, 6);
    const auto incr = builder.update(refs);
    EXPECT_FALSE(incr.stats.fullRebuild);
    EXPECT_EQ(incr.clustering.numClusters(), 8u);

    builder.setNumClusters(12);
    appendFrames(traj, rng, basins, 6);
    const auto rebuilt = builder.update(refs);
    EXPECT_TRUE(rebuilt.stats.fullRebuild);
    EXPECT_EQ(rebuilt.clustering.numClusters(), 12u);
}

TEST(IncrementalMsm, PooledMatchesSerial) {
    Rng rng(101);
    const BasinSampler basins(rng, 5, 8);
    IncrementalMsmParams ip;
    ip.pipeline = smallPipeline();
    ip.rebuildRadiusFactor = 2.0;

    ThreadPool pool(4);
    IncrementalMsmBuilder serialBuilder(ip);
    IncrementalMsmBuilder pooledBuilder(ip);
    std::vector<md::Trajectory> trajs(4);
    for (int gen = 1; gen <= 3; ++gen) {
        for (auto& traj : trajs) appendFrames(traj, rng, basins, 15);
        std::vector<std::pair<int, const md::Trajectory*>> refs;
        for (std::size_t t = 0; t < trajs.size(); ++t)
            refs.emplace_back(int(t), &trajs[t]);
        const auto a = serialBuilder.update(refs, nullptr);
        const auto b = pooledBuilder.update(refs, &pool);
        expectSameResult(a, b);
        EXPECT_EQ(a.stats.fullRebuild, b.stats.fullRebuild);
        EXPECT_EQ(a.stats.rmsd.calls, b.stats.rmsd.calls);
        EXPECT_EQ(a.stats.rmsd.pruned, b.stats.rmsd.pruned);
    }
}

TEST(MsmStats, CountersConsistent) {
    Rng rng(103);
    const BasinSampler basins(rng, 4, 8);
    IncrementalMsmParams ip;
    ip.pipeline = smallPipeline();
    ip.rebuildRadiusFactor = 1e9;

    IncrementalMsmBuilder builder(ip);
    std::vector<md::Trajectory> trajs(3);
    for (auto& traj : trajs) appendFrames(traj, rng, basins, 20);
    std::vector<std::pair<int, const md::Trajectory*>> refs;
    for (std::size_t t = 0; t < trajs.size(); ++t)
        refs.emplace_back(int(t), &trajs[t]);
    const auto first = builder.update(refs);
    EXPECT_EQ(first.stats.generation, 1u);
    EXPECT_TRUE(first.stats.fullRebuild);
    EXPECT_EQ(first.stats.snapshotsNew, first.stats.snapshotsTotal);
    EXPECT_GT(first.stats.rmsd.calls, 0u);

    for (auto& traj : trajs) appendFrames(traj, rng, basins, 8);
    const auto second = builder.update(refs);
    EXPECT_EQ(second.stats.generation, 2u);
    EXPECT_FALSE(second.stats.fullRebuild);
    EXPECT_GT(second.stats.snapshotsNew, 0u);
    EXPECT_LT(second.stats.snapshotsNew, second.stats.snapshotsTotal);
    EXPECT_EQ(second.stats.snapshotsTotal,
              first.stats.snapshotsTotal + second.stats.snapshotsNew);
    // An incremental generation does far less metric work than the full
    // build over the same (larger!) dataset.
    EXPECT_LT(second.stats.rmsd.calls, first.stats.rmsd.calls);
    const double frac = second.stats.rmsd.pruneFraction();
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
    EXPECT_GE(second.stats.totalSeconds(), 0.0);
    ASSERT_EQ(builder.history().size(), 2u);
    EXPECT_FALSE(builder.history()[1].summary().empty());
    // Cumulative counters in the clustering result cover both generations.
    EXPECT_EQ(second.clustering.rmsd.calls,
              first.stats.rmsd.calls + second.stats.rmsd.calls);
}

} // namespace
} // namespace cop::msm
