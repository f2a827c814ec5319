#include "msm/clustering.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace cop::msm {
namespace {

/// Three blobs of 5-point conformations that differ in *shape* (RMSD is
/// invariant to rigid transforms, so translated copies would all look
/// identical): lines with per-blob spacing 1, 5 and 12, plus small noise.
ConformationSet threeBlobs(std::size_t perBlob, std::uint64_t seed) {
    cop::Rng rng(seed);
    ConformationSet set;
    const double spacing[3] = {1.0, 5.0, 12.0};
    for (int b = 0; b < 3; ++b) {
        for (std::size_t i = 0; i < perBlob; ++i) {
            std::vector<Vec3> conf;
            for (int p = 0; p < 5; ++p)
                conf.push_back(Vec3{double(p) * spacing[b], 0, 0} +
                               rng.gaussianVec3(0.1));
            set.add(std::move(conf));
        }
    }
    return set;
}

TEST(ConformationSet, DistanceIsRmsd) {
    ConformationSet set;
    set.add({{0, 0, 0}, {1, 0, 0}});
    set.add({{0, 0, 0}, {2, 0, 0}});
    EXPECT_NEAR(set.distance(0, 1), 0.5, 1e-12);
    EXPECT_NEAR(set.distance(0, 0), 0.0, 1e-9);
    EXPECT_NEAR(set.distanceTo(0, {{5, 5, 5}, {6, 5, 5}}), 0.0, 1e-9);
}

TEST(ConformationSet, RejectsMismatchedSizes) {
    ConformationSet set;
    set.add({{0, 0, 0}});
    EXPECT_THROW(set.add({{0, 0, 0}, {1, 1, 1}}), cop::InvalidArgument);
}

TEST(KCenters, RecoversWellSeparatedBlobs) {
    const auto data = threeBlobs(20, 1);
    KCentersParams p;
    p.numClusters = 3;
    const auto result = kCenters(data, p);
    EXPECT_EQ(result.numClusters(), 3u);
    // All members of a blob share one cluster, and the three blobs use
    // three distinct clusters.
    std::set<int> blobClusters;
    for (int b = 0; b < 3; ++b) {
        const int c = result.assignments[std::size_t(b * 20)];
        blobClusters.insert(c);
        for (int i = 0; i < 20; ++i)
            EXPECT_EQ(result.assignments[std::size_t(b * 20 + i)], c);
    }
    EXPECT_EQ(blobClusters.size(), 3u);
}

TEST(KCenters, DistancesAreToAssignedCenter) {
    const auto data = threeBlobs(10, 2);
    KCentersParams p;
    p.numClusters = 5;
    const auto result = kCenters(data, p);
    for (std::size_t i = 0; i < data.size(); ++i) {
        const auto c = result.centers[std::size_t(result.assignments[i])];
        EXPECT_NEAR(result.distances[i], data.distance(i, c), 1e-12);
    }
}

TEST(KCenters, StopRadiusLimitsClusterCount) {
    const auto data = threeBlobs(15, 3);
    KCentersParams p;
    p.numClusters = 40;
    p.stopRadius = 3.0; // blobs have radius << 3, separation >> 3
    const auto result = kCenters(data, p);
    EXPECT_LE(result.numClusters(), 4u);
    EXPECT_GE(result.numClusters(), 3u);
}

TEST(KCenters, MoreClustersThanPointsIsClamped) {
    const auto data = threeBlobs(2, 4);
    KCentersParams p;
    p.numClusters = 100;
    const auto result = kCenters(data, p);
    EXPECT_LE(result.numClusters(), data.size());
}

TEST(KCenters, TwoXRadiusGuarantee) {
    // Gonzalez guarantee: max point-center distance <= 2x optimal radius.
    // For k = data size, the radius must be 0.
    const auto data = threeBlobs(4, 5);
    KCentersParams p;
    p.numClusters = data.size();
    const auto result = kCenters(data, p);
    // Tolerance is the RMSD floating-point floor, not a clustering error.
    for (double d : result.distances) EXPECT_NEAR(d, 0.0, 1e-6);
}

TEST(KMedoids, RefinementNeverIncreasesCost) {
    const auto data = threeBlobs(12, 6);
    KCentersParams p;
    p.numClusters = 6;
    p.seed = 9;
    auto initial = kCenters(data, p);
    auto cost = [&](const ClusteringResult& r) {
        double s = 0.0;
        for (std::size_t i = 0; i < data.size(); ++i)
            s += data.distance(i,
                               r.centers[std::size_t(r.assignments[i])]);
        return s;
    };
    const double before = cost(initial);
    const auto refined = kMedoidsRefine(data, std::move(initial), 3, 10);
    EXPECT_LE(cost(refined), before + 1e-9);
}

/// kMedoidsRefine takes the current medoid's cost from `distances`, so
/// each one must be bitwise the metric to the assigned center.
void expectDistancesToAssignedCenters(const ConformationSet& data,
                                      const ClusteringResult& r) {
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(r.distances[i],
                  data.distance(i, r.centers[std::size_t(r.assignments[i])]))
            << "member " << i;
}

TEST(KMedoids, PrunedReassignmentMatchesBruteForce) {
    // Reference refinement written out here: the same medoid update (same
    // Rng draws), then every member scanned against every medoid.
    std::uint64_t pruned = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto data = threeBlobs(15, seed);
        const std::size_t n = data.size();
        KCentersParams p;
        p.numClusters = 4 + std::size_t(seed);
        p.seed = seed;
        const auto initial = kCenters(data, p);
        const std::size_t k = initial.centers.size();
        expectDistancesToAssignedCenters(data, initial);

        ClusteringResult ref = initial;
        std::uint64_t expectedWork = initial.rmsd.calls + initial.rmsd.pruned;
        cop::Rng rng(seed + 100);
        for (int sweep = 0; sweep < 3; ++sweep) {
            std::vector<std::vector<std::size_t>> members(k);
            for (std::size_t i = 0; i < n; ++i)
                members[std::size_t(ref.assignments[i])].push_back(i);
            for (std::size_t c = 0; c < k; ++c) {
                if (members[c].size() < 2) continue;
                const std::size_t cur = ref.centers[c];
                const std::size_t cand =
                    members[c][rng.uniformInt(members[c].size())];
                if (cand == cur) continue;
                double curCost = 0.0, candCost = 0.0;
                for (std::size_t m : members[c]) {
                    curCost += data.distance(m, cur);
                    candCost += data.distance(m, cand);
                }
                // The current medoid's distances come from the last
                // assignment; only the candidate's are evaluated.
                expectedWork += members[c].size();
                if (candCost < curCost) ref.centers[c] = cand;
            }
            for (std::size_t i = 0; i < n; ++i) {
                double best = std::numeric_limits<double>::max();
                for (std::size_t c = 0; c < k; ++c) {
                    const double d = data.distance(i, ref.centers[c]);
                    if (d < best) {
                        best = d;
                        ref.assignments[i] = int(c);
                    }
                }
                ref.distances[i] = best;
            }
            expectedWork += n * k + k * (k - 1) / 2;

            // kMedoidsRefine's draws for sweep s are a prefix of those for
            // s + 1, so each sweep count is checked against the reference.
            const auto refined =
                kMedoidsRefine(data, initial, sweep + 1, seed + 100);
            EXPECT_EQ(refined.centers, ref.centers) << "seed " << seed;
            EXPECT_EQ(refined.assignments, ref.assignments)
                << "seed " << seed;
            EXPECT_EQ(refined.distances, ref.distances) << "seed " << seed;
            expectDistancesToAssignedCenters(data, refined);
            EXPECT_EQ(refined.rmsd.calls + refined.rmsd.pruned, expectedWork)
                << "seed " << seed << " sweeps " << sweep + 1;
            pruned += refined.rmsd.pruned - initial.rmsd.pruned;
        }
    }
    EXPECT_GT(pruned, 0u); // the bound does fire on this data
}

TEST(AssignToCenters, NearestCenterWins) {
    const auto data = threeBlobs(5, 7);
    KCentersParams p;
    p.numClusters = 3;
    const auto result = kCenters(data, p);
    // Assign shifted copies of blob members; they must map to the blob's
    // cluster (RMSD removes the shift, so use a *different* blob's shape).
    std::vector<std::vector<Vec3>> probes;
    std::vector<Vec3> nearBlob0;
    for (int q = 0; q < 5; ++q)
        nearBlob0.push_back(Vec3{double(q), 0, 0});
    probes.push_back(nearBlob0);
    const auto assigned = assignToCenters(data, result.centers, probes);
    ASSERT_EQ(assigned.size(), 1u);
    // All blobs have the same internal shape, so any cluster is "nearest";
    // just require a valid cluster id.
    EXPECT_GE(assigned[0], 0);
    EXPECT_LT(assigned[0], 3);
}

TEST(ClusteringResult, ClusterSizesSumToData) {
    const auto data = threeBlobs(8, 8);
    KCentersParams p;
    p.numClusters = 4;
    const auto result = kCenters(data, p);
    const auto sizes = result.clusterSizes();
    std::size_t total = 0;
    for (auto s : sizes) total += s;
    EXPECT_EQ(total, data.size());
}

TEST(KCenters, PooledSweepMatchesSerialExactly) {
    // The threaded per-center RMSD sweep must reproduce the serial result
    // bit-for-bit: same centers, same assignments, same distances.
    const auto data = threeBlobs(40, 5); // 120 points >= parallel threshold
    KCentersParams p;
    p.numClusters = 7;
    p.seed = 3;
    const auto serial = kCenters(data, p);
    cop::ThreadPool pool(4);
    const auto pooled = kCenters(data, p, &pool);
    EXPECT_EQ(pooled.centers, serial.centers);
    EXPECT_EQ(pooled.assignments, serial.assignments);
    for (std::size_t i = 0; i < serial.distances.size(); ++i)
        EXPECT_EQ(pooled.distances[i], serial.distances[i]);
}

TEST(KCenters, PooledStopRadiusMatchesSerial) {
    const auto data = threeBlobs(30, 9);
    KCentersParams p;
    p.numClusters = 50;
    p.stopRadius = 1.0;
    cop::ThreadPool pool(3);
    const auto serial = kCenters(data, p);
    const auto pooled = kCenters(data, p, &pool);
    EXPECT_EQ(pooled.centers, serial.centers);
}

TEST(KCenters, DeterministicForFixedSeed) {
    const auto data = threeBlobs(10, 9);
    KCentersParams p;
    p.numClusters = 5;
    p.seed = 123;
    const auto a = kCenters(data, p);
    const auto b = kCenters(data, p);
    EXPECT_EQ(a.centers, b.centers);
    EXPECT_EQ(a.assignments, b.assignments);
}

} // namespace
} // namespace cop::msm
