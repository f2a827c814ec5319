#pragma once

/// \file clustering.hpp
/// Conformational clustering for Markov state models. The paper's MSM
/// plugin performs "kinetic clustering" into microstates using structural
/// similarity; the standard algorithm (used by MSMBuilder, which grew out
/// of the same group) is k-centers on the pairwise RMSD metric, optionally
/// refined by a few k-medoids sweeps. Both are implemented here.
///
/// Two optimisations keep the metric evaluations cheap and countable:
///  - every conformation added to a ConformationSet is cached centered with
///    its squared norm, so member-to-member RMSD skips the copy / center /
///    norm passes of md::rmsd (bit-identical result);
///  - k-centers, k-medoids reassignment and assignment prune
///    provably-futile RMSD evaluations with the triangle inequality against
///    a center-center distance matrix, and report calls-vs-pruned counters
///    so the skip rate is observable.

#include <cstdint>
#include <span>
#include <vector>

#include "util/random.hpp"
#include "util/vec3.hpp"

namespace cop {
class ThreadPool;
}

namespace cop::msm {

/// A set of conformations (each a Calpha coordinate vector) with the
/// optimal-superposition RMSD metric. Each member is stored twice: the
/// original coordinates (returned by operator[]; representatives seed new
/// simulations, so they must stay untranslated) and a centered copy with
/// its squared norm, which every distance call uses.
class ConformationSet {
public:
    void add(std::vector<Vec3> conformation);
    std::size_t size() const { return conformations_.size(); }
    bool empty() const { return conformations_.empty(); }
    const std::vector<Vec3>& operator[](std::size_t i) const {
        return conformations_[i];
    }

    /// Centered copy of member i / its squared norm (the RMSD cache).
    const std::vector<Vec3>& centered(std::size_t i) const {
        return centered_[i];
    }
    double squaredNorm(std::size_t i) const { return norm2_[i]; }

    /// RMSD between members i and j.
    double distance(std::size_t i, std::size_t j) const;

    /// RMSD between member i and an external conformation.
    double distanceTo(std::size_t i, const std::vector<Vec3>& x) const;

    /// RMSD between member i and an external conformation that the caller
    /// has already centered (with its squared norm); lets assignment center
    /// each probe once instead of once per center.
    double distanceToCentered(std::size_t i, std::span<const Vec3> x,
                              double squaredNormX) const;

private:
    std::vector<std::vector<Vec3>> conformations_;
    std::vector<std::vector<Vec3>> centered_;
    std::vector<double> norm2_;
};

/// RMSD evaluations performed vs skipped by the triangle-inequality bound.
/// Pruning never changes a result: an evaluation is skipped only when the
/// bound proves it could not strictly beat the current best distance.
struct RmsdCounters {
    std::uint64_t calls = 0;  ///< RMSD evaluations actually performed
    std::uint64_t pruned = 0; ///< evaluations skipped by the bound

    RmsdCounters& operator+=(const RmsdCounters& o) {
        calls += o.calls;
        pruned += o.pruned;
        return *this;
    }
    /// Fraction of candidate evaluations skipped (0 when nothing ran).
    double pruneFraction() const {
        const std::uint64_t total = calls + pruned;
        return total == 0 ? 0.0 : double(pruned) / double(total);
    }
};

struct ClusteringResult {
    /// Index of each input conformation's cluster (size = input size).
    std::vector<int> assignments;
    /// Indices (into the input set) of the cluster representatives.
    std::vector<std::size_t> centers;
    /// Distance from each conformation to its assigned center.
    std::vector<double> distances;
    /// Metric-evaluation accounting for the run that produced this result.
    RmsdCounters rmsd;

    std::size_t numClusters() const { return centers.size(); }

    /// Number of members per cluster.
    std::vector<std::size_t> clusterSizes() const;
};

struct KCentersParams {
    std::size_t numClusters = 100;
    /// Stop early once the maximum point-to-center distance falls below
    /// this radius (0 disables the radius criterion).
    double stopRadius = 0.0;
    std::uint64_t seed = 0; ///< selects the first center
};

/// Gonzalez k-centers: repeatedly promote the point farthest from all
/// existing centers. Guarantees max-radius within 2x of optimal; O(k N)
/// metric evaluations. With a pool, the per-center RMSD sweep (the hot
/// loop) is chunked across threads; the result is identical to the serial
/// run — chunk results combine in deterministic order with the same
/// smallest-index-argmax tie-break the serial scan uses.
ClusteringResult kCenters(const ConformationSet& data,
                          const KCentersParams& params,
                          ThreadPool* pool = nullptr);

/// K-medoids refinement: alternately recompute each cluster's medoid and
/// reassign, for `sweeps` passes over the data. Improves cluster
/// compactness after k-centers. Each reassignment is assignRangeToCenters
/// over all members against a fresh centerDistanceMatrix, so it is pruned
/// by the triangle inequality and equals the all-centers scan; per sweep
/// it adds n*k + k(k-1)/2 to calls + pruned. The medoid update costs one
/// call per member of each cluster whose drawn candidate is not its
/// medoid: the current medoid's cost is summed from `distances`.
ClusteringResult kMedoidsRefine(const ConformationSet& data,
                                ClusteringResult initial, int sweeps = 2,
                                std::uint64_t seed = 0);

/// Pairwise center-center RMSD matrix (row-major k*k), the lookup table the
/// triangle-inequality bound prunes against. O(k^2 / 2) RMSD evaluations,
/// chunked across the pool when given; adds the work to `counters` if
/// non-null.
std::vector<double> centerDistanceMatrix(const ConformationSet& data,
                                         const std::vector<std::size_t>& centers,
                                         ThreadPool* pool = nullptr,
                                         RmsdCounters* counters = nullptr);

/// Nearest-center assignment of a contiguous member range with distances
/// and counters — the incremental-build hot path.
struct AssignResult {
    std::vector<int> assignments; ///< one per assigned conformation
    std::vector<double> distances;
    RmsdCounters rmsd;
};

/// Assigns members [first, last) of `data` to the nearest of `centers`
/// (smallest center index wins ties, matching the serial scan). When
/// `centerDist` (from centerDistanceMatrix) is non-empty, candidate centers
/// the triangle inequality rules out are skipped without evaluating RMSD.
/// Chunked across the pool when given; bit-identical to the serial,
/// unpruned scan in all configurations.
AssignResult assignRangeToCenters(const ConformationSet& data,
                                  std::size_t first, std::size_t last,
                                  const std::vector<std::size_t>& centers,
                                  const std::vector<double>& centerDist = {},
                                  ThreadPool* pool = nullptr);

/// Assigns external conformations to the nearest existing center.
std::vector<int> assignToCenters(const ConformationSet& data,
                                 const std::vector<std::size_t>& centers,
                                 const std::vector<std::vector<Vec3>>& xs);

} // namespace cop::msm
