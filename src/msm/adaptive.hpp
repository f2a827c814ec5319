#pragma once

/// \file adaptive.hpp
/// Adaptive-sampling seed selection (paper §3.2): given the current state
/// partitioning and transition counts, decide how many new trajectories to
/// spawn from each microstate. Two weighting schemes, matching the paper's
/// user-settable MSM controller parameter:
///
///  - Even weighting: a uniform number of trajectories per discovered
///    state; preferred early, while the state partitioning is unstable.
///  - Adaptive weighting: trajectories weighted by the statistical
///    uncertainty in the transitions out of each state (classic
///    count-based criterion of Bowman et al. 2009, where the variance of a
///    multinomial row estimate scales as 1/(n_i + 1)); preferred once the
///    partitioning has stabilized, and claimed by the paper to boost
///    sampling efficiency up to twofold.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "msm/transition_counts.hpp"

namespace cop::msm {

enum class WeightingScheme { Even, Adaptive };

struct AdaptivePlan {
    /// Number of new trajectories to start from each microstate.
    std::vector<int> seedsPerState;

    int totalSeeds() const;
};

struct AdaptiveParams {
    WeightingScheme scheme = WeightingScheme::Adaptive;
    /// Total number of trajectories to spawn this round.
    int totalSeeds = 0;
    /// Only states with at least one observed snapshot are eligible.
    /// Deterministic tie-breaking uses this seed.
    std::uint64_t seed = 0;
};

/// Computes per-state seed counts. `counts` holds the (unrestricted)
/// microstate transition counts; `observed` flags states with at least one
/// assigned snapshot. Guarantees sum(seedsPerState) == totalSeeds when any
/// state is observed.
AdaptivePlan planAdaptiveSampling(const SparseCounts& counts,
                                  const std::vector<bool>& observed,
                                  const AdaptiveParams& params);

/// The per-state weights used by the Adaptive scheme (exposed for tests and
/// the ablation bench): w_i proportional to 1 / (totalOutCounts_i + 1).
std::vector<double> adaptiveWeights(const SparseCounts& counts,
                                    const std::vector<bool>& observed);

} // namespace cop::msm
