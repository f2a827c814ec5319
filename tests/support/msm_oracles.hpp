#pragma once

/// \file msm_oracles.hpp
/// Reference implementations for the MSM layer that production code never
/// calls: the unpruned Gonzalez k-centers scan, against which the pruned
/// msm::kCenters must be bit-identical. It lives in the cop_test_support
/// library, outside cop_msm.

#include "msm/clustering.hpp"

namespace cop::msm {

/// Gonzalez k-centers with every point-center RMSD evaluated (no triangle
/// inequality pruning), serial. Same seed, tie-breaks and stop rule as
/// kCenters; `rmsd.pruned` is always 0.
ClusteringResult kCentersUnpruned(const ConformationSet& data,
                                  const KCentersParams& params);

} // namespace cop::msm
