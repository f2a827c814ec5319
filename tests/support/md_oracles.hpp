#pragma once

/// \file md_oracles.hpp
/// Reference checks for the MD engine that production code never calls:
/// a finite-difference force check and the radius of gyration. They live
/// in the cop_test_support library, outside cop_mdlib.

#include <span>
#include <vector>

#include "mdlib/forcefield.hpp"
#include "util/vec3.hpp"

namespace cop::md {

/// Numerical-gradient check: returns the maximum absolute difference
/// between analytic forces and central finite differences of the energy,
/// over all particles and components.
double maxForceError(ForceField& ff, std::vector<Vec3> positions,
                     double h = 1e-6);

/// Radius of gyration (mass-weighted if masses given, else uniform).
double radiusOfGyration(std::span<const Vec3> xs,
                        std::span<const double> masses = {});

} // namespace cop::md
