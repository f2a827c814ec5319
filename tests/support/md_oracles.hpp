#pragma once

/// \file md_oracles.hpp
/// Reference checks for the MD engine that production code never calls:
/// a finite-difference force check, the radius of gyration and the libm
/// dihedral. They live in the cop_test_support library, outside
/// cop_mdlib.

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

/// Signed dihedral angle for positions a-b-c-d by atan2 (Blondel &
/// Karplus), plus the four gradient vectors dphi/dr.
struct DihedralOracleGeometry {
    double phi;
    Vec3 fi, fj, fk, fl;
};

DihedralOracleGeometry dihedralOracleGeometry(const Vec3& ri, const Vec3& rj,
                                              const Vec3& rk, const Vec3& rl);

/// The dihedral term as evaluators::DihedralEvaluator computed it before
/// it went trig-free: phi by atan2, then cos and sin of phi - phi0 and of
/// 3 (phi - phi0) from libm. Returns the energy and accumulates the
/// forces, like the evaluator.
double dihedralOracle(const Dihedral& d, const std::vector<Vec3>& positions,
                      std::vector<Vec3>& forces);

/// Radius of gyration (mass-weighted if masses given, else uniform).
double radiusOfGyration(std::span<const Vec3> xs,
                        std::span<const double> masses = {});

} // namespace cop::md
