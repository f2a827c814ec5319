#pragma once

/// \file observables.hpp
/// Structural observables: optimal-superposition RMSD (Horn's quaternion
/// key matrix, solved by QCP) and fraction of native contacts Q. RMSD in
/// this engine's reduced length units can be converted to the paper's
/// Angstrom scale with md::toAngstrom().

#include <span>
#include <vector>

#include "mdlib/topology.hpp"
#include "util/vec3.hpp"

namespace cop::md {

/// Centers `xs` on its centroid (in place) and returns the centroid.
Vec3 centerCoordinates(std::vector<Vec3>& xs);

/// Centered copy of `xs` and its squared norm (sum of |x_i|^2 after
/// centering): the per-set inputs of rmsdCentered(), computed exactly as
/// rmsd() computes them.
std::vector<Vec3> centered(std::span<const Vec3> xs, double& squaredNorm);

/// Minimal RMSD between two equal-length coordinate sets after optimal
/// translation + rotation. Centers copies of both and calls rmsdCentered().
/// Does not modify its inputs.
double rmsd(std::span<const Vec3> a, std::span<const Vec3> b);

/// RMSD between coordinate sets that are *already centered* on their
/// centroids, with precomputed squared norms (sum of |x_i|^2). Skips the
/// copy/center/norm work of rmsd(); bit-identical to rmsd() on the
/// uncentered originals, since rmsd() derives exactly these quantities
/// with the same accumulation order. This is the hot call of the MSM
/// clustering layer, where one conformation is compared against many.
///
/// The largest eigenvalue of Horn's key matrix comes from QCP (Theobald
/// 2005): Newton's method on its characteristic quartic, no eigenvectors.
/// When the top eigenvalue is (nearly) repeated, as for collinear sets,
/// Newton cannot resolve it to full precision, and the Jacobi solve that
/// optimalRotation() uses supplies it instead.
double rmsdCentered(std::span<const Vec3> a, std::span<const Vec3> b,
                    double squaredNormA, double squaredNormB);

/// Optimal rotation matrix that superimposes centered `b` onto centered
/// `a` (i.e. minimizes |a - R b|). Inputs must already be centered. The
/// quaternion is the top eigenvector of Horn's key matrix, by Jacobi
/// sweeps.
Mat3 optimalRotation(std::span<const Vec3> a, std::span<const Vec3> b);

/// Superimposes `mobile` onto `target` in place (translate + rotate).
void superimpose(std::span<const Vec3> target, std::vector<Vec3>& mobile);

/// Fraction of native contacts formed: a contact (i,j,r0) counts as formed
/// when r_ij < factor * r0 (default 1.2, the conventional choice).
double nativeContactFraction(const Topology& top, std::span<const Vec3> xs,
                             double factor = 1.2);

} // namespace cop::md
