#pragma once

/// \file evaluators/dihedral.hpp
/// Periodic dihedral: E = k1 (1 - cos(dphi)) + k3 (1 - cos(3 dphi)) with
/// dphi = phi - phi0, phi the signed Blondel & Karplus dihedral angle.
/// Dihedrals use raw positions (Gō models run in open boxes; the four
/// atoms are bonded neighbours, never split across an image).
///
/// No libm call: cos(phi) and sin(phi) come from the two plane normals,
/// cos(dphi) and sin(dphi) by angle addition with the cos(phi0) and
/// sin(phi0) that Topology::finalize() derives, and the 3 dphi terms from
/// the triple-angle formulas. The atan2/cos/sin form it replaced is kept
/// in tests/support/md_oracles.* as the reference.

#include <cmath>
#include <vector>

#include "mdlib/pbc.hpp"
#include "mdlib/topology.hpp"
#include "util/vec3.hpp"

namespace cop::md::evaluators {

/// cos and sin of the signed dihedral angle for positions a-b-c-d, plus
/// the four gradient vectors, using the standard textbook formulation
/// (Blondel & Karplus).
struct DihedralGeometry {
    double cosPhi;
    double sinPhi;
    Vec3 fi, fj, fk, fl; ///< dphi/dr, scaled later by dE/dphi
};

inline DihedralGeometry dihedralGeometry(const Vec3& ri, const Vec3& rj,
                                         const Vec3& rk, const Vec3& rl) {
    const Vec3 b1 = rj - ri;
    const Vec3 b2 = rk - rj;
    const Vec3 b3 = rl - rk;
    const Vec3 n1 = cross(b1, b2);
    const Vec3 n2 = cross(b2, b3);
    const double n1sq = norm2(n1);
    const double n2sq = norm2(n2);
    const double b2len = norm(b2);

    DihedralGeometry g{};
    if (n1sq < 1e-12 || n2sq < 1e-12 || b2len < 1e-12) {
        // Degenerate (collinear) geometry: zero force, zero angle.
        g.cosPhi = 1.0;
        g.sinPhi = 0.0;
        return g;
    }
    // |n1||n2| cos(phi) = n1.n2 and |n1||n2| sin(phi) = (n1 x n2).b2/|b2|.
    const double invR = 1.0 / std::sqrt(n1sq * n2sq);
    g.cosPhi = dot(n1, n2) * invR;
    g.sinPhi = dot(cross(n1, n2), b2) * invR / b2len;

    // dphi/dri = -(b2len / n1sq) * n1 ; dphi/drl = (b2len / n2sq) * n2.
    // The middle-atom projections use s12 = -(b1.b2)/|b2|^2 and
    // s32 = -(b3.b2)/|b2|^2 with our bond-vector convention b1 = rj - ri,
    // b2 = rk - rj, b3 = rl - rk (verified against finite differences).
    const Vec3 dphi_dri = n1 * (-b2len / n1sq);
    const Vec3 dphi_drl = n2 * (b2len / n2sq);
    const double s12 = -dot(b1, b2) / (b2len * b2len);
    const double s32 = -dot(b3, b2) / (b2len * b2len);
    const Vec3 dphi_drj = dphi_dri * (s12 - 1.0) - dphi_drl * s32;
    const Vec3 dphi_drk = dphi_drl * (s32 - 1.0) - dphi_dri * s12;

    g.fi = dphi_dri;
    g.fj = dphi_drj;
    g.fk = dphi_drk;
    g.fl = dphi_drl;
    return g;
}

struct DihedralEvaluator {
    static double evaluate(const Dihedral& d,
                           const std::vector<Vec3>& positions,
                           const Box& /*box*/, std::vector<Vec3>& forces) {
        const auto g = dihedralGeometry(positions[std::size_t(d.i)],
                                        positions[std::size_t(d.j)],
                                        positions[std::size_t(d.k)],
                                        positions[std::size_t(d.l)]);
        // dphi = phi - phi0 by angle addition, sin(3 dphi) by the triple
        // angle formula. The energy uses 1 - cos(dphi) = |u - u0|^2 / 2
        // for the unit vectors u = (cos phi, sin phi) and u0 = (cos phi0,
        // sin phi0), and 1 - cos(3 dphi) = (1 - cos dphi)(1 + 2 cos
        // dphi)^2: no cancellation near dphi = 0, so a term at its native
        // angle has zero energy to rounding of a square.
        const double cosD = g.cosPhi * d.cosPhi0 + g.sinPhi * d.sinPhi0;
        const double sinD = g.sinPhi * d.cosPhi0 - g.cosPhi * d.sinPhi0;
        const double sin3D = sinD * (3.0 - 4.0 * sinD * sinD);
        const double dc = g.cosPhi - d.cosPhi0;
        const double ds = g.sinPhi - d.sinPhi0;
        const double oneMinusCosD = 0.5 * (dc * dc + ds * ds);
        const double t = 1.0 + 2.0 * cosD;
        const double energy = oneMinusCosD * (d.k1 + d.k3 * t * t);
        const double dEdPhi = d.k1 * sinD + 3.0 * d.k3 * sin3D;
        forces[std::size_t(d.i)] -= g.fi * dEdPhi;
        forces[std::size_t(d.j)] -= g.fj * dEdPhi;
        forces[std::size_t(d.k)] -= g.fk * dEdPhi;
        forces[std::size_t(d.l)] -= g.fl * dEdPhi;
        return energy;
    }
};

} // namespace cop::md::evaluators
