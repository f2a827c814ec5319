#pragma once

/// \file evaluators/dihedral.hpp
/// Periodic dihedral: E = k1 (1 - cos(dphi)) + k3 (1 - cos(3 dphi)) with
/// dphi = phi - phi0, phi the signed Blondel & Karplus dihedral angle.
/// Dihedrals use raw positions (Gō models run in open boxes; the four
/// atoms are bonded neighbours, never split across an image).

#include <cmath>
#include <vector>

#include "mdlib/pbc.hpp"
#include "mdlib/topology.hpp"
#include "util/vec3.hpp"

namespace cop::md::evaluators {

/// Signed dihedral angle for positions a-b-c-d, plus the four gradient
/// vectors, using the standard textbook formulation (Blondel & Karplus).
struct DihedralGeometry {
    double phi;
    Vec3 fi, fj, fk, fl; ///< -dphi/dr scaled later by dE/dphi
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
        g.phi = 0.0;
        return g;
    }
    g.phi = std::atan2(dot(cross(n1, n2), b2) / b2len, dot(n1, n2));

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
        const double dphi = g.phi - d.phi0;
        const double energy = d.k1 * (1.0 - std::cos(dphi)) +
                              d.k3 * (1.0 - std::cos(3.0 * dphi));
        const double dEdPhi =
            d.k1 * std::sin(dphi) + 3.0 * d.k3 * std::sin(3.0 * dphi);
        forces[std::size_t(d.i)] -= g.fi * dEdPhi;
        forces[std::size_t(d.j)] -= g.fj * dEdPhi;
        forces[std::size_t(d.k)] -= g.fk * dEdPhi;
        forces[std::size_t(d.l)] -= g.fl * dEdPhi;
        return energy;
    }
};

} // namespace cop::md::evaluators
