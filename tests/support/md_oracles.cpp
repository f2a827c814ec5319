#include "support/md_oracles.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace cop::md {

double maxForceError(ForceField& ff, std::vector<Vec3> positions, double h) {
    std::vector<Vec3> analytic;
    ff.compute(positions, analytic);

    double maxErr = 0.0;
    std::vector<Vec3> scratch;
    for (std::size_t i = 0; i < positions.size(); ++i) {
        for (int d = 0; d < 3; ++d) {
            const double orig = positions[i][d];
            positions[i][d] = orig + h;
            const double ep = ff.compute(positions, scratch).potential();
            positions[i][d] = orig - h;
            const double em = ff.compute(positions, scratch).potential();
            positions[i][d] = orig;
            const double numeric = -(ep - em) / (2.0 * h);
            maxErr = std::max(maxErr, std::abs(numeric - analytic[i][d]));
        }
    }
    return maxErr;
}

DihedralOracleGeometry dihedralOracleGeometry(const Vec3& ri, const Vec3& rj,
                                              const Vec3& rk, const Vec3& rl) {
    const Vec3 b1 = rj - ri;
    const Vec3 b2 = rk - rj;
    const Vec3 b3 = rl - rk;
    const Vec3 n1 = cross(b1, b2);
    const Vec3 n2 = cross(b2, b3);
    const double n1sq = norm2(n1);
    const double n2sq = norm2(n2);
    const double b2len = norm(b2);

    DihedralOracleGeometry g{};
    if (n1sq < 1e-12 || n2sq < 1e-12 || b2len < 1e-12) return g;
    g.phi = std::atan2(dot(cross(n1, n2), b2) / b2len, dot(n1, n2));
    g.fi = n1 * (-b2len / n1sq);
    g.fl = n2 * (b2len / n2sq);
    const double s12 = -dot(b1, b2) / (b2len * b2len);
    const double s32 = -dot(b3, b2) / (b2len * b2len);
    g.fj = g.fi * (s12 - 1.0) - g.fl * s32;
    g.fk = g.fl * (s32 - 1.0) - g.fi * s12;
    return g;
}

double dihedralOracle(const Dihedral& d, const std::vector<Vec3>& positions,
                      std::vector<Vec3>& forces) {
    const auto g = dihedralOracleGeometry(
        positions[std::size_t(d.i)], positions[std::size_t(d.j)],
        positions[std::size_t(d.k)], positions[std::size_t(d.l)]);
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

double radiusOfGyration(std::span<const Vec3> xs,
                        std::span<const double> masses) {
    COP_REQUIRE(!xs.empty(), "empty coordinate set");
    COP_REQUIRE(masses.empty() || masses.size() == xs.size(),
                "mass array size mismatch");
    Vec3 com{};
    double mTot = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double m = masses.empty() ? 1.0 : masses[i];
        com += xs[i] * m;
        mTot += m;
    }
    com /= mTot;
    double s = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double m = masses.empty() ? 1.0 : masses[i];
        s += m * norm2(xs[i] - com);
    }
    return std::sqrt(s / mTot);
}

} // namespace cop::md
