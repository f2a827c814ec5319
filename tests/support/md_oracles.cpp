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
