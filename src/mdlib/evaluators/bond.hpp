#pragma once

/// \file evaluators/bond.hpp
/// Harmonic bond: E = 1/2 k (r - r0)^2.

#include <vector>

#include "mdlib/pbc.hpp"
#include "mdlib/topology.hpp"
#include "util/vec3.hpp"

namespace cop::md::evaluators {

struct BondEvaluator {
    static double evaluate(const Bond& b, const std::vector<Vec3>& positions,
                           const Box& box, std::vector<Vec3>& forces) {
        const Vec3 d = box.minimumImage(positions[std::size_t(b.i)],
                                        positions[std::size_t(b.j)]);
        const double r = norm(d);
        const double dr = r - b.r0;
        const double energy = 0.5 * b.k * dr * dr;
        if (r > 1e-12) {
            const Vec3 f = d * (-b.k * dr / r);
            forces[std::size_t(b.i)] += f;
            forces[std::size_t(b.j)] -= f;
        }
        return energy;
    }
};

} // namespace cop::md::evaluators
