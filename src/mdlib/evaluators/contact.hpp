#pragma once

/// \file evaluators/contact.hpp
/// Gō native contact, 12-10 potential:
///   E = eps * (5 (r0/r)^12 - 6 (r0/r)^10)
///   dE/dr = eps * (-60 r0^12 / r^13 + 60 r0^10 / r^11)
///         = (60 eps / r) * ((r0/r)^10 - (r0/r)^12)

#include <vector>

#include "mdlib/pbc.hpp"
#include "mdlib/topology.hpp"
#include "util/vec3.hpp"

namespace cop::md::evaluators {

struct ContactEvaluator {
    static double evaluate(const Contact& c,
                           const std::vector<Vec3>& positions, const Box& box,
                           std::vector<Vec3>& forces) {
        const Vec3 d = box.minimumImage(positions[std::size_t(c.i)],
                                        positions[std::size_t(c.j)]);
        const double r2 = norm2(d);
        if (r2 < 1e-12) return 0.0;
        const double inv2 = (c.r0 * c.r0) / r2;
        const double inv10 = inv2 * inv2 * inv2 * inv2 * inv2;
        const double inv12 = inv10 * inv2;
        const double energy = c.eps * (5.0 * inv12 - 6.0 * inv10);
        const double fOverR = 60.0 * c.eps * (inv12 - inv10) / r2;
        const Vec3 f = d * fOverR;
        forces[std::size_t(c.i)] += f;
        forces[std::size_t(c.j)] -= f;
        return energy;
    }
};

} // namespace cop::md::evaluators
