#pragma once

/// \file evaluators/angle.hpp
/// Harmonic angle: E = 1/2 k (theta - theta0)^2 with theta from the
/// clamped cosine.

#include <algorithm>
#include <cmath>
#include <vector>

#include "mdlib/pbc.hpp"
#include "mdlib/topology.hpp"
#include "util/vec3.hpp"

namespace cop::md::evaluators {

struct AngleEvaluator {
    static double evaluate(const Angle& a, const std::vector<Vec3>& positions,
                           const Box& box, std::vector<Vec3>& forces) {
        const Vec3 rij = box.minimumImage(positions[std::size_t(a.i)],
                                          positions[std::size_t(a.j)]);
        const Vec3 rkj = box.minimumImage(positions[std::size_t(a.k)],
                                          positions[std::size_t(a.j)]);
        const double nij = norm(rij);
        const double nkj = norm(rkj);
        if (nij < 1e-12 || nkj < 1e-12) return 0.0;
        double cosTheta = dot(rij, rkj) / (nij * nkj);
        cosTheta = std::clamp(cosTheta, -1.0, 1.0);
        const double theta = std::acos(cosTheta);
        const double dTheta = theta - a.theta0;
        const double energy = 0.5 * a.forceK * dTheta * dTheta;

        const double sinTheta =
            std::sqrt(std::max(1e-12, 1.0 - cosTheta * cosTheta));
        // F_i = -dE/dri = -(k dTheta)(dTheta/dcos)(dcos/dri); dTheta/dcos =
        // -1/sin(theta), so the prefactor is +k dTheta / sin(theta).
        const double coeff = a.forceK * dTheta / sinTheta;
        // dcos/dri and dcos/drk
        const Vec3 dcos_dri =
            (rkj / (nij * nkj)) - rij * (cosTheta / (nij * nij));
        const Vec3 dcos_drk =
            (rij / (nij * nkj)) - rkj * (cosTheta / (nkj * nkj));
        const Vec3 fi = dcos_dri * coeff;
        const Vec3 fk = dcos_drk * coeff;
        forces[std::size_t(a.i)] += fi;
        forces[std::size_t(a.k)] += fk;
        forces[std::size_t(a.j)] -= fi + fk;
        return energy;
    }
};

} // namespace cop::md::evaluators
