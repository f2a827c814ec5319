#include "mdlib/observables.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.hpp"

namespace cop::md {

namespace {

/// Jacobi eigenvalue iteration for a symmetric 4x4 matrix. Returns the
/// eigenvector of the largest eigenvalue and stores that eigenvalue.
std::array<double, 4> largestEigenvector4(std::array<std::array<double, 4>, 4> m,
                                          double& lambdaMax) {
    std::array<std::array<double, 4>, 4> v{};
    for (int i = 0; i < 4; ++i) v[i][i] = 1.0;

    for (int sweep = 0; sweep < 64; ++sweep) {
        double off = 0.0;
        for (int p = 0; p < 4; ++p)
            for (int q = p + 1; q < 4; ++q) off += m[p][q] * m[p][q];
        if (off < 1e-24) break;
        for (int p = 0; p < 4; ++p) {
            for (int q = p + 1; q < 4; ++q) {
                if (std::abs(m[p][q]) < 1e-18) continue;
                const double theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
                const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                                 (std::abs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (int k = 0; k < 4; ++k) {
                    const double mkp = m[k][p], mkq = m[k][q];
                    m[k][p] = c * mkp - s * mkq;
                    m[k][q] = s * mkp + c * mkq;
                }
                for (int k = 0; k < 4; ++k) {
                    const double mpk = m[p][k], mqk = m[q][k];
                    m[p][k] = c * mpk - s * mqk;
                    m[q][k] = s * mpk + c * mqk;
                }
                for (int k = 0; k < 4; ++k) {
                    const double vkp = v[k][p], vkq = v[k][q];
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }
    int best = 0;
    for (int i = 1; i < 4; ++i)
        if (m[i][i] > m[best][best]) best = i;
    lambdaMax = m[best][best];
    return {v[0][best], v[1][best], v[2][best], v[3][best]};
}

/// Builds Horn's 4x4 key matrix from the covariance of centered coordinate
/// sets a (target) and b (mobile).
std::array<std::array<double, 4>, 4> hornMatrix(std::span<const Vec3> a,
                                                std::span<const Vec3> b) {
    double sxx = 0, sxy = 0, sxz = 0, syx = 0, syy = 0, syz = 0, szx = 0,
           szy = 0, szz = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sxx += b[i].x * a[i].x;
        sxy += b[i].x * a[i].y;
        sxz += b[i].x * a[i].z;
        syx += b[i].y * a[i].x;
        syy += b[i].y * a[i].y;
        syz += b[i].y * a[i].z;
        szx += b[i].z * a[i].x;
        szy += b[i].z * a[i].y;
        szz += b[i].z * a[i].z;
    }
    std::array<std::array<double, 4>, 4> k{};
    k[0][0] = sxx + syy + szz;
    k[0][1] = syz - szy;
    k[0][2] = szx - sxz;
    k[0][3] = sxy - syx;
    k[1][1] = sxx - syy - szz;
    k[1][2] = sxy + syx;
    k[1][3] = szx + sxz;
    k[2][2] = -sxx + syy - szz;
    k[2][3] = syz + szy;
    k[3][3] = -sxx - syy + szz;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < i; ++j) k[i][j] = k[j][i];
    return k;
}

Mat3 quaternionToMatrix(const std::array<double, 4>& q) {
    const double w = q[0], x = q[1], y = q[2], z = q[3];
    Mat3 r;
    r(0, 0) = w * w + x * x - y * y - z * z;
    r(0, 1) = 2.0 * (x * y - w * z);
    r(0, 2) = 2.0 * (x * z + w * y);
    r(1, 0) = 2.0 * (x * y + w * z);
    r(1, 1) = w * w - x * x + y * y - z * z;
    r(1, 2) = 2.0 * (y * z - w * x);
    r(2, 0) = 2.0 * (x * z - w * y);
    r(2, 1) = 2.0 * (y * z + w * x);
    r(2, 2) = w * w - x * x - y * y + z * z;
    return r;
}

} // namespace

Vec3 centerCoordinates(std::vector<Vec3>& xs) {
    COP_REQUIRE(!xs.empty(), "empty coordinate set");
    Vec3 c{};
    for (const auto& x : xs) c += x;
    c /= double(xs.size());
    for (auto& x : xs) x -= c;
    return c;
}

double rmsd(std::span<const Vec3> a, std::span<const Vec3> b) {
    COP_REQUIRE(a.size() == b.size(), "coordinate set size mismatch");
    COP_REQUIRE(!a.empty(), "empty coordinate set");
    std::vector<Vec3> ca(a.begin(), a.end());
    std::vector<Vec3> cb(b.begin(), b.end());
    centerCoordinates(ca);
    centerCoordinates(cb);
    double ga = 0.0, gb = 0.0;
    for (std::size_t i = 0; i < ca.size(); ++i) {
        ga += norm2(ca[i]);
        gb += norm2(cb[i]);
    }
    return rmsdCentered(ca, cb, ga, gb);
}

double rmsdCentered(std::span<const Vec3> a, std::span<const Vec3> b,
                    double squaredNormA, double squaredNormB) {
    COP_REQUIRE(a.size() == b.size(), "coordinate set size mismatch");
    COP_REQUIRE(!a.empty(), "empty coordinate set");
    double lambdaMax = 0.0;
    largestEigenvector4(hornMatrix(a, b), lambdaMax);
    const double msd = std::max(
        0.0,
        (squaredNormA + squaredNormB - 2.0 * lambdaMax) / double(a.size()));
    return std::sqrt(msd);
}

Mat3 optimalRotation(std::span<const Vec3> a, std::span<const Vec3> b) {
    COP_REQUIRE(a.size() == b.size() && !a.empty(), "bad coordinate sets");
    double lambdaMax = 0.0;
    const auto q = largestEigenvector4(hornMatrix(a, b), lambdaMax);
    return quaternionToMatrix(q);
}

void superimpose(std::span<const Vec3> target, std::vector<Vec3>& mobile) {
    COP_REQUIRE(target.size() == mobile.size(), "size mismatch");
    std::vector<Vec3> ct(target.begin(), target.end());
    const Vec3 targetCentroid = [&] {
        Vec3 c{};
        for (const auto& x : ct) c += x;
        return c / double(ct.size());
    }();
    for (auto& x : ct) x -= targetCentroid;
    centerCoordinates(mobile);
    const Mat3 r = optimalRotation(ct, mobile);
    for (auto& x : mobile) x = r * x + targetCentroid;
}

double nativeContactFraction(const Topology& top, std::span<const Vec3> xs,
                             double factor) {
    const auto& contacts = top.contacts();
    if (contacts.empty()) return 0.0;
    std::size_t formed = 0;
    for (const auto& c : contacts) {
        const double r = distance(xs[std::size_t(c.i)], xs[std::size_t(c.j)]);
        if (r < factor * c.r0) ++formed;
    }
    return double(formed) / double(contacts.size());
}

} // namespace cop::md
