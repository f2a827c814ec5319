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

/// The nine sums of the covariance between centered coordinate sets
/// a (target) and b (mobile): xy = sum_i b_i.x * a_i.y, and so on.
struct Covariance {
    double xx = 0, xy = 0, xz = 0, yx = 0, yy = 0, yz = 0, zx = 0, zy = 0,
           zz = 0;
};

Covariance covariance(std::span<const Vec3> a, std::span<const Vec3> b) {
    Covariance s;
    for (std::size_t i = 0; i < a.size(); ++i) {
        s.xx += b[i].x * a[i].x;
        s.xy += b[i].x * a[i].y;
        s.xz += b[i].x * a[i].z;
        s.yx += b[i].y * a[i].x;
        s.yy += b[i].y * a[i].y;
        s.yz += b[i].y * a[i].z;
        s.zx += b[i].z * a[i].x;
        s.zy += b[i].z * a[i].y;
        s.zz += b[i].z * a[i].z;
    }
    return s;
}

/// Horn's 4x4 key matrix of a covariance.
std::array<std::array<double, 4>, 4> hornMatrix(const Covariance& s) {
    std::array<std::array<double, 4>, 4> k{};
    k[0][0] = s.xx + s.yy + s.zz;
    k[0][1] = s.yz - s.zy;
    k[0][2] = s.zx - s.xz;
    k[0][3] = s.xy - s.yx;
    k[1][1] = s.xx - s.yy - s.zz;
    k[1][2] = s.xy + s.yx;
    k[1][3] = s.zx + s.xz;
    k[2][2] = -s.xx + s.yy - s.zz;
    k[2][3] = s.yz + s.zy;
    k[3][3] = -s.xx - s.yy + s.zz;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < i; ++j) k[i][j] = k[j][i];
    return k;
}

/// Largest eigenvalue of Horn's key matrix by QCP (Theobald, Acta Cryst.
/// A 61:478, 2005; Liu, Agrafiotis & Theobald, J. Comput. Chem. 31:1561,
/// 2010): Newton's method on the key matrix's characteristic quartic
/// P(l) = l^4 + c2 l^2 + c1 l + c0 (traceless, so no cubic term), started
/// from the upper bound `e0` = (|a|^2 + |b|^2) / 2.
///
/// A repeated top root (collinear sets, two-point sets) is resolvable only
/// to about sqrt(eps) this way. P'(l) is the product of the gaps from l to
/// the other three eigenvalues, so a small slope at the root flags a near
/// tie; then the Jacobi solve of the same key matrix supplies l instead.
double largestEigenvalue(const Covariance& s, double e0) {
    const double xx2 = s.xx * s.xx, xy2 = s.xy * s.xy, xz2 = s.xz * s.xz;
    const double yx2 = s.yx * s.yx, yy2 = s.yy * s.yy, yz2 = s.yz * s.yz;
    const double zx2 = s.zx * s.zx, zy2 = s.zy * s.zy, zz2 = s.zz * s.zz;

    const double c2 =
        -2.0 * (xx2 + xy2 + xz2 + yx2 + yy2 + yz2 + zx2 + zy2 + zz2);
    const double c1 = 8.0 * (s.xx * s.yz * s.zy + s.yy * s.zx * s.xz +
                             s.zz * s.xy * s.yx - s.xx * s.yy * s.zz -
                             s.yz * s.zx * s.xy - s.zy * s.yx * s.xz);

    const double yy2zz2yz2zy2Mxx2 = yy2 + zz2 - xx2 + yz2 + zy2;
    const double xy2xz2yx2zx2 = xy2 + xz2 - yx2 - zx2;
    const double yzzyMyyzz2 = 2.0 * (s.yz * s.zy - s.yy * s.zz);
    const double xzPzx = s.xz + s.zx, yzPzy = s.yz + s.zy;
    const double xyPyx = s.xy + s.yx, yzMzy = s.yz - s.zy;
    const double xzMzx = s.xz - s.zx, xyMyx = s.xy - s.yx;
    const double xxPyy = s.xx + s.yy, xxMyy = s.xx - s.yy;
    const double c0 =
        xy2xz2yx2zx2 * xy2xz2yx2zx2 +
        (yy2zz2yz2zy2Mxx2 + yzzyMyyzz2) * (yy2zz2yz2zy2Mxx2 - yzzyMyyzz2) +
        (-xzPzx * yzMzy + xyMyx * (xxMyy - s.zz)) *
            (-xzMzx * yzPzy + xyMyx * (xxMyy + s.zz)) +
        (-xzPzx * yzPzy - xyPyx * (xxPyy - s.zz)) *
            (-xzMzx * yzMzy - xyPyx * (xxPyy + s.zz)) +
        (xyPyx * yzPzy + xzPzx * (xxMyy + s.zz)) *
            (-xyMyx * yzMzy + xzPzx * (xxPyy + s.zz)) +
        (xyPyx * yzMzy + xzMzx * (xxMyy - s.zz)) *
            (-xyMyx * yzPzy + xzMzx * (xxPyy - s.zz));

    double l = e0;
    for (int it = 0; it < 50; ++it) {
        const double prev = l;
        const double l2 = l * l;
        const double b = (l2 + c2) * l;
        const double a = b + c1;
        l -= (a * l + c0) / (2.0 * l2 * l + b + a);
        if (std::abs(l - prev) < std::abs(1e-11 * l)) break;
    }
    const double slope = 4.0 * l * l * l + 2.0 * c2 * l + c1;
    if (!(std::abs(slope) > 1e-2 * std::abs(l * l * l)))
        largestEigenvector4(hornMatrix(s), l);
    return l;
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

std::vector<Vec3> centered(std::span<const Vec3> xs, double& squaredNorm) {
    std::vector<Vec3> cx(xs.begin(), xs.end());
    centerCoordinates(cx);
    squaredNorm = 0.0;
    for (const auto& x : cx) squaredNorm += norm2(x);
    return cx;
}

double rmsd(std::span<const Vec3> a, std::span<const Vec3> b) {
    COP_REQUIRE(a.size() == b.size(), "coordinate set size mismatch");
    COP_REQUIRE(!a.empty(), "empty coordinate set");
    double ga = 0.0, gb = 0.0;
    const auto ca = centered(a, ga);
    const auto cb = centered(b, gb);
    return rmsdCentered(ca, cb, ga, gb);
}

double rmsdCentered(std::span<const Vec3> a, std::span<const Vec3> b,
                    double squaredNormA, double squaredNormB) {
    COP_REQUIRE(a.size() == b.size(), "coordinate set size mismatch");
    COP_REQUIRE(!a.empty(), "empty coordinate set");
    const double lambdaMax = largestEigenvalue(
        covariance(a, b), 0.5 * (squaredNormA + squaredNormB));
    const double msd = std::max(
        0.0,
        (squaredNormA + squaredNormB - 2.0 * lambdaMax) / double(a.size()));
    return std::sqrt(msd);
}

Mat3 optimalRotation(std::span<const Vec3> a, std::span<const Vec3> b) {
    COP_REQUIRE(a.size() == b.size() && !a.empty(), "bad coordinate sets");
    double lambdaMax = 0.0;
    const auto q =
        largestEigenvector4(hornMatrix(covariance(a, b)), lambdaMax);
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
