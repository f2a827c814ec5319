#include "mdlib/observables.hpp"

#include <gtest/gtest.h>

#include "mdlib/proteins.hpp"
#include "support/md_oracles.hpp"
#include "util/random.hpp"

namespace cop::md {
namespace {

std::vector<Vec3> randomCloud(std::size_t n, std::uint64_t seed) {
    cop::Rng rng(seed);
    std::vector<Vec3> xs;
    for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.gaussianVec3(2.0));
    return xs;
}

TEST(Rmsd, ZeroForIdenticalSets) {
    const auto xs = randomCloud(20, 1);
    EXPECT_NEAR(rmsd(xs, xs), 0.0, 1e-9);
}

TEST(Rmsd, InvariantUnderRigidTransform) {
    const auto xs = randomCloud(30, 2);
    const Mat3 r = rotationMatrix(normalized(Vec3{1, -2, 0.5}), 1.234);
    std::vector<Vec3> moved;
    for (const auto& x : xs) moved.push_back(r * x + Vec3{10, -3, 7});
    // Limited by cancellation in ga + gb - 2*lambda_max, not the solver.
    EXPECT_NEAR(rmsd(xs, moved), 0.0, 1e-6);
}

TEST(Rmsd, DetectsKnownDisplacement) {
    // Two points distance 2 apart vs distance 4 apart: optimal alignment
    // leaves each end 0.5 from its target -> RMSD 0.5... compute exactly:
    // centered a = (+-1,0,0), b = (+-2,0,0); rotation can flip but best is
    // identity; rmsd = sqrt(mean(1^2,1^2)) = 1.
    const std::vector<Vec3> a{{-1, 0, 0}, {1, 0, 0}};
    const std::vector<Vec3> b{{-2, 0, 0}, {2, 0, 0}};
    EXPECT_NEAR(rmsd(a, b), 1.0, 1e-12);
}

TEST(Rmsd, SymmetricInArguments) {
    const auto a = randomCloud(25, 3);
    const auto b = randomCloud(25, 4);
    EXPECT_NEAR(rmsd(a, b), rmsd(b, a), 1e-9);
}

TEST(Rmsd, RejectsMismatchedSizes) {
    EXPECT_THROW(rmsd(randomCloud(3, 1), randomCloud(4, 1)),
                 cop::InvalidArgument);
}

/// RMSD by explicit superposition: rotate centered b by optimalRotation
/// and average |a - R b|^2 directly. It does not read the eigenvalue that
/// rmsd() solves for, and it has no cancellation in |a|^2 + |b|^2 - 2 l.
double rotatedRmsd(std::span<const Vec3> a, std::span<const Vec3> b) {
    double ga = 0.0, gb = 0.0;
    const auto ca = centered(a, ga);
    const auto cb = centered(b, gb);
    const Mat3 r = optimalRotation(ca, cb);
    double sum = 0.0;
    for (std::size_t i = 0; i < ca.size(); ++i)
        sum += distance2(ca[i], r * cb[i]);
    return std::sqrt(sum / double(ca.size()));
}

TEST(Rmsd, QcpMatchesRotatedOracle) {
    cop::Rng rng(2005);
    // Points on a line through `origin` along `dir` at random offsets.
    auto line = [&](std::size_t n, Vec3 origin, Vec3 dir) {
        std::vector<Vec3> xs;
        for (std::size_t i = 0; i < n; ++i)
            xs.push_back(origin + dir * rng.uniform(-3.0, 3.0));
        return xs;
    };
    // Points in the plane through `origin` spanned by u and v.
    auto plane = [&](std::size_t n, Vec3 origin, Vec3 u, Vec3 v) {
        std::vector<Vec3> xs;
        for (std::size_t i = 0; i < n; ++i)
            xs.push_back(origin + u * rng.uniform(-3.0, 3.0) +
                         v * rng.uniform(-3.0, 3.0));
        return xs;
    };

    std::vector<std::pair<std::vector<Vec3>, std::vector<Vec3>>> pairs;
    for (std::size_t n : {3, 4, 10, 35, 64})
        for (int t = 0; t < 8; ++t)
            pairs.emplace_back(randomCloud(n, rng.next()),
                               randomCloud(n, rng.next()));
    const auto model = villinGoModel();
    const auto frames = makeUnfoldedConformations(model, 5, 11);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        pairs.emplace_back(model.native, frames[i]);
        for (std::size_t j = i + 1; j < frames.size(); ++j)
            pairs.emplace_back(frames[i], frames[j]);
    }
    // Near pairs, where |a|^2 + |b|^2 - 2 l cancels most: a rigidly moved
    // copy with small per-atom noise.
    for (double noise : {0.002, 0.01, 0.05})
        for (const auto& x : {randomCloud(35, rng.next()), frames[0]}) {
            const Mat3 r =
                rotationMatrix(normalized(rng.gaussianVec3(1.0)), 0.7);
            std::vector<Vec3> moved;
            for (const auto& v : x)
                moved.push_back(r * v + Vec3{1, 2, 3} +
                                rng.gaussianVec3(noise));
            pairs.emplace_back(x, moved);
        }
    for (int t = 0; t < 8; ++t) {
        const Vec3 u = normalized(rng.gaussianVec3(1.0));
        const Vec3 v = normalized(cross(u, rng.gaussianVec3(1.0)));
        const Vec3 w = normalized(rng.gaussianVec3(1.0));
        pairs.emplace_back(plane(12, rng.gaussianVec3(5.0), u, v),
                           plane(12, rng.gaussianVec3(5.0), u, v));
        pairs.emplace_back(plane(12, {}, u, v), plane(12, {}, w, cross(w, u)));
        pairs.emplace_back(line(9, rng.gaussianVec3(5.0), u),
                           line(9, rng.gaussianVec3(5.0), v));
        pairs.emplace_back(line(2, {}, u), line(2, {}, w));
        pairs.emplace_back(randomCloud(2, rng.next()),
                           randomCloud(2, rng.next()));
    }

    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const auto& [a, b] = pairs[p];
        const double oracle = rotatedRmsd(a, b);
        if (oracle >= 1e-3) {
            EXPECT_NEAR(rmsd(a, b), oracle, 1e-10) << "pair " << p;
            EXPECT_NEAR(rmsd(b, a), oracle, 1e-10) << "pair " << p;
        }
        EXPECT_LE(rmsd(a, a), 1e-6) << "pair " << p;
        EXPECT_LE(rmsd(b, b), 1e-6) << "pair " << p;
    }
}

TEST(Rmsd, RepeatedTopRootIsExact) {
    // Both sets on lines: the key matrix's top eigenvalue is a double root,
    // which Newton resolves only to about 1e-8 here. The exact result shows
    // the Jacobi fallback took over. Centered offsets t and s give
    // RMSD^2 = (|t|^2 + |s|^2 - 2 |t.s|) / n, the lines laid on each other.
    // A single atom centers to the origin: the key matrix is zero, Newton's
    // step is 0/0, and the fallback returns 0.
    const std::vector<double> t{-3, -1, 0, 4};
    const std::vector<double> s{-5, 1, 2, 2};
    const Vec3 u = normalized(Vec3{1, 2, -2});
    const Vec3 v = normalized(Vec3{-4, 0.5, 1});
    std::vector<Vec3> a, b;
    double tt = 0.0, ss = 0.0, ts = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        a.push_back(Vec3{1, 1, 1} + u * t[i]);
        b.push_back(Vec3{-2, 0, 3} + v * s[i]);
        tt += t[i] * t[i];
        ss += s[i] * s[i];
        ts += t[i] * s[i];
    }
    const double expected =
        std::sqrt((tt + ss - 2.0 * std::abs(ts)) / double(t.size()));
    EXPECT_NEAR(rmsd(a, b), expected, 1e-12);
    EXPECT_NEAR(rmsd(b, a), expected, 1e-12);
    const std::vector<Vec3> one{{1, 2, 3}}, other{{-4, 5, 6}};
    EXPECT_EQ(rmsd(one, other), 0.0);
}

TEST(Superimpose, AlignsMobileOntoTarget) {
    const auto target = randomCloud(15, 5);
    const Mat3 r = rotationMatrix(normalized(Vec3{0.3, 1, 2}), -0.8);
    std::vector<Vec3> mobile;
    for (const auto& x : target) mobile.push_back(r * x + Vec3{5, 5, 5});
    superimpose(target, mobile);
    for (std::size_t i = 0; i < target.size(); ++i)
        EXPECT_NEAR(distance(target[i], mobile[i]), 0.0, 1e-8);
}

TEST(Superimpose, HandlesReflectionFreeCase) {
    // Perturbed copy: superposition should reduce raw distance.
    auto target = randomCloud(20, 6);
    cop::Rng rng(7);
    std::vector<Vec3> mobile;
    const Mat3 r = rotationMatrix(Vec3{0, 0, 1}, 2.5);
    for (const auto& x : target)
        mobile.push_back(r * x + rng.gaussianVec3(0.01));
    auto before = 0.0;
    for (std::size_t i = 0; i < target.size(); ++i)
        before += distance2(target[i], mobile[i]);
    superimpose(target, mobile);
    auto after = 0.0;
    for (std::size_t i = 0; i < target.size(); ++i)
        after += distance2(target[i], mobile[i]);
    EXPECT_LT(after, before);
    EXPECT_NEAR(std::sqrt(after / target.size()), 0.01, 0.02);
}

TEST(RadiusOfGyration, LinearChainFormula) {
    // Points at 0..9 on a line: Rg^2 = mean((i - 4.5)^2) = 8.25.
    std::vector<Vec3> xs;
    for (int i = 0; i < 10; ++i) xs.push_back({double(i), 0, 0});
    EXPECT_NEAR(radiusOfGyration(xs), std::sqrt(8.25), 1e-12);
}

TEST(RadiusOfGyration, MassWeighted) {
    const std::vector<Vec3> xs{{0, 0, 0}, {1, 0, 0}};
    const std::vector<double> ms{3.0, 1.0};
    // COM at 0.25; Rg^2 = (3*0.0625 + 1*0.5625)/4 = 0.1875.
    EXPECT_NEAR(radiusOfGyration(xs, ms), std::sqrt(0.1875), 1e-12);
}

TEST(NativeContacts, FullAtNativeZeroWhenStretched) {
    const auto model = villinGoModel();
    EXPECT_DOUBLE_EQ(nativeContactFraction(model.topology, model.native),
                     1.0);
    const auto stretched = extendedChain(model.numResidues());
    EXPECT_LT(nativeContactFraction(model.topology, stretched), 0.3);
}

TEST(NativeContacts, FactorControlsTolerance) {
    const auto model = hairpinGoModel();
    auto scaled = model.native;
    for (auto& p : scaled) p *= 1.25;
    // At 1.25x expansion, factor 1.2 misses most contacts; 1.5 keeps all.
    EXPECT_LT(nativeContactFraction(model.topology, scaled, 1.2), 0.7);
    EXPECT_DOUBLE_EQ(nativeContactFraction(model.topology, scaled, 1.5),
                     1.0);
}

TEST(CenterCoordinates, CentroidBecomesOrigin) {
    auto xs = randomCloud(12, 9);
    centerCoordinates(xs);
    Vec3 c{};
    for (const auto& x : xs) c += x;
    EXPECT_NEAR(norm(c) / double(xs.size()), 0.0, 1e-12);
}

} // namespace
} // namespace cop::md
