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
