// Free-energy estimators against the analytic harmonic system.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "fe/bar.hpp"
#include "util/error.hpp"
#include "fe/harmonic.hpp"
#include "support/fe_oracles.hpp"

namespace cop::fe {
namespace {

TEST(Harmonic, AnalyticDeltaF) {
    // deltaF = (1/2 beta) ln(k1/k0); centers are irrelevant.
    EXPECT_NEAR(harmonicDeltaF({1.0, 0.0}, {4.0, 7.0}, 1.0),
                0.5 * std::log(4.0), 1e-12);
    EXPECT_NEAR(harmonicDeltaF({2.0, 0.0}, {2.0, 5.0}, 1.0), 0.0, 1e-12);
    EXPECT_NEAR(harmonicDeltaF({1.0, 0.0}, {4.0, 0.0}, 2.0),
                0.25 * std::log(4.0), 1e-12);
}

TEST(Harmonic, SamplerMatchesBoltzmannStatistics) {
    cop::Rng rng(1);
    const HarmonicState s{4.0, 1.0};
    // <U> = kT/2 for a 1D harmonic oscillator.
    const auto work = harmonicWorkSamples(s, {4.0, 1.0}, 50000, 1.0, rng);
    for (double w : work) EXPECT_EQ(w, 0.0); // same state: zero work
}

TEST(Harmonic, LambdaChainEndpoints) {
    const auto chain = harmonicLambdaChain({1.0, 0.0}, {3.0, 2.0}, 4);
    ASSERT_EQ(chain.size(), 5u);
    EXPECT_DOUBLE_EQ(chain.front().k, 1.0);
    EXPECT_DOUBLE_EQ(chain.back().k, 3.0);
    EXPECT_DOUBLE_EQ(chain[2].x0, 1.0);
}

TEST(Fep, ExponentialAveragingConvergesForGoodOverlap) {
    cop::Rng rng(2);
    const HarmonicState s0{1.0, 0.0}, s1{1.3, 0.1};
    const auto work = harmonicWorkSamples(s0, s1, 200000, 1.0, rng);
    EXPECT_NEAR(exponentialAveraging(work), harmonicDeltaF(s0, s1, 1.0),
                0.01);
}

TEST(Fep, RejectsEmptyInput) {
    EXPECT_THROW(exponentialAveraging(std::vector<double>{}), cop::InvalidArgument);
}

TEST(Bar, RecoversAnalyticDeltaF) {
    cop::Rng rng(3);
    const HarmonicState s0{1.0, 0.0}, s1{4.0, 0.5};
    const auto fwd = harmonicWorkSamples(s0, s1, 20000, 1.0, rng);
    const auto rev = harmonicWorkSamples(s1, s0, 20000, 1.0, rng);
    const auto r = bar(fwd, rev);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.deltaF, harmonicDeltaF(s0, s1, 1.0),
                4.0 * r.standardError + 0.01);
}

TEST(Bar, ErrorEstimateIsCalibrated) {
    // Repeat BAR over independent sample sets; the spread of estimates
    // should match the reported standard error within a factor ~2.
    const HarmonicState s0{1.0, 0.0}, s1{2.0, 0.4};
    const double exact = harmonicDeltaF(s0, s1, 1.0);
    std::vector<double> errors;
    double reportedSe = 0.0;
    for (int rep = 0; rep < 30; ++rep) {
        cop::Rng rng(100 + rep);
        const auto fwd = harmonicWorkSamples(s0, s1, 2000, 1.0, rng);
        const auto rev = harmonicWorkSamples(s1, s0, 2000, 1.0, rng);
        const auto r = bar(fwd, rev);
        errors.push_back(r.deltaF - exact);
        reportedSe = r.standardError;
    }
    double var = 0.0;
    for (double e : errors) var += e * e;
    const double empirical = std::sqrt(var / errors.size());
    EXPECT_GT(reportedSe, empirical / 2.5);
    EXPECT_LT(reportedSe, empirical * 2.5);
}

TEST(Bar, AsymmetricSampleCounts) {
    cop::Rng rng(5);
    const HarmonicState s0{1.0, 0.0}, s1{3.0, 0.0};
    const auto fwd = harmonicWorkSamples(s0, s1, 30000, 1.0, rng);
    const auto rev = harmonicWorkSamples(s1, s0, 3000, 1.0, rng);
    const auto r = bar(fwd, rev);
    EXPECT_NEAR(r.deltaF, harmonicDeltaF(s0, s1, 1.0),
                4.0 * r.standardError + 0.02);
}

TEST(Bar, DifferentBeta) {
    cop::Rng rng(6);
    const double beta = 2.5;
    const HarmonicState s0{1.0, 0.0}, s1{2.0, 0.2};
    const auto fwd = harmonicWorkSamples(s0, s1, 30000, beta, rng);
    const auto rev = harmonicWorkSamples(s1, s0, 30000, beta, rng);
    BarParams p;
    p.beta = beta;
    const auto r = bar(fwd, rev, p);
    EXPECT_NEAR(r.deltaF, harmonicDeltaF(s0, s1, beta), 0.02);
}

TEST(Bar, BeatsOneSidedFepForPoorOverlap) {
    // Large k ratio: forward-only FEP is biased; BAR stays accurate.
    cop::Rng rng(7);
    const HarmonicState s0{1.0, 0.0}, s1{25.0, 0.0};
    const double exact = harmonicDeltaF(s0, s1, 1.0);
    const auto fwd = harmonicWorkSamples(s0, s1, 5000, 1.0, rng);
    const auto rev = harmonicWorkSamples(s1, s0, 5000, 1.0, rng);
    const double fepErr = std::abs(exponentialAveraging(fwd) - exact);
    const double barErr = std::abs(bar(fwd, rev).deltaF - exact);
    EXPECT_LT(barErr, fepErr);
}

TEST(Bar, RejectsEmptySides) {
    EXPECT_THROW(bar(std::vector<double>{}, std::vector<double>{1.0}), cop::InvalidArgument);
    EXPECT_THROW(bar(std::vector<double>{1.0}, std::vector<double>{}), cop::InvalidArgument);
}

TEST(BarChain, SumsWindowsAndPropagatesError) {
    cop::Rng rng(8);
    const auto chain = harmonicLambdaChain({1.0, 0.0}, {6.0, 1.0}, 5);
    std::vector<std::vector<double>> fwd, rev;
    for (std::size_t w = 0; w + 1 < chain.size(); ++w) {
        fwd.push_back(
            harmonicWorkSamples(chain[w], chain[w + 1], 8000, 1.0, rng));
        rev.push_back(
            harmonicWorkSamples(chain[w + 1], chain[w], 8000, 1.0, rng));
    }
    const auto r = barChain(fwd, rev);
    EXPECT_EQ(r.windows.size(), 5u);
    EXPECT_NEAR(r.totalDeltaF,
                harmonicDeltaF(chain.front(), chain.back(), 1.0),
                4.0 * r.totalError + 0.02);
    double var = 0.0;
    for (const auto& w : r.windows)
        var += w.standardError * w.standardError;
    EXPECT_NEAR(r.totalError, std::sqrt(var), 1e-12);
}

// fe::bar (warm-started Newton, variance from the last solve pass) against
// the fixed-point oracle it replaced. Both stop on a step below the 1e-10
// tolerance, so they agree far inside these bounds.
constexpr double kDeltaFAgreement = 1e-9;   // absolute, kT
constexpr double kErrorAgreement = 1e-9;    // relative

void expectAgreesWithOracle(const BarResult& r, const BarResult& oracle) {
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.deltaF, oracle.deltaF, kDeltaFAgreement);
    EXPECT_NEAR(r.standardError, oracle.standardError,
                kErrorAgreement * oracle.standardError);
}

TEST(BarOracle, NewtonAgreesWithFixedPointAcrossOverlaps) {
    // Harmonic windows from near-identical states (k ratio 1.05) to poor
    // overlap (k ratio 64, centres 3 sigma apart), with nF != nR. Each is
    // solved cold and warm-started off the answer by +-0.1 and +-2 kT.
    std::uint64_t seed = 40;
    for (const double kRatio : {1.05, 1.5, 4.0, 16.0, 64.0}) {
        for (const double shift : {0.0, 1.0, 2.0, 3.0}) {
            cop::Rng rng(++seed);
            const HarmonicState s0{1.0, 0.0}, s1{kRatio, shift};
            const auto fwd = harmonicWorkSamples(s0, s1, 3000, 1.0, rng);
            const auto rev = harmonicWorkSamples(s1, s0, 1100, 1.0, rng);
            SCOPED_TRACE(testing::Message()
                         << "k ratio " << kRatio << ", shift " << shift);
            const auto oracle = barFixedPointOracle(fwd, rev);
            ASSERT_TRUE(oracle.converged);
            expectAgreesWithOracle(bar(fwd, rev), oracle);
            for (const double offset : {-2.0, -0.1, 0.1, 2.0}) {
                SCOPED_TRACE(testing::Message() << "warm offset " << offset);
                expectAgreesWithOracle(
                    bar(fwd, rev, {}, oracle.deltaF + offset), oracle);
            }
        }
    }
}

TEST(BarOracle, BothSolversRejectNoOverlap) {
    const std::vector<double> fwd{1e4, 2e4}, rev{1e4, 3e4};
    EXPECT_THROW(barFixedPointOracle(fwd, rev), cop::NumericalError);
    EXPECT_THROW(bar(fwd, rev), cop::NumericalError);
    EXPECT_THROW(bar(fwd, rev, {}, 0.0), cop::NumericalError);
}

TEST(BarOracle, WarmStartedRefineMakesHalfTheOraclePasses) {
    // The BAR controller's refine loop in miniature: 16 windows gain
    // samples over 30 rounds, and each round re-solves every window from
    // all samples so far, warm-started from the previous round.
    constexpr std::size_t kWindows = 16;
    constexpr int kRounds = 30;
    const auto chain = harmonicLambdaChain({1.0, 0.0}, {4.0, 1.0}, kWindows);
    std::vector<std::vector<double>> fwd(kWindows), rev(kWindows);
    cop::Rng rng(1976);
    std::optional<LambdaChainResult> estimate;
    int passes = 0, oraclePasses = 0;
    for (int round = 0; round < kRounds; ++round) {
        for (std::size_t w = 0; w < kWindows; ++w) {
            const std::size_t n = round == 0 ? 50 : 50 + rng.uniformInt(200);
            for (double x : harmonicWorkSamples(chain[w], chain[w + 1], n,
                                                1.0, rng))
                fwd[w].push_back(x);
            for (double x : harmonicWorkSamples(chain[w + 1], chain[w], n,
                                                1.0, rng))
                rev[w].push_back(x);
        }
        const bool cold = !estimate;
        estimate = barChain(fwd, rev, {}, estimate);
        for (std::size_t w = 0; w < kWindows; ++w) {
            SCOPED_TRACE(testing::Message()
                         << "round " << round << ", window " << w);
            const auto oracle = barFixedPointOracle(fwd[w], rev[w]);
            expectAgreesWithOracle(estimate->windows[w], oracle);
            // A cold start adds one FEP pass; the oracle always makes one
            // FEP pass and one variance pass besides its solve passes.
            passes += estimate->windows[w].iterations + (cold ? 1 : 0);
            oraclePasses += oracle.iterations + 2;
        }
    }
    EXPECT_LE(2 * passes, oraclePasses)
        << passes << " passes against the oracle's " << oraclePasses;
}

} // namespace
} // namespace cop::fe
