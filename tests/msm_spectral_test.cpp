// Macrostates, transition path theory, Bayesian uncertainty.

#include <gtest/gtest.h>

#include "msm/spectral.hpp"
#include "util/statistics.hpp"

namespace cop::msm {
namespace {

/// Two metastable blocks of 3 states each, weakly connected: a textbook
/// two-macrostate system.
MarkovStateModel twoBlockModel() {
    SparseCounts counts(6);
    auto link = [&](int i, int j, double c) {
        counts.add(i, j, c);
        counts.add(j, i, c);
    };
    // Dense intra-block traffic.
    for (int b : {0, 3}) {
        link(b, b + 1, 500);
        link(b + 1, b + 2, 500);
        link(b, b + 2, 300);
        for (int i = b; i < b + 3; ++i) counts.add(i, i, 2000);
    }
    // Rare inter-block hop.
    link(2, 3, 5);
    MarkovModelParams p;
    return MarkovStateModel::fromCounts(counts, p);
}

TEST(Macrostates, RecoversTwoBlocks) {
    const auto model = twoBlockModel();
    const auto macro = identifyMacrostates(model, 2, 7);
    ASSERT_EQ(macro.assignment.size(), 6u);
    // All of block 1 shares one label; block 2 the other.
    for (int i = 1; i < 3; ++i)
        EXPECT_EQ(macro.assignment[std::size_t(i)], macro.assignment[0]);
    for (int i = 4; i < 6; ++i)
        EXPECT_EQ(macro.assignment[std::size_t(i)], macro.assignment[3]);
    EXPECT_NE(macro.assignment[0], macro.assignment[3]);
    // Near-symmetric populations, high metastability.
    EXPECT_NEAR(macro.populations[0], 0.5, 0.1);
    EXPECT_GT(macro.metastability, 0.95);
}

TEST(Macrostates, PopulationsSumToOne) {
    const auto model = twoBlockModel();
    const auto macro = identifyMacrostates(model, 3, 1);
    double total = 0.0;
    for (double p : macro.populations) total += p;
    EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Macrostates, RejectsDegenerateRequests) {
    const auto model = twoBlockModel();
    EXPECT_THROW(identifyMacrostates(model, 1), cop::InvalidArgument);
}

TEST(SlowEigenvectors, SecondEigenvectorSeparatesBlocks) {
    const auto model = twoBlockModel();
    const auto psi = slowEigenvectors(model, 1);
    ASSERT_EQ(psi.rows(), 6u);
    // The slowest mode changes sign between the blocks.
    const double s0 = psi(0, 0);
    for (int i = 1; i < 3; ++i)
        EXPECT_GT(psi(std::size_t(i), 0) * s0, 0.0);
    for (int i = 3; i < 6; ++i)
        EXPECT_LT(psi(std::size_t(i), 0) * s0, 0.0);
}

TEST(Tpt, FluxAndRateForTwoBlocks) {
    const auto model = twoBlockModel();
    const auto tpt = transitionPathTheory(model, {0}, {5});
    EXPECT_EQ(tpt.forwardCommittor[0], 0.0);
    EXPECT_EQ(tpt.forwardCommittor[5], 1.0);
    // Committor jumps across the bottleneck between states 2 and 3.
    EXPECT_LT(tpt.forwardCommittor[2], 0.5);
    EXPECT_GT(tpt.forwardCommittor[3], 0.5);
    EXPECT_GT(tpt.totalFlux, 0.0);
    EXPECT_GT(tpt.rate, 0.0);
    EXPECT_GT(tpt.mfpt, 1.0); // rare transition: many lag times
    // Reversible system: q- = 1 - q+.
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_NEAR(tpt.backwardCommittor[i],
                    1.0 - tpt.forwardCommittor[i], 1e-12);
}

TEST(Tpt, MfptConsistentWithLinearSolve) {
    // TPT's 1/rate approximates the pi-weighted MFPT from A; both should
    // agree on the order of magnitude for a strongly metastable system.
    const auto model = twoBlockModel();
    const auto tpt = transitionPathTheory(model, {0, 1, 2}, {3, 4, 5});
    const auto mfpt = model.meanFirstPassageTimes({3, 4, 5});
    const auto& pi = model.stationaryDistribution();
    double piA = 0.0, weighted = 0.0;
    for (int i = 0; i < 3; ++i) {
        piA += pi[std::size_t(i)];
        weighted += pi[std::size_t(i)] * mfpt[std::size_t(i)];
    }
    weighted /= piA;
    EXPECT_GT(tpt.mfpt, 0.3 * weighted);
    EXPECT_LT(tpt.mfpt, 3.0 * weighted);
}

TEST(Bayesian, SampledMatricesAreStochasticAndRespectSparsity) {
    DenseMatrix counts(3, 3);
    counts(0, 1) = 10;
    counts(1, 0) = 10;
    counts(1, 2) = 5;
    counts(2, 1) = 5;
    cop::Rng rng(3);
    const auto t = sampleTransitionMatrix(counts, rng);
    for (std::size_t i = 0; i < 3; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_GE(t(i, j), 0.0);
            row += t(i, j);
        }
        EXPECT_NEAR(row, 1.0, 1e-12);
    }
    // Unobserved transition 0 -> 2 never appears.
    EXPECT_EQ(t(0, 2), 0.0);
}

TEST(Bayesian, UncertaintyShrinksWithMoreCounts) {
    auto makeCounts = [](double scale) {
        DenseMatrix c(2, 2);
        c(0, 0) = 9 * scale;
        c(0, 1) = 1 * scale;
        c(1, 0) = 1 * scale;
        c(1, 1) = 9 * scale;
        return c;
    };
    auto observable = [](const DenseMatrix& t) { return t(0, 1); };
    cop::Rng rng1(5), rng2(5);
    const auto few =
        transitionMatrixUncertainty(makeCounts(1), observable, 400, rng1);
    const auto many =
        transitionMatrixUncertainty(makeCounts(100), observable, 400, rng2);
    EXPECT_NEAR(few.mean, 0.1, 0.08);
    EXPECT_NEAR(many.mean, 0.1, 0.01);
    EXPECT_LT(many.stddev, 0.5 * few.stddev);
}

TEST(Bayesian, PosteriorMeanTracksCounts) {
    DenseMatrix counts(2, 2);
    counts(0, 0) = 70;
    counts(0, 1) = 30;
    counts(1, 0) = 30;
    counts(1, 1) = 70;
    cop::Rng rng(9);
    auto observable = [](const DenseMatrix& t) { return t(0, 1); };
    const auto u =
        transitionMatrixUncertainty(counts, observable, 500, rng);
    EXPECT_NEAR(u.mean, 0.3, 0.03);
    EXPECT_EQ(u.samples.size(), 500u);
}

TEST(StationaryOf, MatchesModelStationary) {
    const auto model = twoBlockModel();
    const auto pi = stationaryOf(model.transitionMatrix());
    const auto& ref = model.stationaryDistribution();
    for (std::size_t i = 0; i < pi.size(); ++i)
        EXPECT_NEAR(pi[i], ref[i], 1e-8);
}

} // namespace
} // namespace cop::msm
