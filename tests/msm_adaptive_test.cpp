#include "msm/adaptive.hpp"

#include <gtest/gtest.h>

namespace cop::msm {
namespace {

SparseCounts countsWithTotals(const std::vector<double>& outCounts) {
    SparseCounts c(outCounts.size());
    for (std::size_t i = 0; i < outCounts.size(); ++i)
        if (outCounts[i] > 0.0)
            c.add(int(i), int((i + 1) % outCounts.size()), outCounts[i]);
    return c;
}

TEST(Adaptive, EvenWeightingIsUniformOverObserved) {
    const auto counts = countsWithTotals({10, 1, 100, 5});
    AdaptiveParams p;
    p.scheme = WeightingScheme::Even;
    p.totalSeeds = 8;
    const auto plan =
        planAdaptiveSampling(counts, {true, true, true, true}, p);
    EXPECT_EQ(plan.totalSeeds(), 8);
    for (int s : plan.seedsPerState) EXPECT_EQ(s, 2);
}

TEST(Adaptive, UnobservedStatesGetNothing) {
    const auto counts = countsWithTotals({10, 1, 100, 5});
    AdaptiveParams p;
    p.scheme = WeightingScheme::Even;
    p.totalSeeds = 9;
    const auto plan =
        planAdaptiveSampling(counts, {true, false, true, false}, p);
    EXPECT_EQ(plan.totalSeeds(), 9);
    EXPECT_EQ(plan.seedsPerState[1], 0);
    EXPECT_EQ(plan.seedsPerState[3], 0);
}

TEST(Adaptive, AdaptiveWeightingFavorsUndersampledStates) {
    // State 1 has almost no counts; it should receive the most seeds
    // (paper §3.2: "weights the number of trajectories started from each
    // cluster by the uncertainty in the transitions").
    const auto counts = countsWithTotals({500, 1, 500, 500});
    AdaptiveParams p;
    p.scheme = WeightingScheme::Adaptive;
    p.totalSeeds = 20;
    const auto plan =
        planAdaptiveSampling(counts, {true, true, true, true}, p);
    EXPECT_EQ(plan.totalSeeds(), 20);
    EXPECT_GT(plan.seedsPerState[1], plan.seedsPerState[0]);
    EXPECT_GT(plan.seedsPerState[1], 10);
}

TEST(Adaptive, WeightsAreInverseCounts) {
    const auto counts = countsWithTotals({9, 0, 4});
    const auto w = adaptiveWeights(counts, {true, true, true});
    EXPECT_DOUBLE_EQ(w[0], 1.0 / 10.0);
    EXPECT_DOUBLE_EQ(w[1], 1.0);
    EXPECT_DOUBLE_EQ(w[2], 1.0 / 5.0);
}

TEST(Adaptive, ZeroSeedsProducesEmptyPlan) {
    const auto counts = countsWithTotals({1, 1});
    AdaptiveParams p;
    p.totalSeeds = 0;
    const auto plan = planAdaptiveSampling(counts, {true, true}, p);
    EXPECT_EQ(plan.totalSeeds(), 0);
}

TEST(Adaptive, NoObservedStatesProducesEmptyPlan) {
    const auto counts = countsWithTotals({1, 1});
    AdaptiveParams p;
    p.totalSeeds = 5;
    const auto plan = planAdaptiveSampling(counts, {false, false}, p);
    EXPECT_EQ(plan.totalSeeds(), 0);
}

TEST(Adaptive, ExactTotalForAwkwardSplits) {
    const auto counts = countsWithTotals({3, 3, 3});
    AdaptiveParams p;
    p.scheme = WeightingScheme::Even;
    p.totalSeeds = 7; // does not divide evenly by 3
    const auto plan = planAdaptiveSampling(counts, {true, true, true}, p);
    EXPECT_EQ(plan.totalSeeds(), 7);
    for (int s : plan.seedsPerState) {
        EXPECT_GE(s, 2);
        EXPECT_LE(s, 3);
    }
}

TEST(Adaptive, DeterministicForFixedSeed) {
    const auto counts = countsWithTotals({5, 2, 8, 1, 9});
    AdaptiveParams p;
    p.totalSeeds = 11;
    p.seed = 77;
    const std::vector<bool> obs(5, true);
    const auto a = planAdaptiveSampling(counts, obs, p);
    const auto b = planAdaptiveSampling(counts, obs, p);
    EXPECT_EQ(a.seedsPerState, b.seedsPerState);
}

TEST(Adaptive, RejectsMismatchedSizes) {
    const auto counts = countsWithTotals({1, 1});
    AdaptiveParams p;
    p.totalSeeds = 1;
    EXPECT_THROW(planAdaptiveSampling(counts, {true}, p),
                 cop::InvalidArgument);
}

} // namespace
} // namespace cop::msm
