// Transition counting, SCC restriction, MSM estimation and analysis.

#include <cmath>

#include <gtest/gtest.h>

#include "msm/markov_model.hpp"
#include "util/random.hpp"

namespace cop::msm {
namespace {

TEST(Counts, SlidingWindowLagOne) {
    const std::vector<DiscreteTrajectory> trajs{{0, 1, 0, 1, 1}};
    const auto c = countTransitionsSparse(trajs, 2, 1);
    EXPECT_EQ(c.at(0, 1), 2.0);
    EXPECT_EQ(c.at(1, 0), 1.0);
    EXPECT_EQ(c.at(1, 1), 1.0);
    EXPECT_EQ(c.at(0, 0), 0.0);
}

TEST(Counts, LagLongerThanTrajectoryGivesNothing) {
    const std::vector<DiscreteTrajectory> trajs{{0, 1, 0}};
    const auto c = countTransitionsSparse(trajs, 2, 5);
    EXPECT_EQ(c.at(0, 1) + c.at(1, 0) + c.at(0, 0) + c.at(1, 1), 0.0);
}

TEST(Counts, MultipleTrajectoriesAccumulate) {
    const std::vector<DiscreteTrajectory> trajs{{0, 1}, {0, 1}, {1, 0}};
    const auto c = countTransitionsSparse(trajs, 2, 1);
    EXPECT_EQ(c.at(0, 1), 2.0);
    EXPECT_EQ(c.at(1, 0), 1.0);
}

TEST(Counts, RejectsOutOfRangeStates) {
    const std::vector<DiscreteTrajectory> trajs{{0, 7}};
    EXPECT_THROW(countTransitionsSparse(trajs, 2, 1), cop::InvalidArgument);
}

TEST(Scc, SeparatesDisconnectedComponents) {
    SparseCounts c(4);
    c.add(0, 1, 5.0); // component {0,1}
    c.add(1, 0, 5.0);
    c.add(2, 3); // component {2,3}
    c.add(3, 2);
    const auto comp = stronglyConnectedComponents(c);
    EXPECT_EQ(comp[0], comp[1]);
    EXPECT_EQ(comp[2], comp[3]);
    EXPECT_NE(comp[0], comp[2]);
}

TEST(Scc, OneWayEdgeIsNotStronglyConnected) {
    SparseCounts c(2);
    c.add(0, 1, 3.0); // no reverse edge
    const auto comp = stronglyConnectedComponents(c);
    EXPECT_NE(comp[0], comp[1]);
}

TEST(Scc, LargestConnectedSetPrefersBiggerComponent) {
    SparseCounts c(5);
    c.add(0, 1); // 3-cycle {0,1,2}
    c.add(1, 2);
    c.add(2, 0);
    c.add(3, 4, 100.0); // 2-cycle with more counts
    c.add(4, 3, 100.0);
    const auto set = largestConnectedSet(c);
    EXPECT_EQ(set, (std::vector<int>{0, 1, 2}));
}

TEST(Scc, RestrictToStates) {
    SparseCounts c(3);
    c.add(0, 2, 7.0);
    c.add(2, 0, 3.0);
    const auto r = restrictToStates(c, {0, 2});
    EXPECT_EQ(r.rows(), 2u);
    EXPECT_EQ(r(0, 1), 7.0);
    EXPECT_EQ(r(1, 0), 3.0);
}

/// A reversible 3-state chain: 0 <-> 1 <-> 2 with known rates.
std::vector<DiscreteTrajectory> chainTrajectories(std::size_t steps,
                                                  std::uint64_t seed) {
    // Transition matrix rows: a hand-picked reversible chain.
    const double t[3][3] = {{0.90, 0.10, 0.00},
                            {0.05, 0.90, 0.05},
                            {0.00, 0.10, 0.90}};
    cop::Rng rng(seed);
    DiscreteTrajectory traj{0};
    int s = 0;
    for (std::size_t i = 0; i < steps; ++i) {
        const double u = rng.uniform();
        s = u < t[s][0] ? 0 : (u < t[s][0] + t[s][1] ? 1 : 2);
        traj.push_back(s);
    }
    return {traj};
}

TEST(MarkovModel, RowsAreStochastic) {
    const auto trajs = chainTrajectories(20000, 1);
    MarkovModelParams p;
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, p);
    for (std::size_t i = 0; i < m.numStates(); ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < m.numStates(); ++j) {
            row += m.transitionMatrix()(i, j);
            EXPECT_GE(m.transitionMatrix()(i, j), 0.0);
        }
        EXPECT_NEAR(row, 1.0, 1e-12);
    }
}

TEST(MarkovModel, RecoversChainTransitionProbabilities) {
    const auto trajs = chainTrajectories(200000, 2);
    MarkovModelParams p;
    p.estimator = EstimatorKind::RowNormalized;
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, p);
    ASSERT_EQ(m.numStates(), 3u);
    EXPECT_NEAR(m.transitionMatrix()(0, 1), 0.10, 0.01);
    EXPECT_NEAR(m.transitionMatrix()(1, 0), 0.05, 0.01);
    EXPECT_NEAR(m.transitionMatrix()(1, 2), 0.05, 0.01);
}

TEST(MarkovModel, SymmetrizedEstimatorSatisfiesDetailedBalance) {
    const auto trajs = chainTrajectories(50000, 3);
    MarkovModelParams p;
    p.estimator = EstimatorKind::Symmetrized;
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, p);
    const auto& pi = m.stationaryDistribution();
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_NEAR(pi[i] * m.transitionMatrix()(i, j),
                        pi[j] * m.transitionMatrix()(j, i), 1e-10);
}

TEST(MarkovModel, StationaryDistributionOfChain) {
    // For the hand-picked chain, detailed balance gives
    // pi ~ (1, 2, 1) normalized: pi0*0.10 = pi1*0.05 -> pi1 = 2 pi0;
    // pi1*0.05 = pi2*0.10 -> pi2 = pi0.
    const auto trajs = chainTrajectories(400000, 4);
    MarkovModelParams p;
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, p);
    const auto& pi = m.stationaryDistribution();
    EXPECT_NEAR(pi[0], 0.25, 0.02);
    EXPECT_NEAR(pi[1], 0.50, 0.02);
    EXPECT_NEAR(pi[2], 0.25, 0.02);
}

TEST(MarkovModel, PropagationConservesProbability) {
    const auto trajs = chainTrajectories(30000, 5);
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, {});
    std::vector<double> pdist(m.numStates(), 0.0);
    pdist[0] = 1.0;
    const auto p100 = m.propagate(pdist, 100);
    double total = 0.0;
    for (double v : p100) total += v;
    EXPECT_NEAR(total, 1.0, 1e-10);
    // Long propagation converges to stationary (paper Eq. 1 dynamics).
    const auto pInf = m.propagate(pdist, 5000);
    const auto& pi = m.stationaryDistribution();
    for (std::size_t i = 0; i < pi.size(); ++i)
        EXPECT_NEAR(pInf[i], pi[i], 1e-6);
}

TEST(MarkovModel, EigenvaluesLeadWithOne) {
    const auto trajs = chainTrajectories(100000, 6);
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, {});
    const auto ev = m.eigenvalues(3);
    ASSERT_GE(ev.size(), 2u);
    EXPECT_NEAR(ev[0], 1.0, 1e-9);
    EXPECT_LT(ev[1], 1.0);
    EXPECT_GT(ev[1], 0.0);
}

TEST(MarkovModel, ImpliedTimescaleMatchesAnalyticChain) {
    // Exact second eigenvalue of the chain above: T has eigenvalues
    // {1, 0.9, 0.8} (verified analytically: det(T - l I) factorizes).
    const auto trajs = chainTrajectories(500000, 7);
    MarkovModelParams p;
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, p);
    const auto ts = m.impliedTimescales(2);
    ASSERT_GE(ts.size(), 1u);
    EXPECT_NEAR(ts[0], -1.0 / std::log(0.9), 1.5);
}

TEST(MarkovModel, MfptIsPositiveAndZeroAtTarget) {
    const auto trajs = chainTrajectories(100000, 8);
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, {});
    const auto mfpt = m.meanFirstPassageTimes({2});
    EXPECT_EQ(mfpt[2], 0.0);
    EXPECT_GT(mfpt[0], mfpt[1]); // state 0 is farther from 2
    EXPECT_GT(mfpt[1], 0.0);
}

TEST(MarkovModel, CommittorBoundariesAndMonotonicity) {
    const auto trajs = chainTrajectories(100000, 9);
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, {});
    const auto q = m.committor({0}, {2});
    EXPECT_EQ(q[0], 0.0);
    EXPECT_EQ(q[2], 1.0);
    EXPECT_GT(q[1], 0.0);
    EXPECT_LT(q[1], 1.0);
    // Symmetric chain: middle state commits 50/50.
    EXPECT_NEAR(q[1], 0.5, 0.05);
}

TEST(MarkovModel, CommittorRejectsOutOfRangeIndices) {
    const auto trajs = chainTrajectories(1000, 9);
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, {});
    ASSERT_EQ(m.numStates(), 3u);
    for (const int bad : {-1, 3}) {
        EXPECT_THROW(m.committor({bad}, {2}), cop::InvalidArgument) << bad;
        EXPECT_THROW(m.committor({0}, {bad}), cop::InvalidArgument) << bad;
    }
}

TEST(MarkovModel, DisconnectedStatesAreDropped) {
    std::vector<DiscreteTrajectory> trajs{{0, 1, 0, 1}, {2, 3, 2, 3}};
    const auto m = MarkovStateModel::fromTrajectories(trajs, 5, {});
    EXPECT_EQ(m.numStates(), 2u);
    // Mapping back to microstates works.
    const int micro = m.activeState(0);
    EXPECT_GE(m.toActiveIndex(micro), 0);
    EXPECT_EQ(m.toActiveIndex(4), -1);
}

TEST(MarkovModel, ChapmanKolmogorovSmallForMarkovChain) {
    const auto trajs = chainTrajectories(400000, 10);
    const double err = chapmanKolmogorovError(trajs, 3, 1, 3, {});
    EXPECT_LT(err, 0.02);
}

TEST(MarkovModel, ChapmanKolmogorovDetectsNonMarkovianity) {
    // A process with memory: alternates 0,0,1,1,0,0,1,1 deterministically.
    DiscreteTrajectory traj;
    for (int i = 0; i < 1000; ++i) traj.push_back((i / 2) % 2);
    const double err = chapmanKolmogorovError({traj}, 2, 1, 2, {});
    EXPECT_GT(err, 0.2);
}


TEST(ReversibleMle, SatisfiesDetailedBalanceAndStochasticity) {
    const auto trajs = chainTrajectories(50000, 11);
    MarkovModelParams p;
    p.estimator = EstimatorKind::ReversibleMle;
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, p);
    const auto& pi = m.stationaryDistribution();
    for (std::size_t i = 0; i < m.numStates(); ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < m.numStates(); ++j) {
            row += m.transitionMatrix()(i, j);
            EXPECT_NEAR(pi[i] * m.transitionMatrix()(i, j),
                        pi[j] * m.transitionMatrix()(j, i), 1e-8);
        }
        EXPECT_NEAR(row, 1.0, 1e-10);
    }
}

TEST(ReversibleMle, MatchesTruthOnWellSampledChain) {
    const auto trajs = chainTrajectories(400000, 12);
    MarkovModelParams p;
    p.estimator = EstimatorKind::ReversibleMle;
    const auto m = MarkovStateModel::fromTrajectories(trajs, 3, p);
    EXPECT_NEAR(m.transitionMatrix()(0, 1), 0.10, 0.01);
    EXPECT_NEAR(m.transitionMatrix()(1, 0), 0.05, 0.01);
    const auto& pi = m.stationaryDistribution();
    EXPECT_NEAR(pi[1], 0.50, 0.02);
}

TEST(ReversibleMle, RobustToAdaptiveSamplingBias) {
    // Simulate adaptive-sampling bias: many short trajectories restarted
    // from the *rare* state 0 of a two-state system whose true
    // equilibrium is pi = (1/11, 10/11) (k01 = 0.5, k10 = 0.05).
    cop::Rng rng(13);
    std::vector<DiscreteTrajectory> trajs;
    for (int t = 0; t < 2000; ++t) {
        DiscreteTrajectory traj{0}; // biased restarts in state 0
        int s = 0;
        for (int i = 0; i < 10; ++i) {
            const double u = rng.uniform();
            if (s == 0 && u < 0.5) s = 1;
            else if (s == 1 && u < 0.05) s = 0;
            traj.push_back(s);
        }
        trajs.push_back(std::move(traj));
    }
    MarkovModelParams mle;
    mle.estimator = EstimatorKind::ReversibleMle;
    MarkovModelParams sym;
    sym.estimator = EstimatorKind::Symmetrized;
    const auto mMle = MarkovStateModel::fromTrajectories(trajs, 2, mle);
    const auto mSym = MarkovStateModel::fromTrajectories(trajs, 2, sym);
    const double truth = 10.0 / 11.0;
    const double errMle =
        std::abs(mMle.stationaryDistribution()[1] - truth);
    const double errSym =
        std::abs(mSym.stationaryDistribution()[1] - truth);
    // The naive symmetrized estimator is pulled towards the sampling
    // distribution (heavy in state 0); the MLE resists that bias.
    EXPECT_LT(errMle, errSym);
    EXPECT_LT(errMle, 0.05);
}

TEST(ReversibleMle, DirectCallOnCounts) {
    DenseMatrix c(2, 2);
    c(0, 0) = 90;
    c(0, 1) = 10;
    c(1, 0) = 5;
    c(1, 1) = 95;
    const auto t = estimateReversibleMle(c);
    for (std::size_t i = 0; i < 2; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < 2; ++j) row += t(i, j);
        EXPECT_NEAR(row, 1.0, 1e-10);
    }
    EXPECT_GT(t(0, 1), 0.0);
}

} // namespace
} // namespace cop::msm
