// Parameterized property sweeps: invariants that must hold across broad
// parameter ranges, not just a single configuration.

#include <gtest/gtest.h>

#include "fe/bar.hpp"
#include "fe/harmonic.hpp"
#include "mdlib/proteins.hpp"
#include "mdlib/simulation.hpp"
#include "msm/clustering.hpp"
#include "msm/markov_model.hpp"
#include "util/statistics.hpp"

namespace cop {
namespace {

// --- Integrator order: velocity-Verlet energy drift shrinks ~dt^2 -------

class TimestepSweep : public ::testing::TestWithParam<double> {};

TEST_P(TimestepSweep, NveDriftBoundedByTimestep) {
    const double dt = GetParam();
    const auto model = md::hairpinGoModel();
    md::ForceField ff(model.topology, md::Box::open(),
                      model.forceFieldParams());
    md::State state;
    state.resize(model.numResidues());
    state.positions = model.native;
    Rng rng(11);
    md::assignVelocities(model.topology, state, 0.4, rng);

    md::IntegratorParams p;
    p.kind = md::IntegratorKind::VelocityVerlet;
    p.dt = dt;
    md::Integrator integrator(ff, p, Rng(3));
    integrator.run(state, 1);
    const double e0 = integrator.conservedQuantity(state);
    // Equal simulated time for every dt.
    integrator.run(state, std::int64_t(10.0 / dt));
    const double drift = std::abs(integrator.conservedQuantity(state) - e0);
    // Measured drift/dt^2 is ~230 across this sweep (clean second-order
    // behaviour); the bound catches any order regression.
    EXPECT_LT(drift, 500.0 * dt * dt)
        << "dt = " << dt << " drift = " << drift;
}

INSTANTIATE_TEST_SUITE_P(Dts, TimestepSweep,
                         ::testing::Values(0.001, 0.002, 0.004, 0.008));

// --- Langevin thermostat across target temperatures ---------------------

class TemperatureSweep : public ::testing::TestWithParam<double> {};

TEST_P(TemperatureSweep, LangevinHitsTarget) {
    const double target = GetParam();
    const auto model = md::hairpinGoModel();
    md::ForceField ff(model.topology, md::Box::open(),
                      model.forceFieldParams());
    md::State state;
    state.resize(model.numResidues());
    state.positions = model.native;
    md::IntegratorParams p;
    p.kind = md::IntegratorKind::LangevinBAOAB;
    p.dt = 0.004;
    p.temperature = target;
    p.friction = 2.0;
    md::Integrator integrator(ff, p, Rng(7));
    Rng rng(8);
    md::assignVelocities(model.topology, state, target, rng);
    integrator.run(state, 2000);
    RunningStats t;
    for (int i = 0; i < 300; ++i) {
        integrator.run(state, 10);
        t.add(md::instantaneousTemperature(model.topology, state, 0));
    }
    EXPECT_NEAR(t.mean(), target, 0.12 * target + 0.01) << target;
}

INSTANTIATE_TEST_SUITE_P(Temps, TemperatureSweep,
                         ::testing::Values(0.2, 0.5, 1.0, 2.0));

// --- Checkpoint round-trip across integrator kinds ----------------------

class IntegratorKindSweep
    : public ::testing::TestWithParam<md::IntegratorKind> {};

TEST_P(IntegratorKindSweep, CheckpointContinuationIsExact) {
    const auto model = md::hairpinGoModel();
    md::SimulationConfig cfg;
    cfg.integrator.kind = GetParam();
    cfg.integrator.dt = 0.004;
    cfg.integrator.temperature = 0.4;
    cfg.sampleInterval = 25;
    cfg.seed = 17;
    auto sim = md::Simulation::forGoModel(model, model.native, cfg);
    sim.initializeVelocities();
    sim.run(100);
    auto copy = md::Simulation::restore(sim.checkpoint());
    sim.run(200);
    copy.run(200);
    for (std::size_t i = 0; i < model.numResidues(); ++i)
        EXPECT_EQ(sim.state().positions[i], copy.state().positions[i]);
}

INSTANTIATE_TEST_SUITE_P(Kinds, IntegratorKindSweep,
                         ::testing::Values(md::IntegratorKind::VelocityVerlet,
                                           md::IntegratorKind::LangevinBAOAB));

// --- k-centers radius is monotone in k ----------------------------------

class ClusterCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClusterCountSweep, MaxRadiusShrinksWithMoreClusters) {
    const std::size_t k = GetParam();
    Rng rng(5);
    msm::ConformationSet data;
    for (int i = 0; i < 150; ++i) {
        std::vector<Vec3> conf;
        for (int p = 0; p < 8; ++p) conf.push_back(rng.gaussianVec3(2.0));
        data.add(std::move(conf));
    }
    auto radiusAt = [&](std::size_t kk) {
        msm::KCentersParams p;
        p.numClusters = kk;
        const auto r = msm::kCenters(data, p);
        double maxR = 0.0;
        for (double d : r.distances) maxR = std::max(maxR, d);
        return maxR;
    };
    EXPECT_LE(radiusAt(k), radiusAt(k / 2) + 1e-12) << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, ClusterCountSweep,
                         ::testing::Values(4, 8, 16, 64));

// --- All estimators produce valid stochastic matrices across seeds ------

// gtest names each case by dumping the parameter's bytes, so the gap
// between `kind` and `seed` is an explicit zero field: left as padding it
// held stack garbage and the test names changed from run to run.
struct EstimatorSeed {
    msm::EstimatorKind kind;
    std::uint32_t zero = 0;
    std::uint64_t seed;
};
static_assert(sizeof(EstimatorSeed) == 16, "EstimatorSeed has no padding");

class EstimatorSweep : public ::testing::TestWithParam<EstimatorSeed> {};

TEST_P(EstimatorSweep, RowsStochasticOnRandomData) {
    const EstimatorSeed& param = GetParam();
    Rng rng(param.seed);
    std::vector<msm::DiscreteTrajectory> trajs;
    for (int t = 0; t < 20; ++t) {
        msm::DiscreteTrajectory traj;
        int s = int(rng.uniformInt(12));
        for (int i = 0; i < 100; ++i) {
            if (rng.uniform() < 0.3) s = int(rng.uniformInt(12));
            traj.push_back(s);
        }
        trajs.push_back(std::move(traj));
    }
    msm::MarkovModelParams p;
    p.estimator = param.kind;
    const auto m = msm::MarkovStateModel::fromTrajectories(trajs, 12, p);
    for (std::size_t i = 0; i < m.numStates(); ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < m.numStates(); ++j) {
            EXPECT_GE(m.transitionMatrix()(i, j), 0.0);
            row += m.transitionMatrix()(i, j);
        }
        EXPECT_NEAR(row, 1.0, 1e-9);
    }
    // Stationary distribution sums to one.
    double total = 0.0;
    for (double v : m.stationaryDistribution()) total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Estimators, EstimatorSweep,
    ::testing::Values(
        EstimatorSeed{.kind = msm::EstimatorKind::RowNormalized, .seed = 1},
        EstimatorSeed{.kind = msm::EstimatorKind::RowNormalized, .seed = 2},
        EstimatorSeed{.kind = msm::EstimatorKind::Symmetrized, .seed = 1},
        EstimatorSeed{.kind = msm::EstimatorKind::Symmetrized, .seed = 2},
        EstimatorSeed{.kind = msm::EstimatorKind::ReversibleMle, .seed = 1},
        EstimatorSeed{.kind = msm::EstimatorKind::ReversibleMle, .seed = 2}));

// --- BAR accuracy across overlap regimes --------------------------------

class BarOverlapSweep : public ::testing::TestWithParam<double> {};

TEST_P(BarOverlapSweep, StaysWithinErrorBars) {
    const double kRatio = GetParam();
    const fe::HarmonicState s0{1.0, 0.0}, s1{kRatio, 0.2};
    Rng rng(std::uint64_t(kRatio * 100));
    const auto fwd = fe::harmonicWorkSamples(s0, s1, 8000, 1.0, rng);
    const auto rev = fe::harmonicWorkSamples(s1, s0, 8000, 1.0, rng);
    const auto r = fe::bar(fwd, rev);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.deltaF, fe::harmonicDeltaF(s0, s1, 1.0),
                5.0 * r.standardError + 0.01)
        << "k ratio " << kRatio;
}

INSTANTIATE_TEST_SUITE_P(Ratios, BarOverlapSweep,
                         ::testing::Values(1.5, 4.0, 16.0, 64.0));

} // namespace
} // namespace cop
