#include "mdlib/integrators.hpp"

#include <gtest/gtest.h>

#include "mdlib/proteins.hpp"
#include "util/statistics.hpp"

namespace cop::md {
namespace {

struct TestSystem {
    GoModel model;
    ForceField ff;
    State state;

    explicit TestSystem(double perturb = 0.0, std::uint64_t seed = 1)
        : model(hairpinGoModel()),
          ff(model.topology, Box::open(), model.forceFieldParams()) {
        state.resize(model.numResidues());
        state.positions = model.native;
        if (perturb > 0.0) {
            cop::Rng rng(seed);
            for (auto& p : state.positions) p += rng.gaussianVec3(perturb);
        }
    }
};

TEST(Integrators, KineticEnergyAndTemperature) {
    TestSystem sys;
    cop::Rng rng(5);
    assignVelocities(sys.model.topology, sys.state, 1.0, rng);
    const double k = kineticEnergy(sys.model.topology, sys.state);
    const double nf = 3.0 * double(sys.state.numParticles()) - 3.0;
    EXPECT_NEAR(instantaneousTemperature(sys.model.topology, sys.state),
                2.0 * k / nf, 1e-12);
}

TEST(Integrators, AssignVelocitiesRemovesComDrift) {
    TestSystem sys;
    cop::Rng rng(6);
    assignVelocities(sys.model.topology, sys.state, 2.0, rng);
    Vec3 p{};
    for (std::size_t i = 0; i < sys.state.numParticles(); ++i)
        p += sys.state.velocities[i] * sys.model.topology.mass(i);
    EXPECT_NEAR(norm(p), 0.0, 1e-12);
}

class NveIntegrators
    : public ::testing::TestWithParam<IntegratorKind> {};

TEST_P(NveIntegrators, EnergyConservation) {
    TestSystem sys(0.05, 7);
    IntegratorParams p;
    p.kind = GetParam();
    p.dt = 0.002;
    p.thermostat = ThermostatKind::None;
    Integrator integrator(sys.ff, p, cop::Rng(3));
    cop::Rng rng(8);
    assignVelocities(sys.model.topology, sys.state, 0.5, rng);

    integrator.run(sys.state, 1); // prime forces/energies
    const double e0 = integrator.conservedQuantity(sys.state);
    integrator.run(sys.state, 5000);
    const double e1 = integrator.conservedQuantity(sys.state);
    // Drift well under 1% of the total energy scale over 5000 steps.
    EXPECT_NEAR(e1, e0, 0.01 * std::max(1.0, std::abs(e0)));
}

INSTANTIATE_TEST_SUITE_P(Kinds, NveIntegrators,
                         ::testing::Values(IntegratorKind::VelocityVerlet));

TEST(Integrators, LangevinSamplesTargetTemperature) {
    TestSystem sys;
    IntegratorParams p;
    p.kind = IntegratorKind::LangevinBAOAB;
    p.dt = 0.005;
    p.temperature = 0.7;
    p.friction = 1.0;
    Integrator integrator(sys.ff, p, cop::Rng(11));
    cop::Rng rng(12);
    assignVelocities(sys.model.topology, sys.state, p.temperature, rng);

    integrator.run(sys.state, 2000); // equilibrate
    cop::RunningStats temp;
    for (int i = 0; i < 400; ++i) {
        integrator.run(sys.state, 20);
        // Langevin noise drives all 3N degrees of freedom (no conserved
        // COM momentum), hence removedDof = 0.
        temp.add(instantaneousTemperature(sys.model.topology, sys.state, 0));
    }
    EXPECT_NEAR(temp.mean(), p.temperature, 0.05);
}

TEST(Integrators, FreeLangevinParticleDiffusesAtEinsteinRate) {
    // Free particles under BAOAB friction diffuse at D = T / (m gamma).
    Topology top(64);
    top.finalize();
    ForceFieldParams fp;
    fp.kind = NonbondedKind::GoRepulsive;
    fp.repEpsilon = 0.0; // switch interactions off: ideal gas
    ForceField ff(top, Box::open(), fp);
    IntegratorParams ip;
    ip.kind = IntegratorKind::LangevinBAOAB;
    ip.dt = 0.01;
    ip.temperature = 1.5;
    ip.friction = 2.0;
    Integrator integrator(ff, ip, cop::Rng(7));
    State st;
    st.resize(64);
    cop::Rng rng(8);
    for (auto& x : st.positions) x = rng.gaussianVec3(1.0);
    assignVelocities(top, st, ip.temperature, rng);

    integrator.run(st, 500); // velocity equilibration
    std::vector<std::vector<Vec3>> frames;
    for (int f = 0; f < 200; ++f) {
        frames.push_back(st.positions);
        integrator.run(st, 50);
    }
    // Einstein relation: least-squares slope of MSD(t) = 6 D t through
    // the origin over lags of 5..40 frames, MSD averaged over particles
    // and time origins.
    const double timePerFrame = 50 * ip.dt;
    double num = 0.0, den = 0.0;
    for (std::size_t k = 5; k <= 40; ++k) {
        double sum = 0.0;
        std::size_t origins = 0;
        for (std::size_t t = 0; t + k < frames.size(); ++t, ++origins)
            for (std::size_t i = 0; i < frames[t].size(); ++i)
                sum += distance2(frames[t][i], frames[t + k][i]);
        const double msd = sum / (double(origins) * double(top.numParticles()));
        const double time = double(k) * timePerFrame;
        num += time * msd;
        den += time * time;
    }
    const double d = num / den / 6.0;
    const double expected = ip.temperature / ip.friction;
    EXPECT_NEAR(d, expected, 0.25 * expected);
}

TEST(Integrators, NoseHooverControlsTemperatureAndConservesExtended) {
    TestSystem sys(0.02, 21);
    IntegratorParams p;
    p.kind = IntegratorKind::VelocityVerlet;
    p.dt = 0.002;
    p.thermostat = ThermostatKind::NoseHoover;
    p.temperature = 0.6;
    p.tauT = 0.5;
    Integrator integrator(sys.ff, p, cop::Rng(13));
    cop::Rng rng(14);
    assignVelocities(sys.model.topology, sys.state, p.temperature, rng);

    integrator.run(sys.state, 2000);
    const double c0 = integrator.conservedQuantity(sys.state);
    cop::RunningStats temp;
    for (int i = 0; i < 500; ++i) {
        integrator.run(sys.state, 20);
        temp.add(instantaneousTemperature(sys.model.topology, sys.state));
    }
    const double c1 = integrator.conservedQuantity(sys.state);
    EXPECT_NEAR(temp.mean(), p.temperature, 0.06);
    EXPECT_NEAR(c1, c0, 0.05 * std::max(1.0, std::abs(c0)));
}

TEST(Integrators, StepAndTimeAdvance) {
    TestSystem sys;
    IntegratorParams p;
    p.dt = 0.01;
    Integrator integrator(sys.ff, p, cop::Rng(1));
    integrator.run(sys.state, 25);
    EXPECT_EQ(sys.state.step, 25);
    EXPECT_NEAR(sys.state.time, 0.25, 1e-12);
}

TEST(Integrators, DeterministicGivenSeed) {
    TestSystem a, b;
    IntegratorParams p;
    p.kind = IntegratorKind::LangevinBAOAB;
    p.temperature = 0.6;
    Integrator ia(a.ff, p, cop::Rng(77));
    Integrator ib(b.ff, p, cop::Rng(77));
    cop::Rng ra(5), rb(5);
    assignVelocities(a.model.topology, a.state, 0.6, ra);
    assignVelocities(b.model.topology, b.state, 0.6, rb);
    ia.run(a.state, 500);
    ib.run(b.state, 500);
    for (std::size_t i = 0; i < a.state.numParticles(); ++i)
        EXPECT_EQ(a.state.positions[i], b.state.positions[i]);
}

TEST(Integrators, RejectsBadParameters) {
    TestSystem sys;
    IntegratorParams p;
    p.dt = 0.0;
    EXPECT_THROW(Integrator(sys.ff, p, cop::Rng(1)), cop::InvalidArgument);
    p.dt = 0.01;
    p.tauT = 0.0;
    EXPECT_THROW(Integrator(sys.ff, p, cop::Rng(1)), cop::InvalidArgument);
}

} // namespace
} // namespace cop::md
