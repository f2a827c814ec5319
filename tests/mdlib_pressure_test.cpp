// Virial pressure on the LJ fluid.

#include <gtest/gtest.h>

#include "mdlib/integrators.hpp"
#include "util/random.hpp"
#include "util/statistics.hpp"

namespace cop::md {
namespace {

struct LjFluid {
    Topology top;
    Box box;
    ForceFieldParams params;
    State state;

    LjFluid(std::size_t n, double boxLen, std::uint64_t seed) {
        for (std::size_t i = 0; i < n; ++i) top.addParticle(1.0);
        top.finalize();
        box = Box::cubic(boxLen);
        params.kind = NonbondedKind::LennardJonesRF;
        params.cutoff = 2.5;
        state.resize(n);
        cop::Rng rng(seed);
        const int side = int(std::ceil(std::cbrt(double(n))));
        const double a = boxLen / side;
        std::size_t placed = 0;
        for (int x = 0; x < side && placed < n; ++x)
            for (int y = 0; y < side && placed < n; ++y)
                for (int z = 0; z < side && placed < n; ++z, ++placed)
                    state.positions[placed] = {x * a, y * a, z * a};
    }
};

TEST(Pressure, DiluteGasApproachesIdealLaw) {
    // Very dilute LJ gas: P ~ rho * T.
    LjFluid sys(27, 30.0, 1); // rho ~ 0.001
    ForceField ff(sys.top, sys.box, sys.params);
    IntegratorParams p;
    p.kind = IntegratorKind::LangevinBAOAB;
    p.dt = 0.004;
    p.temperature = 1.5;
    p.friction = 1.0;
    Integrator integrator(ff, p, cop::Rng(2));
    cop::Rng rng(3);
    assignVelocities(sys.top, sys.state, p.temperature, rng);
    integrator.run(sys.state, 500);

    cop::RunningStats pressure;
    for (int i = 0; i < 300; ++i) {
        integrator.run(sys.state, 10);
        pressure.add(integrator.pressure(sys.state));
    }
    const double rho = 27.0 / sys.box.volume();
    EXPECT_NEAR(pressure.mean(), rho * p.temperature,
                0.3 * rho * p.temperature);
}

TEST(Pressure, DenseFluidDeviatesFromIdeal) {
    // Near-coexistence LJ liquid (rho ~ 0.58, T = 1.0): the attractive
    // tail pulls the compressibility factor Z = P/(rho T) far below 1
    // (measured Z ~ 0 for this state point).
    LjFluid sys(216, 7.2, 4);
    ForceField ff(sys.top, sys.box, sys.params);
    IntegratorParams p;
    p.kind = IntegratorKind::LangevinBAOAB;
    p.dt = 0.004;
    p.temperature = 1.0;
    p.friction = 1.0;
    Integrator integrator(ff, p, cop::Rng(5));
    cop::Rng rng(6);
    assignVelocities(sys.top, sys.state, p.temperature, rng);
    integrator.run(sys.state, 5000);

    cop::RunningStats pressure;
    for (int i = 0; i < 200; ++i) {
        integrator.run(sys.state, 10);
        pressure.add(integrator.pressure(sys.state));
    }
    const double rho = 216.0 / sys.box.volume();
    EXPECT_LT(pressure.mean(), 0.5 * rho * p.temperature);
}

TEST(Pressure, VirialMatchesVolumeDerivative) {
    // W = 3 P_conf V must equal -3V dU/dV (numerically, by scaling the
    // box and positions).
    LjFluid sys(64, 5.0, 7);
    cop::Rng rng(8);
    for (auto& x : sys.state.positions) x += rng.gaussianVec3(0.05);

    auto energyAtScale = [&](double mu) {
        Box scaled = sys.box;
        scaled.lengths *= mu;
        ForceField ff(sys.top, scaled, sys.params);
        std::vector<Vec3> pos = sys.state.positions;
        for (auto& x : pos) x *= mu;
        std::vector<Vec3> forces;
        return ff.compute(pos, forces).potential();
    };
    ForceField ff(sys.top, sys.box, sys.params);
    std::vector<Vec3> forces;
    const double w = ff.compute(sys.state.positions, forces).pairVirial;

    const double h = 1e-5;
    const double dUdMu =
        (energyAtScale(1.0 + h) - energyAtScale(1.0 - h)) / (2.0 * h);
    // dU/dV = dU/dmu / (3 V); W = -3 V dU/dV = -dU/dmu.
    EXPECT_NEAR(w, -dUdMu, 1e-2 * std::max(1.0, std::abs(w)));
}

} // namespace
} // namespace cop::md
