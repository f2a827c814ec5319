#include "mdlib/integrators.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace cop::md {

double kineticEnergy(const Topology& top, const State& state) {
    double k = 0.0;
    for (std::size_t i = 0; i < state.numParticles(); ++i)
        k += 0.5 * top.mass(i) * norm2(state.velocities[i]);
    return k;
}

double instantaneousTemperature(const Topology& top, const State& state,
                                int removedDof) {
    const auto n = state.numParticles();
    if (n < 2) return 0.0;
    const double nf = 3.0 * double(n) - double(removedDof);
    COP_REQUIRE(nf > 0.0, "no degrees of freedom left");
    return 2.0 * kineticEnergy(top, state) / nf;
}

void removeCenterOfMassMotion(const Topology& top, State& state) {
    Vec3 p{};
    double m = 0.0;
    for (std::size_t i = 0; i < state.numParticles(); ++i) {
        p += state.velocities[i] * top.mass(i);
        m += top.mass(i);
    }
    const Vec3 vcom = p / m;
    for (auto& v : state.velocities) v -= vcom;
}

void assignVelocities(const Topology& top, State& state, double temperature,
                      Rng& rng) {
    for (std::size_t i = 0; i < state.numParticles(); ++i)
        state.velocities[i] =
            maxwellBoltzmannVelocity(rng, top.mass(i), temperature);
    removeCenterOfMassMotion(top, state);
}

Integrator::Integrator(ForceField& ff, IntegratorParams params, Rng rng)
    : ff_(ff), params_(params), rng_(rng) {
    COP_REQUIRE(params.dt > 0.0, "timestep must be positive");
    COP_REQUIRE(params.temperature >= 0.0, "temperature must be >= 0");
    COP_REQUIRE(params.tauT > 0.0, "tauT must be positive");
    COP_REQUIRE(params.friction >= 0.0, "friction must be >= 0");
    const auto& top = ff_.topology();
    const double dt = params_.dt;
    c1_ = std::exp(-params_.friction * dt);
    const double c2 = std::sqrt(std::max(0.0, 1.0 - c1_ * c1_));
    for (std::size_t i = 0; i < top.numParticles(); ++i) {
        halfDtOverM_.push_back(0.5 * dt / top.mass(i));
        noiseSigma_.push_back(std::sqrt(params_.temperature / top.mass(i)) *
                              c2);
    }
}

void Integrator::run(State& state, std::int64_t nSteps) {
    COP_REQUIRE(state.numParticles() == ff_.topology().numParticles(),
                "state does not match topology");
    if (!forcesValid_) {
        lastEnergies_ = ff_.compute(state.positions, state.forces);
        forcesValid_ = true;
    }
    for (std::int64_t s = 0; s < nSteps; ++s) {
        switch (params_.kind) {
        case IntegratorKind::VelocityVerlet: stepVelocityVerlet(state); break;
        case IntegratorKind::LangevinBAOAB: stepLangevinBAOAB(state); break;
        }
        ++state.step;
        state.time += params_.dt;
    }
}

void Integrator::stepVelocityVerlet(State& state) {
    const double dt = params_.dt;

    if (params_.thermostat == ThermostatKind::NoseHoover)
        applyNoseHooverHalf(state, 0.5 * dt);

    for (std::size_t i = 0; i < state.numParticles(); ++i) {
        state.velocities[i] += state.forces[i] * halfDtOverM_[i];
        state.positions[i] += state.velocities[i] * dt;
    }
    lastEnergies_ = ff_.compute(state.positions, state.forces);
    for (std::size_t i = 0; i < state.numParticles(); ++i)
        state.velocities[i] += state.forces[i] * halfDtOverM_[i];

    if (params_.thermostat == ThermostatKind::NoseHoover)
        applyNoseHooverHalf(state, 0.5 * dt);
}

void Integrator::stepLangevinBAOAB(State& state) {
    const double halfDt = 0.5 * params_.dt;
    const std::size_t n = state.numParticles();
    Vec3* x = state.positions.data();
    Vec3* v = state.velocities.data();
    // B (half kick) then A (half drift), fused per atom.
    for (std::size_t i = 0; i < n; ++i) {
        v[i] += state.forces[i] * halfDtOverM_[i];
        x[i] += v[i] * halfDt;
    }
    // O (Ornstein-Uhlenbeck) then A, fused per atom; the Gaussians are
    // drawn in atom order, x, y, z, as by separate loops.
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = v[i] * c1_ + rng_.gaussianVec3(noiseSigma_[i]);
        x[i] += v[i] * halfDt;
    }
    // B: half kick with new forces
    lastEnergies_ = ff_.compute(state.positions, state.forces);
    for (std::size_t i = 0; i < n; ++i)
        v[i] += state.forces[i] * halfDtOverM_[i];
}

void Integrator::applyNoseHooverHalf(State& state, double halfDt) {
    // Single Nosé-Hoover thermostat, Trotterized (Martyna-Tuckerman NHC with
    // chain length 1). Q = Nf T tau^2.
    const auto& top = ff_.topology();
    const double nf = 3.0 * double(state.numParticles()) - 3.0;
    const double t0 = params_.temperature;
    const double q = nf * t0 * params_.tauT * params_.tauT;

    double twoK = 2.0 * kineticEnergy(top, state);
    double g = (twoK - nf * t0) / q;
    state.nhXi += g * 0.5 * halfDt;
    const double scale = std::exp(-state.nhXi * halfDt);
    for (auto& v : state.velocities) v *= scale;
    state.nhEta += state.nhXi * halfDt;
    twoK *= scale * scale;
    g = (twoK - nf * t0) / q;
    state.nhXi += g * 0.5 * halfDt;
}

double Integrator::conservedQuantity(const State& state) const {
    const auto& top = ff_.topology();
    double e = kineticEnergy(top, state) + lastEnergies_.potential();
    if (params_.thermostat == ThermostatKind::NoseHoover) {
        const double nf = 3.0 * double(state.numParticles()) - 3.0;
        const double q = nf * params_.temperature * params_.tauT * params_.tauT;
        e += 0.5 * q * state.nhXi * state.nhXi +
             nf * params_.temperature * state.nhEta;
    }
    return e;
}

} // namespace cop::md
