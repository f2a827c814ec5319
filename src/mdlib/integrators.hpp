#pragma once

/// \file integrators.hpp
/// Time integration: velocity Verlet for NVE, velocity Verlet with a
/// Nosé-Hoover thermostat for NVT, and BAOAB Langevin dynamics for the
/// Gō model. The paper's villin runs used a Nosé-Hoover
/// thermostat with a 0.5 ps oscillation period; our reproductions default
/// to Langevin for the coarse-grained model (standard for Gō potentials)
/// and exercise Nosé-Hoover in tests and the generic LJ engine.

#include <memory>
#include <vector>

#include "mdlib/forcefield.hpp"
#include "mdlib/state.hpp"
#include "util/random.hpp"

namespace cop::md {

/// The values are checkpoint tags (CSIM v1). Tag 1 belonged to a retired
/// integrator and stays unused, so restore rejects it.
enum class IntegratorKind { VelocityVerlet = 0, LangevinBAOAB = 2 };
enum class ThermostatKind { None, NoseHoover };

struct IntegratorParams {
    IntegratorKind kind = IntegratorKind::LangevinBAOAB;
    double dt = 0.01;

    // Thermostat settings (ignored for LangevinBAOAB, which thermostats
    // itself through the friction term).
    ThermostatKind thermostat = ThermostatKind::None;
    double temperature = 1.0; ///< target T in reduced units
    double tauT = 0.5;        ///< thermostat coupling time

    // Langevin friction (gamma, inverse time units).
    double friction = 0.5;
};

/// Kinetic energy sum(0.5 m v^2).
double kineticEnergy(const Topology& top, const State& state);

/// Instantaneous temperature 2K / Nf in kB = 1 units, with
/// Nf = 3N - removedDof. Use the default (3, COM momentum removed) for
/// NVE/thermostatted dynamics started from assignVelocities; pass 0 for
/// Langevin dynamics, whose noise re-injects COM motion.
double instantaneousTemperature(const Topology& top, const State& state,
                                int removedDof = 3);

/// Removes the center-of-mass momentum.
void removeCenterOfMassMotion(const Topology& top, State& state);

/// Assigns Maxwell-Boltzmann velocities at temperature T and removes COM
/// drift.
void assignVelocities(const Topology& top, State& state, double temperature,
                      Rng& rng);

class Integrator {
public:
    Integrator(ForceField& ff, IntegratorParams params, Rng rng);

    /// Advances `state` by n steps, keeping state.forces consistent with
    /// state.positions on exit. Accumulates energies of the last step.
    void run(State& state, std::int64_t nSteps);

    /// Energies from the most recent force evaluation.
    const Energies& lastEnergies() const { return lastEnergies_; }

    const IntegratorParams& params() const { return params_; }
    Rng& rng() { return rng_; }

    /// Conserved quantity for NVE / Nosé-Hoover runs: E_kin + E_pot
    /// (+ thermostat terms). Used by drift tests.
    double conservedQuantity(const State& state) const;

private:
    void stepVelocityVerlet(State& state);
    void stepLangevinBAOAB(State& state);
    void applyNoseHooverHalf(State& state, double halfDt);

    ForceField& ff_;
    IntegratorParams params_;
    Rng rng_;
    /// Per-step constants, fixed by the parameters and the masses:
    /// 0.5 dt / m per atom (the half kick), the BAOAB friction decay
    /// c1 = exp(-gamma dt), and sqrt(T / m) * sqrt(1 - c1^2) per atom
    /// (the O step's noise amplitude).
    std::vector<double> halfDtOverM_;
    double c1_ = 0.0;
    std::vector<double> noiseSigma_;
    Energies lastEnergies_;
    bool forcesValid_ = false;
};

} // namespace cop::md
