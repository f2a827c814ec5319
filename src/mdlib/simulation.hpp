#pragma once

/// \file simulation.hpp
/// High-level simulation driver — the unit of work a Copernicus command
/// executes. Owns topology, force field, integrator and trajectory, and can
/// checkpoint/restore its full state so a failed worker's command can be
/// transparently continued elsewhere (paper §2.3).

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mdlib/forcefield.hpp"
#include "mdlib/gomodel.hpp"
#include "mdlib/integrators.hpp"
#include "mdlib/state.hpp"
#include "mdlib/trajectory.hpp"

namespace cop::md {

struct SimulationConfig {
    IntegratorParams integrator;
    /// Steps between recorded trajectory frames (paper: 50 ps -> 50 steps
    /// in our mapping).
    std::int64_t sampleInterval = 50;
    /// RNG seed for velocities and stochastic dynamics.
    std::uint64_t seed = 1;
};

class Simulation {
public:
    /// Generic constructor.
    Simulation(Topology topology, Box box, ForceFieldParams ffParams,
               SimulationConfig config, std::vector<Vec3> initialPositions);

    /// Convenience: Gō-model simulation in vacuum starting from `start`.
    static Simulation forGoModel(const GoModel& model,
                                 std::vector<Vec3> start,
                                 SimulationConfig config);

    /// Draws Maxwell-Boltzmann velocities at the integrator temperature.
    void initializeVelocities();

    /// Advances `nSteps`, recording a frame every sampleInterval steps
    /// (and one at the very start of the run if the trajectory is empty).
    void run(std::int64_t nSteps);

    const State& state() const { return state_; }
    State& mutableState() { return state_; }
    const Trajectory& trajectory() const { return trajectory_; }

    /// Moves the recorded trajectory out, leaving this simulation with an
    /// empty one (so the next checkpoint does not duplicate frames already
    /// shipped to the server).
    Trajectory takeTrajectory() {
        Trajectory t = std::move(trajectory_);
        trajectory_.clear();
        return t;
    }
    const Topology& topology() const { return *topology_; }
    const Energies& lastEnergies() const { return integrator_->lastEnergies(); }
    double temperature() const {
        // Langevin noise drives all 3N degrees of freedom; the other
        // integrators conserve (removed) COM momentum.
        const int removedDof =
            config_.integrator.kind == IntegratorKind::LangevinBAOAB ? 0 : 3;
        return instantaneousTemperature(*topology_, state_, removedDof);
    }

    /// Serializes everything needed to continue this run bit-exactly.
    std::vector<std::uint8_t> checkpoint() const;

    /// Reconstructs a simulation from a checkpoint blob.
    static Simulation restore(std::span<const std::uint8_t> blob);

private:
    // Topology lives behind a unique_ptr so its address is stable when a
    // Simulation is moved (ForceField keeps a reference to it).
    std::unique_ptr<Topology> topology_;
    Box box_;
    ForceFieldParams ffParams_;
    SimulationConfig config_;
    std::unique_ptr<ForceField> forceField_;
    std::unique_ptr<Integrator> integrator_;
    State state_;
    Trajectory trajectory_;
};

} // namespace cop::md
