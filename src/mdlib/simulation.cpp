#include "mdlib/simulation.hpp"

#include <cmath>

#include "util/error.hpp"

namespace cop::md {

namespace {

void serializeFFParams(BinaryWriter& w, const ForceFieldParams& p) {
    w.write(std::int32_t(p.kind));
    w.write(std::int32_t(p.flavor));
    w.write(p.cutoff);
    w.write(p.neighborSkin);
    w.write(p.repEpsilon);
    w.write(p.repSigma);
    w.write(p.ljEpsilon);
    w.write(p.ljSigma);
    w.write(std::uint8_t(p.shiftLJ));
    w.write(std::uint8_t(p.useCoulombRF));
    w.write(p.coulombPrefactor);
    w.write(p.rfDielectric);
}

/// Reads an int32 enum tag and rejects values outside [0, last]: a
/// checkpoint is untrusted bytes, and an out-of-range kind would fall
/// through every dispatch on it (an integrator that never moves a bead,
/// or the Scalar kernels in place of Soa).
template <typename E>
E readEnum(BinaryReader& r, E last, const char* what) {
    const auto v = r.read<std::int32_t>();
    COP_IO_CHECK(v >= 0 && v <= std::int32_t(last), what);
    return E(v);
}

ForceFieldParams deserializeFFParams(BinaryReader& r) {
    ForceFieldParams p;
    p.kind = readEnum(r, NonbondedKind::LennardJonesRF,
                      "checkpoint nonbonded kind out of range");
    p.flavor = readEnum(r, KernelFlavor::SimdAuto,
                        "checkpoint kernel flavor out of range");
    p.cutoff = r.read<double>();
    p.neighborSkin = r.read<double>();
    p.repEpsilon = r.read<double>();
    p.repSigma = r.read<double>();
    p.ljEpsilon = r.read<double>();
    p.ljSigma = r.read<double>();
    p.shiftLJ = r.read<std::uint8_t>() != 0;
    p.useCoulombRF = r.read<std::uint8_t>() != 0;
    p.coulombPrefactor = r.read<double>();
    p.rfDielectric = r.read<double>();
    return p;
}

void serializeIntegratorParams(BinaryWriter& w, const IntegratorParams& p) {
    w.write(std::int32_t(p.kind));
    w.write(p.dt);
    w.write(std::int32_t(p.thermostat));
    w.write(p.temperature);
    w.write(p.tauT);
    w.write(p.friction);
}

IntegratorParams deserializeIntegratorParams(BinaryReader& r) {
    IntegratorParams p;
    p.kind = readEnum(r, IntegratorKind::LangevinBAOAB,
                      "checkpoint integrator kind out of range");
    COP_IO_CHECK(p.kind == IntegratorKind::VelocityVerlet ||
                     p.kind == IntegratorKind::LangevinBAOAB,
                 "checkpoint integrator kind out of range");
    p.dt = r.read<double>();
    p.thermostat = readEnum(r, ThermostatKind::NoseHoover,
                            "checkpoint thermostat kind out of range");
    p.temperature = r.read<double>();
    p.tauT = r.read<double>();
    p.friction = r.read<double>();
    return p;
}

} // namespace

Simulation::Simulation(Topology topology, Box box, ForceFieldParams ffParams,
                       SimulationConfig config,
                       std::vector<Vec3> initialPositions)
    : topology_(std::make_unique<Topology>(std::move(topology))), box_(box),
      ffParams_(ffParams), config_(config) {
    COP_REQUIRE(initialPositions.size() == topology_->numParticles(),
                "initial positions size mismatch");
    COP_REQUIRE(config_.sampleInterval > 0, "sampleInterval must be > 0");
    topology_->finalize();
    forceField_ = std::make_unique<ForceField>(*topology_, box_, ffParams_);
    state_.resize(topology_->numParticles());
    state_.positions = std::move(initialPositions);
    integrator_ = std::make_unique<Integrator>(*forceField_,
                                               config_.integrator,
                                               Rng(config_.seed));
}

Simulation Simulation::forGoModel(const GoModel& model,
                                  std::vector<Vec3> start,
                                  SimulationConfig config) {
    return Simulation(model.topology, Box::open(), model.forceFieldParams(),
                      config, std::move(start));
}

void Simulation::initializeVelocities() {
    assignVelocities(*topology_, state_, config_.integrator.temperature,
                     integrator_->rng());
}

void Simulation::run(std::int64_t nSteps) {
    COP_REQUIRE(nSteps >= 0, "negative step count");
    if (trajectory_.empty())
        trajectory_.append(state_.step, state_.time, state_.positions);
    std::int64_t done = 0;
    while (done < nSteps) {
        // Advance to the next sampling boundary (aligned to the absolute
        // step count, so segments of any length sample consistently).
        const std::int64_t toBoundary =
            config_.sampleInterval - (state_.step % config_.sampleInterval);
        const std::int64_t chunk = std::min(toBoundary, nSteps - done);
        integrator_->run(state_, chunk);
        done += chunk;
        if (state_.step % config_.sampleInterval == 0)
            trajectory_.append(state_.step, state_.time, state_.positions);
    }
}

std::vector<std::uint8_t> Simulation::checkpoint() const {
    BinaryWriter w;
    w.writeHeader("CSIM", 1);
    topology_->serialize(w);
    w.write(std::uint8_t(box_.periodic));
    w.write(box_.lengths);
    serializeFFParams(w, ffParams_);
    serializeIntegratorParams(w, config_.integrator);
    w.write(config_.sampleInterval);
    w.write(config_.seed);
    state_.serialize(w);
    trajectory_.serialize(w);
    const auto snap = integrator_->rng().snapshot();
    for (auto s : snap.s) w.write(s);
    w.write(std::uint8_t(snap.haveGauss));
    w.write(snap.spareGauss);
    return w.takeBuffer();
}

Simulation Simulation::restore(std::span<const std::uint8_t> blob) {
    BinaryReader r(blob);
    const auto version = r.readHeader("CSIM");
    COP_IO_CHECK(version == 1, "unsupported checkpoint version");
    Topology top = Topology::deserialize(r);
    Box box;
    box.periodic = r.read<std::uint8_t>() != 0;
    box.lengths = r.readVec3();
    const ForceFieldParams ffp = deserializeFFParams(r);
    SimulationConfig config;
    config.integrator = deserializeIntegratorParams(r);
    config.sampleInterval = r.read<std::int64_t>();
    COP_IO_CHECK(config.sampleInterval > 0,
                 "checkpoint sampleInterval must be positive");
    config.seed = r.read<std::uint64_t>();
    State state = State::deserialize(r);
    Trajectory traj = Trajectory::deserialize(r);
    Rng::Snapshot snap{};
    for (auto& s : snap.s) s = r.read<std::uint64_t>();
    snap.haveGauss = r.read<std::uint8_t>() != 0;
    snap.spareGauss = r.read<double>();

    Simulation sim(std::move(top), box, ffp, config, state.positions);
    sim.state_ = std::move(state);
    sim.trajectory_ = std::move(traj);
    sim.integrator_->rng().restore(snap);
    return sim;
}

} // namespace cop::md
