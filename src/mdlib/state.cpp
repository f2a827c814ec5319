#include "mdlib/state.hpp"

namespace cop::md {

void State::resize(std::size_t n) {
    positions.resize(n);
    velocities.assign(n, Vec3{});
    forces.assign(n, Vec3{});
}

void State::serialize(BinaryWriter& w) const {
    w.writeHeader("CSTA", 1);
    w.write(positions);
    w.write(velocities);
    w.write(forces);
    w.write(step);
    w.write(time);
    w.write(nhXi);
    w.write(nhEta);
}

State State::deserialize(BinaryReader& r) {
    const auto version = r.readHeader("CSTA");
    COP_IO_CHECK(version == 1, "unsupported state version");
    State s;
    s.positions = r.readVec3Vector();
    s.velocities = r.readVec3Vector();
    s.forces = r.readVec3Vector();
    s.step = r.read<std::int64_t>();
    s.time = r.read<double>();
    s.nhXi = r.read<double>();
    s.nhEta = r.read<double>();
    return s;
}

bool State::operator==(const State& other) const {
    return positions == other.positions && velocities == other.velocities &&
           forces == other.forces && step == other.step &&
           time == other.time && nhXi == other.nhXi && nhEta == other.nhEta;
}

} // namespace cop::md
