#include "mdlib/trajectory.hpp"

#include "util/error.hpp"

namespace cop::md {

void Trajectory::append(Frame frame) {
    COP_REQUIRE(!frame.positions.empty(), "frame without positions");
    if (!frames_.empty())
        COP_REQUIRE(frame.positions.size() == frames_.front().positions.size(),
                    "frame size mismatch");
    frames_.push_back(std::move(frame));
}

void Trajectory::append(std::int64_t step, double time,
                        std::vector<Vec3> positions) {
    append(Frame{step, time, std::move(positions)});
}

const Frame& Trajectory::frame(std::size_t i) const {
    COP_REQUIRE(i < frames_.size(), "frame index out of range");
    return frames_[i];
}

const Frame& Trajectory::back() const {
    COP_REQUIRE(!frames_.empty(), "empty trajectory");
    return frames_.back();
}

void Trajectory::extend(const Trajectory& other) {
    for (const auto& f : other.frames_) append(f);
}

void Trajectory::serialize(BinaryWriter& w) const {
    w.writeHeader("CTRJ", 1);
    w.write(std::uint64_t(frames_.size()));
    for (const auto& f : frames_) {
        w.write(f.step);
        w.write(f.time);
        w.write(f.positions);
    }
}

Trajectory Trajectory::deserialize(BinaryReader& r) {
    const auto version = r.readHeader("CTRJ");
    COP_IO_CHECK(version == 1, "unsupported trajectory version");
    Trajectory t;
    const auto n = r.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
        Frame f;
        f.step = r.read<std::int64_t>();
        f.time = r.read<double>();
        f.positions = r.readVec3Vector();
        t.append(std::move(f));
    }
    return t;
}

} // namespace cop::md
