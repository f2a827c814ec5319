#pragma once

/// \file trajectory.hpp
/// In-memory trajectory store with binary (de)serialization — the engine's
/// equivalent of Gromacs' .xtc output. The paper saved villin coordinates
/// every 50 ps giving 1000 frames per 50 ns trajectory; our Simulation
/// records frames at a configurable step interval.

#include <cstdint>
#include <vector>

#include "util/serialize.hpp"
#include "util/vec3.hpp"

namespace cop::md {

struct Frame {
    std::int64_t step = 0;
    double time = 0.0;
    std::vector<Vec3> positions;
};

class Trajectory {
public:
    void append(Frame frame);
    void append(std::int64_t step, double time, std::vector<Vec3> positions);

    std::size_t numFrames() const { return frames_.size(); }
    bool empty() const { return frames_.empty(); }
    const Frame& frame(std::size_t i) const;
    const Frame& back() const;
    const std::vector<Frame>& frames() const { return frames_; }

    /// Appends all frames of `other` (used when a command extends a
    /// trajectory by another segment).
    void extend(const Trajectory& other);

    void clear() { frames_.clear(); }

    void serialize(BinaryWriter& w) const;
    static Trajectory deserialize(BinaryReader& r);

private:
    std::vector<Frame> frames_;
};

} // namespace cop::md
