#include "core/backends.hpp"

#include "util/error.hpp"

namespace cop::core {

DurationModel linearDurationModel(double stepSecondsOneCore) {
    COP_REQUIRE(stepSecondsOneCore > 0.0, "step time must be positive");
    return [stepSecondsOneCore](std::int64_t steps, int cores) {
        return double(steps) * stepSecondsOneCore / double(cores);
    };
}

std::vector<std::uint8_t> MdrunOutput::encode() const {
    BinaryWriter w;
    w.writeHeader("MOUT", 1);
    segment.serialize(w);
    w.writeBytes(checkpoint);
    return w.takeBuffer();
}

MdrunOutput MdrunOutput::decode(std::span<const std::uint8_t> data) {
    BinaryReader r(data);
    const auto version = r.readHeader("MOUT");
    COP_IO_CHECK(version == 1, "unsupported mdrun output version");
    MdrunOutput out;
    out.segment = md::Trajectory::deserialize(r);
    out.checkpoint = r.readBytes();
    return out;
}

ExecutableHandler makeMdrunExecutable(DurationModel duration) {
    COP_REQUIRE(duration != nullptr, "mdrun needs a duration model");
    return [duration](const CommandSpec& cmd, int cores) {
        COP_REQUIRE(cmd.steps > 0, "mdrun command needs steps > 0");
        md::Simulation sim = md::Simulation::restore(cmd.input);

        // Commands always start on a segment boundary; a nonzero phase
        // means this is a requeued command resuming from a mid-segment
        // checkpoint (paper §2.3) — run only the remaining steps.
        const std::int64_t phase = sim.state().step % cmd.steps;
        const std::int64_t remaining = cmd.steps - phase;

        Execution exec;
        exec.simSeconds = duration(remaining, cores);

        // Run in quarters, checkpointing between them so the worker can
        // stream restart points to its server (paper §2.3).
        const std::int64_t quarter = remaining / 4;
        std::int64_t done = 0;
        for (int part = 0; part < 3 && quarter > 0; ++part) {
            sim.run(quarter);
            done += quarter;
            exec.checkpoints.emplace_back(0.25 * (part + 1),
                                          sim.checkpoint());
        }
        sim.run(remaining - done);

        MdrunOutput out;
        out.segment = sim.takeTrajectory();
        out.checkpoint = sim.checkpoint();

        exec.result.commandId = cmd.id;
        exec.result.projectId = cmd.projectId;
        exec.result.trajectoryId = cmd.trajectoryId;
        exec.result.generation = cmd.generation;
        exec.result.success = true;
        exec.result.output = out.encode();
        return exec;
    };
}

std::vector<std::uint8_t> FeSampleInput::encode() const {
    BinaryWriter w;
    w.writeHeader("FEIN", 1);
    w.write(sampled.k);
    w.write(sampled.x0);
    w.write(target.k);
    w.write(target.x0);
    w.write(samples);
    w.write(beta);
    w.write(seed);
    return w.takeBuffer();
}

FeSampleInput FeSampleInput::decode(std::span<const std::uint8_t> data) {
    BinaryReader r(data);
    const auto version = r.readHeader("FEIN");
    COP_IO_CHECK(version == 1, "unsupported fe input version");
    FeSampleInput in;
    in.sampled.k = r.read<double>();
    in.sampled.x0 = r.read<double>();
    in.target.k = r.read<double>();
    in.target.x0 = r.read<double>();
    in.samples = r.read<std::uint64_t>();
    in.beta = r.read<double>();
    in.seed = r.read<std::uint64_t>();
    return in;
}

ExecutableHandler makeFeSampleExecutable(DurationModel duration) {
    COP_REQUIRE(duration != nullptr, "fe_sample needs a duration model");
    return [duration](const CommandSpec& cmd, int cores) {
        const auto in = FeSampleInput::decode(cmd.input);
        Rng rng(in.seed);
        const auto work = fe::harmonicWorkSamples(in.sampled, in.target,
                                                  in.samples, in.beta, rng);
        Execution exec;
        exec.simSeconds = duration(std::int64_t(in.samples), cores);
        exec.result.commandId = cmd.id;
        exec.result.projectId = cmd.projectId;
        exec.result.trajectoryId = cmd.trajectoryId;
        exec.result.generation = cmd.generation;
        exec.result.success = true;
        BinaryWriter w;
        w.write(work);
        exec.result.output = w.takeBuffer();
        return exec;
    };
}

ExecutableHandler makeSimulatedExecutable(DurationModel duration,
                                          std::size_t outputBytes) {
    COP_REQUIRE(duration != nullptr, "simulated executable needs a model");
    return [duration, outputBytes](const CommandSpec& cmd, int cores) {
        Execution exec;
        exec.simSeconds = duration(cmd.steps, cores);
        exec.result.commandId = cmd.id;
        exec.result.projectId = cmd.projectId;
        exec.result.trajectoryId = cmd.trajectoryId;
        exec.result.generation = cmd.generation;
        exec.result.success = true;
        exec.result.output.assign(outputBytes, 0);
        return exec;
    };
}

} // namespace cop::core
