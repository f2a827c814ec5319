#include "core/command.hpp"

namespace cop::core {

void CommandSpec::serialize(BinaryWriter& w) const {
    w.writeHeader("CCMD", 1);
    w.write(id);
    w.write(projectId);
    w.write(std::int32_t(projectServer));
    w.write(executable);
    w.write(steps);
    w.write(std::int32_t(preferredCores));
    w.write(std::int32_t(priority));
    w.write(std::int32_t(trajectoryId));
    w.write(std::int32_t(generation));
    w.writeBytes(input);
}

CommandSpec CommandSpec::deserialize(BinaryReader& r) {
    const auto version = r.readHeader("CCMD");
    COP_IO_CHECK(version == 1, "unsupported command version");
    CommandSpec c;
    c.id = r.read<std::uint64_t>();
    c.projectId = r.read<std::uint64_t>();
    c.projectServer = r.read<std::int32_t>();
    c.executable = r.readString();
    c.steps = r.read<std::int64_t>();
    c.preferredCores = r.read<std::int32_t>();
    c.priority = r.read<std::int32_t>();
    c.trajectoryId = r.read<std::int32_t>();
    c.generation = r.read<std::int32_t>();
    c.input = r.readBytes();
    return c;
}

void CommandResult::serialize(BinaryWriter& w) const {
    w.writeHeader("CRES", 1);
    w.write(commandId);
    w.write(projectId);
    w.write(std::int32_t(trajectoryId));
    w.write(std::int32_t(generation));
    w.write(std::uint8_t(success));
    w.write(error);
    w.writeBytes(output);
    w.write(simSeconds);
}

CommandResult CommandResult::deserialize(BinaryReader& r) {
    const auto version = r.readHeader("CRES");
    COP_IO_CHECK(version == 1, "unsupported result version");
    CommandResult c;
    c.commandId = r.read<std::uint64_t>();
    c.projectId = r.read<std::uint64_t>();
    c.trajectoryId = r.read<std::int32_t>();
    c.generation = r.read<std::int32_t>();
    c.success = r.read<std::uint8_t>() != 0;
    c.error = r.readString();
    c.output = r.readBytes();
    c.simSeconds = r.read<double>();
    return c;
}

} // namespace cop::core
