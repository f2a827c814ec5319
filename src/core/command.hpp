#pragma once

/// \file command.hpp
/// The unit of work in Copernicus (paper §2): a single (possibly massively
/// parallel) simulation segment. Commands carry their full input payload
/// (checkpoint or starting structure) so any worker on any cluster can run
/// them; results carry the produced trajectory segment plus the final
/// checkpoint so the next segment can continue bit-exactly elsewhere.

#include <cstdint>
#include <string>
#include <vector>

#include "core/shared_bytes.hpp"
#include "net/message.hpp"
#include "util/serialize.hpp"

namespace cop::core {

using CommandId = std::uint64_t;
using ProjectId = std::uint64_t;

struct CommandSpec {
    CommandId id = 0;
    ProjectId projectId = 0;
    net::NodeId projectServer = net::kInvalidNode;
    std::string executable;   ///< e.g. "mdrun", "fe_sample"
    std::int64_t steps = 0;   ///< segment length in integrator steps
    int preferredCores = 1;   ///< cores this command wants (paper §2.3)
    int priority = 0;         ///< higher runs first (paper §2.2: encoded
                              ///< routing priority = run priority)
    int trajectoryId = -1;    ///< application-level stream this extends
    int generation = 0;       ///< MSM generation that spawned it
    SharedBytes input; ///< checkpoint / starting structure (shared, COW)

    void serialize(BinaryWriter& w) const;
    static CommandSpec deserialize(BinaryReader& r);
};

struct CommandResult {
    CommandId commandId = 0;
    ProjectId projectId = 0;
    int trajectoryId = -1;
    int generation = 0;
    bool success = false;
    std::string error;
    std::vector<std::uint8_t> output; ///< trajectory segment + checkpoint
    double simSeconds = 0.0;          ///< execution duration (virtual time)

    void serialize(BinaryWriter& w) const;
    static CommandResult deserialize(BinaryReader& r);
};

} // namespace cop::core
