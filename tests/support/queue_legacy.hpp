#pragma once

/// \file queue_legacy.hpp
/// The original linear-scan command queue, preserved verbatim as a
/// reference implementation. It exists for two consumers only:
///   - the scheduler equivalence tests, which replay randomized
///     push/claim/complete/requeue traces against both implementations
///     and require identical assignment order, and
///   - bench/micro_sched, which measures both flavors in the same binary
///     so the speedup numbers in BENCH_micro_sched.json are honest.
/// Production code must use CommandQueue (core/queue.hpp); the class
/// lives in the cop_test_support library, outside cop_core.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "core/command.hpp"

namespace cop::core {

class LegacyCommandQueue {
public:
    /// Adds a command to the queue via a linear priority-slot scan.
    void push(CommandSpec cmd);

    std::size_t pendingCount() const { return pending_.size(); }
    std::size_t inFlightCount() const { return inFlight_.size(); }
    bool empty() const { return pending_.empty(); }

    /// O(pending x executables) scan.
    bool hasWorkFor(const std::vector<std::string>& executables) const;

    /// First-fit scan over the whole pending deque.
    std::vector<CommandSpec> claim(const std::vector<std::string>& executables,
                                   int maxCores, net::NodeId worker);

    std::optional<CommandSpec> complete(CommandId id);
    std::vector<CommandId> requeueWorker(net::NodeId worker);
    bool requeueCommand(CommandId id);

    /// Deep-copies the checkpoint into the in-flight record (the
    /// pre-SharedBytes data plane).
    void updateCheckpoint(CommandId id, std::vector<std::uint8_t> checkpoint);

    std::optional<net::NodeId> holderOf(CommandId id) const;

private:
    struct InFlight {
        CommandSpec spec;
        net::NodeId worker;
    };
    std::deque<CommandSpec> pending_;
    std::map<CommandId, InFlight> inFlight_;
};

} // namespace cop::core
