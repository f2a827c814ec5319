#include "support/queue_legacy.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace cop::core {

void LegacyCommandQueue::push(CommandSpec cmd) {
    COP_REQUIRE(cmd.id != 0, "command needs an id");
    COP_REQUIRE(cmd.preferredCores >= 1, "command needs >= 1 core");
    // Keep the queue ordered by priority (descending), FIFO within a
    // priority level: insert before the first lower-priority command.
    auto it = pending_.begin();
    while (it != pending_.end() && it->priority >= cmd.priority) ++it;
    pending_.insert(it, std::move(cmd));
}

bool LegacyCommandQueue::hasWorkFor(
    const std::vector<std::string>& executables) const {
    for (const auto& cmd : pending_)
        if (std::find(executables.begin(), executables.end(),
                      cmd.executable) != executables.end())
            return true;
    return false;
}

std::vector<CommandSpec> LegacyCommandQueue::claim(
    const std::vector<std::string>& executables, int maxCores,
    net::NodeId worker) {
    std::vector<CommandSpec> claimed;
    int coresLeft = maxCores;
    for (auto it = pending_.begin(); it != pending_.end() && coresLeft > 0;) {
        const bool runnable =
            std::find(executables.begin(), executables.end(),
                      it->executable) != executables.end();
        if (runnable && it->preferredCores <= coresLeft) {
            coresLeft -= it->preferredCores;
            inFlight_[it->id] = InFlight{*it, worker};
            claimed.push_back(std::move(*it));
            it = pending_.erase(it);
        } else {
            ++it;
        }
    }
    return claimed;
}

std::optional<CommandSpec> LegacyCommandQueue::complete(CommandId id) {
    auto it = inFlight_.find(id);
    if (it == inFlight_.end()) return std::nullopt;
    CommandSpec spec = std::move(it->second.spec);
    inFlight_.erase(it);
    return spec;
}

std::vector<CommandId> LegacyCommandQueue::requeueWorker(net::NodeId worker) {
    std::vector<CommandId> requeued;
    for (auto it = inFlight_.begin(); it != inFlight_.end();) {
        if (it->second.worker == worker) {
            requeued.push_back(it->first);
            // Requeued commands go to the head of their priority level so
            // recovery work is not starved by newly submitted commands.
            auto pos = pending_.begin();
            while (pos != pending_.end() &&
                   pos->priority > it->second.spec.priority)
                ++pos;
            pending_.insert(pos, std::move(it->second.spec));
            it = inFlight_.erase(it);
        } else {
            ++it;
        }
    }
    return requeued;
}

bool LegacyCommandQueue::requeueCommand(CommandId id) {
    auto it = inFlight_.find(id);
    if (it == inFlight_.end()) return false;
    auto pos = pending_.begin();
    while (pos != pending_.end() && pos->priority > it->second.spec.priority)
        ++pos;
    pending_.insert(pos, std::move(it->second.spec));
    inFlight_.erase(it);
    return true;
}

void LegacyCommandQueue::updateCheckpoint(
    CommandId id, std::vector<std::uint8_t> checkpoint) {
    auto it = inFlight_.find(id);
    if (it != inFlight_.end())
        it->second.spec.input = std::move(checkpoint);
}

std::optional<net::NodeId> LegacyCommandQueue::holderOf(CommandId id) const {
    auto it = inFlight_.find(id);
    if (it == inFlight_.end()) return std::nullopt;
    return it->second.worker;
}

} // namespace cop::core
