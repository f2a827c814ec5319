#pragma once

/// \file controller.hpp
/// Plugin-based project control (paper §2.1): controllers are event
/// handlers installed per project. "All knowledge about how to execute a
/// project and how to interpret the resulting command output is contained
/// in these user-installable modules."

#include <cstdint>
#include <string>

#include "core/command.hpp"
#include "net/event_loop.hpp"

namespace cop::core {

/// Interface the framework hands to controllers for interacting with their
/// project: submitting new commands and reading the clock.
class ProjectContext {
public:
    virtual ~ProjectContext() = default;

    virtual ProjectId projectId() const = 0;
    virtual net::SimTime now() const = 0;

    /// Queues a command. The framework fills in id, projectId and
    /// projectServer; returns the assigned id. Bypasses admission control
    /// (a controller reacting to a finished command must never deadlock
    /// its own project on its quota).
    virtual CommandId submitCommand(CommandSpec spec) = 0;

    /// Outcome of an admission-checked submission.
    struct SubmitResult {
        CommandId id = 0;        ///< 0 when rejected
        bool admitted = true;
        double retryAfter = 0.0; ///< suggested backoff when !admitted
    };

    /// Admission-checked variant of submitCommand: a submission over the
    /// project's pending-depth or byte quota is rejected with a suggested
    /// retry-after instead of being queued. Default forwards to
    /// submitCommand (single-tenant contexts have no quotas).
    virtual SubmitResult trySubmitCommand(CommandSpec spec) {
        return SubmitResult{submitCommand(std::move(spec)), true, 0.0};
    }

    /// Number of commands of this project not yet finished.
    virtual std::size_t outstandingCommands() const = 0;
};

/// Event-handler plugin controlling one project (paper §2.1). Controllers
/// are called when the project starts, when a command finishes or fails,
/// and can declare the project done (e.g. when a standard error target is
/// reached).
class Controller {
public:
    virtual ~Controller() = default;

    virtual void onProjectStart(ProjectContext& ctx) = 0;
    /// `result.output` is untrusted: an implementation that cannot decode
    /// it throws IoError before changing any state, and the server then
    /// calls onCommandFailed for the command instead.
    virtual void onCommandFinished(ProjectContext& ctx,
                                   const CommandResult& result) = 0;
    /// Default: resubmit nothing; concrete controllers may respawn.
    virtual void onCommandFailed(ProjectContext& ctx,
                                 const CommandSpec& spec);
    virtual bool isDone(const ProjectContext& ctx) const = 0;

    /// Human-readable progress line for the monitoring client.
    virtual std::string statusReport(const ProjectContext& ctx) const;

    /// Handles a control command from a client (paper §3.2: "future
    /// versions will allow the values to be changed dynamically"). The
    /// default accepts nothing. Returns a human-readable reply.
    virtual std::string handleClientCommand(ProjectContext& ctx,
                                            const std::string& command);
};

} // namespace cop::core
