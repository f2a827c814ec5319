#pragma once

/// \file bar_controller.hpp
/// Bennett-acceptance-ratio free-energy controller — the second plugin the
/// paper ships with Copernicus (§5). Manages a chain of lambda windows,
/// farms out sampling commands, and keeps sampling — allocating new
/// commands to the windows with the largest error contribution — until the
/// total standard error reaches a user-specified target (the stop
/// criterion described in §2).

#include <optional>
#include <vector>

#include "core/controller.hpp"
#include "fe/bar.hpp"
#include "fe/harmonic.hpp"
#include "util/random.hpp"

namespace cop::core {

struct BarControllerParams {
    fe::HarmonicState first{1.0, 0.0};
    fe::HarmonicState last{4.0, 1.0};
    std::size_t numWindows = 4;
    std::size_t samplesPerCommand = 2000;
    double beta = 1.0;
    /// Stop when the total deltaF standard error drops below this.
    double targetError = 0.02;
    int maxRounds = 25;
    /// New sampling commands issued per refinement round.
    int commandsPerRound = 8;
    std::uint64_t seed = 1976; // Bennett's year
};

class BarController : public Controller {
public:
    explicit BarController(BarControllerParams params);

    void onProjectStart(ProjectContext& ctx) override;
    void onCommandFinished(ProjectContext& ctx,
                           const CommandResult& result) override;
    /// Resubmits the failed window command unchanged (same seed), so a
    /// round never loses a command and refinement still runs.
    void onCommandFailed(ProjectContext& ctx,
                         const CommandSpec& spec) override;
    bool isDone(const ProjectContext& ctx) const override;
    std::string statusReport(const ProjectContext& ctx) const override;

    /// Latest chain estimate (empty before the first round completes).
    const std::optional<fe::LambdaChainResult>& estimate() const {
        return estimate_;
    }
    int rounds() const { return rounds_; }
    /// Exact analytic result for the configured chain (for validation).
    double analyticDeltaF() const;

private:
    void submitWindowCommand(ProjectContext& ctx, std::size_t window,
                             bool forward);
    void refine(ProjectContext& ctx);

    BarControllerParams params_;
    std::vector<fe::HarmonicState> states_;
    std::vector<std::vector<double>> forwardWork_;
    std::vector<std::vector<double>> reverseWork_;
    std::optional<fe::LambdaChainResult> estimate_;
    Rng rng_;
    int rounds_ = 0;
    bool done_ = false;
};

} // namespace cop::core
