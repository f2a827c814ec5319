#include "core/bar_controller.hpp"

#include <algorithm>
#include <sstream>

#include "core/backends.hpp"
#include "util/error.hpp"

namespace cop::core {

BarController::BarController(BarControllerParams params)
    : params_(params), rng_(params.seed) {
    COP_REQUIRE(params_.numWindows >= 1, "need at least one window");
    COP_REQUIRE(params_.samplesPerCommand >= 10, "too few samples");
    COP_REQUIRE(params_.targetError > 0.0, "target error must be positive");
    states_ = fe::harmonicLambdaChain(params_.first, params_.last,
                                      params_.numWindows);
    forwardWork_.assign(params_.numWindows, {});
    reverseWork_.assign(params_.numWindows, {});
}

double BarController::analyticDeltaF() const {
    return fe::harmonicDeltaF(params_.first, params_.last, params_.beta);
}

void BarController::submitWindowCommand(ProjectContext& ctx,
                                        std::size_t window, bool forward) {
    FeSampleInput in;
    in.sampled = forward ? states_[window] : states_[window + 1];
    in.target = forward ? states_[window + 1] : states_[window];
    in.samples = params_.samplesPerCommand;
    in.beta = params_.beta;
    in.seed = rng_.next();

    CommandSpec spec;
    spec.executable = "fe_sample";
    spec.steps = std::int64_t(params_.samplesPerCommand);
    spec.preferredCores = 1;
    // trajectoryId encodes (window, direction) so results route back.
    spec.trajectoryId = int(window) * 2 + (forward ? 0 : 1);
    spec.generation = rounds_;
    spec.input = in.encode();
    ctx.submitCommand(std::move(spec));
}

void BarController::onProjectStart(ProjectContext& ctx) {
    for (std::size_t w = 0; w < params_.numWindows; ++w) {
        submitWindowCommand(ctx, w, true);
        submitWindowCommand(ctx, w, false);
    }
}

void BarController::onCommandFinished(ProjectContext& ctx,
                                      const CommandResult& result) {
    if (done_) return;
    BinaryReader r(result.output);
    const auto work = r.readVector<double>();
    const auto window = std::size_t(result.trajectoryId / 2);
    const bool forward = result.trajectoryId % 2 == 0;
    COP_IO_CHECK(window < params_.numWindows, "bad window id");
    auto& bucket = forward ? forwardWork_[window] : reverseWork_[window];
    bucket.insert(bucket.end(), work.begin(), work.end());

    if (ctx.outstandingCommands() == 0) refine(ctx);
}

void BarController::onCommandFailed(ProjectContext& ctx,
                                    const CommandSpec& spec) {
    if (done_) return;
    CommandSpec again = spec;
    again.id = 0;
    ctx.submitCommand(std::move(again));
}

void BarController::refine(ProjectContext& ctx) {
    ++rounds_;
    // Each window warm-starts from its previous round's deltaF.
    estimate_ = fe::barChain(forwardWork_, reverseWork_,
                             fe::BarParams{params_.beta, 1e-10, 200},
                             estimate_);
    if (estimate_->totalError <= params_.targetError ||
        rounds_ >= params_.maxRounds) {
        done_ = true;
        return;
    }
    // Allocate the next round's commands to windows proportionally to
    // their variance contribution — the same adaptive-resource idea the
    // MSM controller applies to microstates.
    std::vector<double> var(params_.numWindows, 0.0);
    double total = 0.0;
    for (std::size_t w = 0; w < params_.numWindows; ++w) {
        var[w] = estimate_->windows[w].standardError *
                 estimate_->windows[w].standardError;
        total += var[w];
    }
    int submitted = 0;
    if (total > 0.0) {
        for (std::size_t w = 0; w < params_.numWindows && submitted <
             params_.commandsPerRound; ++w) {
            const int n = std::max(
                0, int(params_.commandsPerRound * var[w] / total + 0.5));
            for (int i = 0; i < n && submitted < params_.commandsPerRound;
                 ++i, ++submitted) {
                // Alternate directions so both stay balanced.
                submitWindowCommand(ctx, w, (i % 2) == 0);
            }
        }
    }
    // Guarantee progress even if rounding assigned nothing.
    while (submitted < std::max(2, params_.commandsPerRound / 4)) {
        const std::size_t w =
            std::max_element(var.begin(), var.end()) - var.begin();
        submitWindowCommand(ctx, w, (submitted % 2) == 0);
        ++submitted;
    }
}

bool BarController::isDone(const ProjectContext& ctx) const {
    (void)ctx;
    return done_;
}

std::string BarController::statusReport(const ProjectContext& ctx) const {
    std::ostringstream oss;
    oss << "round " << rounds_ << ", " << ctx.outstandingCommands()
        << " commands outstanding";
    if (estimate_)
        oss << ", deltaF = " << estimate_->totalDeltaF << " +/- "
            << estimate_->totalError << " (exact " << analyticDeltaF()
            << ")";
    return oss.str();
}

} // namespace cop::core
