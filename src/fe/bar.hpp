#pragma once

/// \file bar.hpp
/// Bennett Acceptance Ratio free-energy estimation. The paper (§5) lists a
/// BAR free-energy-perturbation controller as the second plugin shipped
/// with Copernicus; this module provides the estimator the plugin drives.
///
/// Conventions: reduced units with kB T = 1/beta; work values are energy
/// differences U_target - U_sampled evaluated on configurations drawn in
/// the sampled state.

#include <cstddef>
#include <optional>
#include <vector>

namespace cop::fe {

struct BarResult {
    double deltaF = 0.0;       ///< free energy F1 - F0 (units of kT if beta=1)
    double standardError = 0.0;///< asymptotic standard error
    int iterations = 0;        ///< solve passes over the samples
    bool converged = false;
};

struct BarParams {
    double beta = 1.0;
    double tolerance = 1e-10;
    int maxIterations = 200;
};

/// Bennett acceptance ratio from forward work samples (drawn in state 0:
/// W = U1 - U0) and reverse work samples (drawn in state 1: W = U0 - U1).
/// Solves the implicit BAR equation by Newton's method and reports the
/// asymptotic variance estimate of Bennett (1976).
///
/// The solve starts from `initialDeltaF` when given (a warm start, e.g.
/// the previous estimate of a window that has since gained samples);
/// otherwise from the mean of the two one-sided FEP estimates, which
/// costs one extra pass. Each solve pass evaluates the Fermi function
/// once per sample and yields both the Newton step and, on the last
/// pass, the variance; `iterations` counts these passes. A pass whose
/// slope is too flat for a safe Newton step takes Bennett's fixed-point
/// step instead. Throws NumericalError when the two sides do not overlap.
BarResult bar(const std::vector<double>& forwardWork,
              const std::vector<double>& reverseWork,
              const BarParams& params = {},
              std::optional<double> initialDeltaF = std::nullopt);

/// Zwanzig exponential averaging (one-sided FEP):
/// deltaF = -1/beta * ln < exp(-beta W) >.
double exponentialAveraging(const std::vector<double>& work,
                            double beta = 1.0);

/// Free energy along a chain of lambda windows: sums per-window BAR
/// results; errors add in quadrature. Given the previous estimate of the
/// same chain, each window warm-starts from its previous deltaF.
struct LambdaChainResult {
    std::vector<BarResult> windows;
    double totalDeltaF = 0.0;
    double totalError = 0.0;
};
LambdaChainResult barChain(
    const std::vector<std::vector<double>>& forwardWorkPerWindow,
    const std::vector<std::vector<double>>& reverseWorkPerWindow,
    const BarParams& params = {},
    const std::optional<LambdaChainResult>& previous = std::nullopt);

} // namespace cop::fe
