#include "support/fe_oracles.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace cop::fe {

namespace {

double logistic(double x) { return 1.0 / (1.0 + std::exp(x)); }

} // namespace

BarResult barFixedPointOracle(const std::vector<double>& forwardWork,
                              const std::vector<double>& reverseWork,
                              const BarParams& params) {
    COP_REQUIRE(!forwardWork.empty() && !reverseWork.empty(),
                "BAR needs samples in both directions");
    COP_REQUIRE(params.beta > 0.0, "beta must be positive");
    const double beta = params.beta;
    const auto nF = double(forwardWork.size());
    const auto nR = double(reverseWork.size());
    const double m = std::log(nF / nR) / beta;

    // Initial guess from the two one-sided estimates: the forward FEP
    // gives F1-F0 directly; the reverse FEP (sampled in state 1) gives
    // F0-F1, so its sign flips.
    const double dfFwd = exponentialAveraging(forwardWork, beta);
    const double dfRev = -exponentialAveraging(reverseWork, beta);
    double df = 0.5 * (dfFwd + dfRev);

    BarResult result;
    // Self-consistent iteration on the BAR identity:
    //   sum_F f(beta (M + W_F - dF)) = sum_R f(beta (-M + W_R + dF))
    // where f is the Fermi function; the update below is the standard
    // logarithmic fixed point, which converges monotonically.
    for (int it = 0; it < params.maxIterations; ++it) {
        double sumF = 0.0;
        for (double w : forwardWork) sumF += logistic(beta * (m + w - df));
        double sumR = 0.0;
        for (double w : reverseWork) sumR += logistic(beta * (-m + w + df));
        // Guard against vanishing overlap.
        if (sumF <= 0.0 || sumR <= 0.0)
            throw NumericalError("BAR: no phase-space overlap");
        const double delta = std::log(sumR / sumF) / beta;
        df += delta;
        result.iterations = it + 1;
        if (std::abs(delta) < params.tolerance) {
            result.converged = true;
            break;
        }
    }
    result.deltaF = df;

    // Bennett's asymptotic variance: with x = beta(M + W - dF) in the
    // forward set and the matching expression in the reverse set,
    // var = [ <f^2>/<f>^2 - 1 ]_F / nF + [ <f^2>/<f>^2 - 1 ]_R / nR
    // in units of 1/beta^2.
    // Forward term: f(beta(M + W_F - dF)); reverse term: f(beta(-M + W_R + dF)).
    double vF = 0.0, vR = 0.0;
    {
        double sf = 0.0, sf2 = 0.0;
        for (double w : forwardWork) {
            const double f = logistic(beta * (m + w - df));
            sf += f;
            sf2 += f * f;
        }
        const double mf = sf / nF, mf2 = sf2 / nF;
        if (mf > 0.0) vF = (mf2 / (mf * mf) - 1.0) / nF;
    }
    {
        double sf = 0.0, sf2 = 0.0;
        for (double w : reverseWork) {
            const double f = logistic(beta * (-m + w + df));
            sf += f;
            sf2 += f * f;
        }
        const double mf = sf / nR, mf2 = sf2 / nR;
        if (mf > 0.0) vR = (mf2 / (mf * mf) - 1.0) / nR;
    }
    result.standardError = std::sqrt(std::max(0.0, vF + vR)) / beta;
    return result;
}

} // namespace cop::fe
