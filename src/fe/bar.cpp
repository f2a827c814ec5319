#include "fe/bar.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace cop::fe {

namespace {

double logistic(double x) { return 1.0 / (1.0 + std::exp(x)); }

/// Log-sum-exp of -beta*w over samples, stable.
double logMeanExp(const std::vector<double>& w, double beta) {
    double m = -beta * w[0];
    for (double x : w) m = std::max(m, -beta * x);
    double s = 0.0;
    for (double x : w) s += std::exp(-beta * x - m);
    return m + std::log(s / double(w.size()));
}

/// Sums of the Fermi values f and of f^2 over one direction's samples.
struct FermiSums {
    double f = 0.0;
    double f2 = 0.0;

    void add(double x) {
        const double v = logistic(x);
        f += v;
        f2 += v * v;
    }
    /// 1 - <f^2>/<f>, the share of this direction in the Newton slope.
    double slope() const { return 1.0 - f2 / f; }
    /// Bennett's variance term (<f^2>/<f>^2 - 1) / n over n samples.
    double variance(double n) const {
        const double mf = f / n, mf2 = f2 / n;
        return (mf2 / (mf * mf) - 1.0) / n;
    }
};

/// Below this slope the Newton step would exceed four fixed-point steps;
/// take the fixed-point step instead. The slope never exceeds 2.
constexpr double kMinNewtonSlope = 0.25;

} // namespace

double exponentialAveraging(const std::vector<double>& work, double beta) {
    COP_REQUIRE(!work.empty(), "no work samples");
    COP_REQUIRE(beta > 0.0, "beta must be positive");
    return -logMeanExp(work, beta) / beta;
}

BarResult bar(const std::vector<double>& forwardWork,
              const std::vector<double>& reverseWork,
              const BarParams& params, std::optional<double> initialDeltaF) {
    COP_REQUIRE(!forwardWork.empty() && !reverseWork.empty(),
                "BAR needs samples in both directions");
    COP_REQUIRE(params.beta > 0.0, "beta must be positive");
    COP_REQUIRE(params.maxIterations >= 1, "BAR needs at least one pass");
    const double beta = params.beta;
    const auto nF = double(forwardWork.size());
    const auto nR = double(reverseWork.size());
    const double m = std::log(nF / nR) / beta;

    // A cold start begins from the two one-sided estimates: the forward
    // FEP gives F1-F0 directly; the reverse FEP (sampled in state 1) gives
    // F0-F1, so its sign flips.
    double df = initialDeltaF
                    ? *initialDeltaF
                    : 0.5 * (exponentialAveraging(forwardWork, beta) -
                             exponentialAveraging(reverseWork, beta));

    // Newton on the BAR identity g(dF) = ln S_R - ln S_F = 0, where
    //   S_F = sum_F f(beta (M + W_F - dF)),
    //   S_R = sum_R f(beta (-M + W_R + dF))
    // and f is the Fermi function. Since f' = -f(1 - f), the slope is
    // g' = -beta s with s = (1 - S_F2/S_F) + (1 - S_R2/S_R), S2 the sums
    // of f^2, so each pass yields the step ln(S_R/S_F) / (beta s). s = 1
    // is Bennett's logarithmic fixed point.
    BarResult result;
    FermiSums sumF, sumR;
    for (int it = 0; it < params.maxIterations; ++it) {
        sumF = {};
        for (double w : forwardWork) sumF.add(beta * (m + w - df));
        sumR = {};
        for (double w : reverseWork) sumR.add(beta * (-m + w + df));
        // Guard against vanishing overlap.
        if (sumF.f <= 0.0 || sumR.f <= 0.0)
            throw NumericalError("BAR: no phase-space overlap");
        double s = sumF.slope() + sumR.slope();
        if (s < kMinNewtonSlope) s = 1.0;
        const double delta = std::log(sumR.f / sumF.f) / (beta * s);
        df += delta;
        result.iterations = it + 1;
        if (std::abs(delta) < params.tolerance) {
            result.converged = true;
            break;
        }
    }
    result.deltaF = df;

    // Bennett's asymptotic variance, in units of 1/beta^2:
    //   var = [ <f^2>/<f>^2 - 1 ]_F / nF + [ <f^2>/<f>^2 - 1 ]_R / nR.
    // The last pass's sums serve: they were taken at a dF within the
    // tolerance of the final one.
    result.standardError =
        std::sqrt(std::max(0.0, sumF.variance(nF) + sumR.variance(nR))) / beta;
    return result;
}

LambdaChainResult barChain(
    const std::vector<std::vector<double>>& forwardWorkPerWindow,
    const std::vector<std::vector<double>>& reverseWorkPerWindow,
    const BarParams& params,
    const std::optional<LambdaChainResult>& previous) {
    COP_REQUIRE(forwardWorkPerWindow.size() == reverseWorkPerWindow.size(),
                "window count mismatch");
    COP_REQUIRE(!previous ||
                    previous->windows.size() == forwardWorkPerWindow.size(),
                "previous estimate has a different window count");
    LambdaChainResult out;
    double var = 0.0;
    for (std::size_t w = 0; w < forwardWorkPerWindow.size(); ++w) {
        std::optional<double> start;
        if (previous) start = previous->windows[w].deltaF;
        auto r = bar(forwardWorkPerWindow[w], reverseWorkPerWindow[w], params,
                     start);
        out.totalDeltaF += r.deltaF;
        var += r.standardError * r.standardError;
        out.windows.push_back(std::move(r));
    }
    out.totalError = std::sqrt(var);
    return out;
}

} // namespace cop::fe
