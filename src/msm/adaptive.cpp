#include "msm/adaptive.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/random.hpp"

namespace cop::msm {

int AdaptivePlan::totalSeeds() const {
    return std::accumulate(seedsPerState.begin(), seedsPerState.end(), 0);
}

std::vector<double> adaptiveWeights(const SparseCounts& counts,
                                    const std::vector<bool>& observed) {
    COP_REQUIRE(counts.numStates() == observed.size(), "size mismatch");
    std::vector<double> w(observed.size(), 0.0);
    for (std::size_t i = 0; i < observed.size(); ++i)
        if (observed[i]) w[i] = 1.0 / (counts.rowSum(i) + 1.0);
    return w;
}

AdaptivePlan planAdaptiveSampling(const SparseCounts& counts,
                                  const std::vector<bool>& observed,
                                  const AdaptiveParams& params) {
    COP_REQUIRE(counts.numStates() == observed.size(), "size mismatch");
    COP_REQUIRE(params.totalSeeds >= 0, "negative seed count");

    const std::size_t n = observed.size();
    AdaptivePlan plan;
    plan.seedsPerState.assign(n, 0);

    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < n; ++i)
        if (observed[i]) eligible.push_back(i);
    if (eligible.empty() || params.totalSeeds == 0) return plan;

    std::vector<double> weights(n, 0.0);
    if (params.scheme == WeightingScheme::Even) {
        for (std::size_t i : eligible) weights[i] = 1.0;
    } else {
        weights = adaptiveWeights(counts, observed);
    }
    double totalW = std::accumulate(weights.begin(), weights.end(), 0.0);
    COP_ENSURE(totalW > 0.0, "no positive weights");

    // Largest-remainder apportionment: deterministic, exact total.
    std::vector<double> exact(n, 0.0);
    int assigned = 0;
    for (std::size_t i : eligible) {
        exact[i] = params.totalSeeds * weights[i] / totalW;
        plan.seedsPerState[i] = int(exact[i]);
        assigned += plan.seedsPerState[i];
    }
    // Distribute the remainder to the largest fractional parts; break ties
    // by a seeded shuffle for statistical fairness across rounds.
    std::vector<std::size_t> order = eligible;
    Rng rng(params.seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniformInt(i)]);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         const double fa = exact[a] - int(exact[a]);
                         const double fb = exact[b] - int(exact[b]);
                         return fa > fb;
                     });
    for (std::size_t k = 0; assigned < params.totalSeeds; ++k) {
        ++plan.seedsPerState[order[k % order.size()]];
        ++assigned;
    }
    return plan;
}

} // namespace cop::msm
