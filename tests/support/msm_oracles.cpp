#include "support/msm_oracles.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/random.hpp"

namespace cop::msm {

ClusteringResult kCentersUnpruned(const ConformationSet& data,
                                  const KCentersParams& params) {
    COP_REQUIRE(!data.empty(), "cannot cluster an empty set");
    COP_REQUIRE(params.numClusters >= 1, "need at least one cluster");
    const std::size_t n = data.size();
    const std::size_t k = std::min(params.numClusters, n);

    ClusteringResult result;
    result.assignments.assign(n, 0);
    result.distances.assign(n, std::numeric_limits<double>::max());

    Rng rng(params.seed);
    std::size_t nextCenter = rng.uniformInt(n);
    for (std::size_t c = 0; c < k; ++c) {
        result.centers.push_back(nextCenter);
        double farDist = -1.0;
        std::size_t farIdx = 0;
        for (std::size_t i = 0; i < n; ++i) {
            ++result.rmsd.calls;
            const double d = data.distance(i, nextCenter);
            if (d < result.distances[i]) {
                result.distances[i] = d;
                result.assignments[i] = int(c);
            }
            if (result.distances[i] > farDist) {
                farDist = result.distances[i];
                farIdx = i;
            }
        }
        if (params.stopRadius > 0.0 && farDist < params.stopRadius) break;
        nextCenter = farIdx;
    }
    return result;
}

} // namespace cop::msm
