#include "msm/clustering.hpp"

#include <algorithm>
#include <limits>

#include "mdlib/observables.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cop::msm {

void ConformationSet::add(std::vector<Vec3> conformation) {
    COP_REQUIRE(!conformation.empty(), "empty conformation");
    if (!conformations_.empty())
        COP_REQUIRE(conformation.size() == conformations_.front().size(),
                    "conformation size mismatch");
    double g = 0.0;
    centered_.push_back(md::centered(conformation, g));
    norm2_.push_back(g);
    conformations_.push_back(std::move(conformation));
}

double ConformationSet::distance(std::size_t i, std::size_t j) const {
    return md::rmsdCentered(centered_[i], centered_[j], norm2_[i], norm2_[j]);
}

double ConformationSet::distanceTo(std::size_t i,
                                   const std::vector<Vec3>& x) const {
    double g = 0.0;
    const auto cx = md::centered(x, g);
    return distanceToCentered(i, cx, g);
}

double ConformationSet::distanceToCentered(std::size_t i,
                                           std::span<const Vec3> x,
                                           double squaredNormX) const {
    return md::rmsdCentered(centered_[i], x, norm2_[i], squaredNormX);
}

std::vector<std::size_t> ClusteringResult::clusterSizes() const {
    std::vector<std::size_t> sizes(centers.size(), 0);
    for (int a : assignments) ++sizes[std::size_t(a)];
    return sizes;
}

ClusteringResult kCenters(const ConformationSet& data,
                          const KCentersParams& params, ThreadPool* pool) {
    COP_REQUIRE(!data.empty(), "cannot cluster an empty set");
    COP_REQUIRE(params.numClusters >= 1, "need at least one cluster");
    const std::size_t n = data.size();
    const std::size_t k = std::min(params.numClusters, n);

    ClusteringResult result;
    result.assignments.assign(n, 0);
    result.distances.assign(n, std::numeric_limits<double>::max());

    // Lower-triangular center-center distances: ccRows[c][b] is the RMSD
    // between centers c and b (b < c), filled as center c is promoted. The
    // relax pass for center c skips point i when
    //   ccRows[c][assignment(i)] >= 2 * distance(i),
    // since then d(i, c) >= cc - d(i, b) >= d(i, b): the new center cannot
    // strictly beat the incumbent, and the strict < below means skipping
    // leaves the result bit-identical.
    std::vector<std::vector<double>> ccRows(k);

    struct Farthest {
        double dist = -1.0;
        std::size_t idx = 0;
    };
    struct ChunkOut {
        Farthest far;
        RmsdCounters rmsd;
    };
    // Relaxes [lo, hi) against the new center c and returns the local
    // farthest point. Writes to distances/assignments are disjoint per i,
    // so chunks can run concurrently; the counters are per-i decisions and
    // do not depend on the chunking.
    auto relaxRange = [&](std::size_t lo, std::size_t hi,
                          std::size_t center, int c) {
        ChunkOut out;
        const std::vector<double>& ccRow = ccRows[std::size_t(c)];
        for (std::size_t i = lo; i < hi; ++i) {
            if (c > 0 &&
                ccRow[std::size_t(result.assignments[i])] >=
                    2.0 * result.distances[i]) {
                ++out.rmsd.pruned;
            } else {
                ++out.rmsd.calls;
                const double d = data.distance(i, center);
                if (d < result.distances[i]) {
                    result.distances[i] = d;
                    result.assignments[i] = c;
                }
            }
            if (result.distances[i] > out.far.dist) {
                out.far.dist = result.distances[i];
                out.far.idx = i;
            }
        }
        return out;
    };

    Rng rng(params.seed);
    std::size_t nextCenter = rng.uniformInt(n);
    for (std::size_t c = 0; c < k; ++c) {
        result.centers.push_back(nextCenter);
        if (c > 0) {
            auto& row = ccRows[c];
            row.reserve(c);
            for (std::size_t b = 0; b < c; ++b) {
                row.push_back(data.distance(nextCenter, result.centers[b]));
                ++result.rmsd.calls;
            }
        }
        // Relax assignments against the new center and find the farthest
        // point, which becomes the next center. Chunks combine in order
        // with a strict >, reproducing the serial smallest-index argmax.
        ChunkOut out;
        if (pool != nullptr && pool->size() > 1 && n >= 64) {
            out = pool->parallelReduceChunked(
                std::size_t{0}, n, ChunkOut{},
                [&](std::size_t lo, std::size_t hi) {
                    return relaxRange(lo, hi, nextCenter, int(c));
                },
                [](ChunkOut a, const ChunkOut& b) {
                    if (b.far.dist > a.far.dist) a.far = b.far;
                    a.rmsd += b.rmsd;
                    return a;
                });
        } else {
            out = relaxRange(0, n, nextCenter, int(c));
        }
        result.rmsd += out.rmsd;
        if (params.stopRadius > 0.0 && out.far.dist < params.stopRadius)
            break;
        nextCenter = out.far.idx;
    }
    return result;
}

ClusteringResult kMedoidsRefine(const ConformationSet& data,
                                ClusteringResult initial, int sweeps,
                                std::uint64_t seed) {
    COP_REQUIRE(!initial.centers.empty(), "no initial clustering");
    const std::size_t n = data.size();
    const std::size_t k = initial.centers.size();
    Rng rng(seed);

    for (int sweep = 0; sweep < sweeps; ++sweep) {
        // Medoid update: for each cluster, try a random member as the new
        // medoid and keep it if it lowers the within-cluster distance sum.
        std::vector<std::vector<std::size_t>> members(k);
        for (std::size_t i = 0; i < n; ++i)
            members[std::size_t(initial.assignments[i])].push_back(i);
        for (std::size_t c = 0; c < k; ++c) {
            if (members[c].size() < 2) continue;
            const std::size_t cur = initial.centers[c];
            const std::size_t cand =
                members[c][rng.uniformInt(members[c].size())];
            if (cand == cur) continue;
            // distances[m] already holds data.distance(m, cur): every
            // producer of a ClusteringResult stores the distance to the
            // assigned center, with the same argument order.
            double curCost = 0.0, candCost = 0.0;
            for (std::size_t m : members[c]) {
                curCost += initial.distances[m];
                candCost += data.distance(m, cand);
                ++initial.rmsd.calls;
            }
            if (candCost < curCost) initial.centers[c] = cand;
        }
        // Reassignment pass: nearest medoid, pruned by the triangle
        // inequality against the medoid-medoid distances.
        const auto cc = centerDistanceMatrix(data, initial.centers, nullptr,
                                             &initial.rmsd);
        auto assigned = assignRangeToCenters(data, 0, n, initial.centers, cc);
        initial.assignments = std::move(assigned.assignments);
        initial.distances = std::move(assigned.distances);
        initial.rmsd += assigned.rmsd;
    }
    return initial;
}

std::vector<double> centerDistanceMatrix(
    const ConformationSet& data, const std::vector<std::size_t>& centers,
    ThreadPool* pool, RmsdCounters* counters) {
    const std::size_t k = centers.size();
    std::vector<double> m(k * k, 0.0);
    // Each chunk owns rows [lo, hi) and writes the (c, j > c) pairs plus
    // their mirrors; every cell is written by exactly one chunk.
    auto rows = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c)
            for (std::size_t j = c + 1; j < k; ++j) {
                const double d = data.distance(centers[c], centers[j]);
                m[c * k + j] = d;
                m[j * k + c] = d;
            }
    };
    if (pool != nullptr && pool->size() > 1 && k >= 16) {
        pool->forChunksGrained(
            0, k, 4,
            [&](std::size_t, std::size_t lo, std::size_t hi) {
                rows(lo, hi);
            });
    } else {
        rows(0, k);
    }
    if (counters != nullptr) counters->calls += k * (k - 1) / 2;
    return m;
}

AssignResult assignRangeToCenters(const ConformationSet& data,
                                  std::size_t first, std::size_t last,
                                  const std::vector<std::size_t>& centers,
                                  const std::vector<double>& centerDist,
                                  ThreadPool* pool) {
    COP_REQUIRE(!centers.empty(), "no centers");
    COP_REQUIRE(first <= last && last <= data.size(),
                "assignment range out of bounds");
    COP_REQUIRE(centerDist.empty() ||
                    centerDist.size() == centers.size() * centers.size(),
                "center distance matrix size mismatch");
    const std::size_t k = centers.size();
    const std::size_t n = last - first;

    AssignResult out;
    out.assignments.assign(n, 0);
    out.distances.assign(n, 0.0);

    // Per-probe scan: evaluate center 0, then visit centers in index order,
    // skipping any candidate whose distance to the incumbent proves it
    // cannot strictly win: d(x, c) >= cc(best, c) - d(x, best) >= d(x, best)
    // whenever cc(best, c) >= 2 d(x, best). Ties keep the smaller index,
    // exactly like the unpruned scan's strict <.
    auto assignChunk = [&](std::size_t lo, std::size_t hi) {
        RmsdCounters counters;
        for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t member = first + i;
            double best = data.distance(member, centers[0]);
            ++counters.calls;
            std::size_t bestC = 0;
            for (std::size_t c = 1; c < k; ++c) {
                if (!centerDist.empty() &&
                    centerDist[bestC * k + c] >= 2.0 * best) {
                    ++counters.pruned;
                    continue;
                }
                ++counters.calls;
                const double d = data.distance(member, centers[c]);
                if (d < best) {
                    best = d;
                    bestC = c;
                }
            }
            out.assignments[i] = int(bestC);
            out.distances[i] = best;
        }
        return counters;
    };

    if (pool != nullptr && pool->size() > 1 && n >= 2) {
        // Writes are disjoint per probe; counters are per-probe decisions,
        // so the totals do not depend on the chunking.
        const std::size_t nChunks = pool->chunkCountForGrained(n, 16);
        std::vector<RmsdCounters> partial(nChunks);
        pool->forChunksGrained(
            0, n, 16, [&](std::size_t c, std::size_t lo, std::size_t hi) {
                partial[c] = assignChunk(lo, hi);
            });
        for (const auto& p : partial) out.rmsd += p;
    } else {
        out.rmsd = assignChunk(0, n);
    }
    return out;
}

std::vector<int> assignToCenters(const ConformationSet& data,
                                 const std::vector<std::size_t>& centers,
                                 const std::vector<std::vector<Vec3>>& xs) {
    COP_REQUIRE(!centers.empty(), "no centers");
    std::vector<int> out;
    out.reserve(xs.size());
    for (const auto& x : xs) {
        double g = 0.0;
        const auto cx = md::centered(x, g);
        double best = std::numeric_limits<double>::max();
        int bestC = 0;
        for (std::size_t c = 0; c < centers.size(); ++c) {
            const double d = data.distanceToCentered(centers[c], cx, g);
            if (d < best) {
                best = d;
                bestC = int(c);
            }
        }
        out.push_back(bestC);
    }
    return out;
}

} // namespace cop::msm
