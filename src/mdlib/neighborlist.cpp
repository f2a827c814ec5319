#include "mdlib/neighborlist.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cop::md {

NeighborList::NeighborList(double cutoff, double skin)
    : cutoff_(cutoff), skin_(skin) {
    COP_REQUIRE(cutoff > 0.0, "cutoff must be positive");
    COP_REQUIRE(skin >= 0.0, "skin must be non-negative");
}

void NeighborList::build(const Topology& top, const Box& box,
                         const std::vector<Vec3>& positions) {
    COP_REQUIRE(top.finalized(), "topology must be finalized");
    COP_REQUIRE(positions.size() == top.numParticles(),
                "positions size mismatch");
    pairs_.clear();

    const double listCut = cutoff_ + skin_;
    // A cell grid only pays off when the box supports >= 3 cells per
    // dimension; otherwise fall back to the O(N^2) build (fine for the
    // 35-bead protein).
    bool useCells = box.periodic;
    if (useCells) {
        for (int d = 0; d < 3; ++d)
            if (box.lengths[d] < 3.0 * listCut) useCells = false;
    }
    if (useCells)
        buildCellList(top, box, positions);
    else
        buildBruteForce(top, box, positions);

    // assign() reuses capacity, so steady-state rebuilds don't allocate
    // for the reference copy.
    referencePositions_.assign(positions.begin(), positions.end());
    ++numBuilds_;
}

bool NeighborList::update(const Topology& top, const Box& box,
                          const std::vector<Vec3>& positions,
                          ThreadPool* pool) {
    if (referencePositions_.size() != positions.size()) {
        build(top, box, positions);
        return true;
    }
    const double limit2 = 0.25 * skin_ * skin_;
    const std::size_t n = positions.size();
    const Vec3* cur = positions.data();
    const Vec3* ref = referencePositions_.data();

    // Displacements are plain coordinate differences, not minimum images:
    // nothing rewraps the caller's coordinates mid-run, so below half a
    // box length the two are identical, and beyond that the plain
    // difference only overestimates — which can only trigger the rebuild
    // sooner. Dropping the per-particle rint imaging leaves a pure
    // max-reduction the auto-vectorizer handles.
    auto chunkMax = [&](std::size_t lo, std::size_t hi) {
        double m = -1.0;
        for (std::size_t i = lo; i < hi; ++i) {
            const double dx = cur[i].x - ref[i].x;
            const double dy = cur[i].y - ref[i].y;
            const double dz = cur[i].z - ref[i].z;
            const double d2 = dx * dx + dy * dy + dz * dz;
            m = m > d2 ? m : d2;
        }
        return m;
    };
    // Scalar argmax over the winning chunk only; the hot index is a
    // heuristic, so a vector-vs-scalar FMA-contraction ulp near a tie is
    // irrelevant.
    auto chunkArgmax = [&](std::size_t lo, std::size_t hi) {
        double m = -1.0;
        std::size_t idx = lo;
        for (std::size_t i = lo; i < hi; ++i) {
            const Vec3 d = cur[i] - ref[i];
            const double d2 = norm2(d);
            if (d2 > m) {
                m = d2;
                idx = i;
            }
        }
        return idx;
    };

    // Fast path: the fastest mover from the previous scan usually keeps
    // moving; if it already exceeds the limit we rebuild without scanning
    // anything else.
    if (hotIndex_ < n) {
        const Vec3 d = cur[hotIndex_] - ref[hotIndex_];
        if (norm2(d) > limit2) {
            build(top, box, positions);
            return true;
        }
    }

    bool exceeded = false;
    if (pool != nullptr && pool->size() > 1 && n >= 4096) {
        // Parallel max-displacement scan; deterministic chunk-order
        // combine keeps the hot index reproducible.
        struct MaxDisp {
            double d2 = -1.0;
            std::size_t lo = 0, hi = 0;
        };
        const MaxDisp m = pool->parallelReduceChunked(
            std::size_t{0}, n, MaxDisp{},
            [&](std::size_t lo, std::size_t hi) {
                return MaxDisp{chunkMax(lo, hi), lo, hi};
            },
            [](MaxDisp a, const MaxDisp& b) { return a.d2 >= b.d2 ? a : b; });
        if (m.hi > m.lo) hotIndex_ = chunkArgmax(m.lo, m.hi);
        exceeded = m.d2 > limit2;
    } else {
        constexpr std::size_t kChunk = 2048;
        double best = -1.0;
        std::size_t bestLo = 0, bestHi = 0;
        for (std::size_t lo = 0; lo < n; lo += kChunk) {
            const std::size_t hi = std::min(n, lo + kChunk);
            const double m = chunkMax(lo, hi);
            if (m > best) {
                best = m;
                bestLo = lo;
                bestHi = hi;
            }
            if (m > limit2) {
                exceeded = true;
                break;
            }
        }
        if (bestHi > bestLo) hotIndex_ = chunkArgmax(bestLo, bestHi);
    }
    if (exceeded) {
        build(top, box, positions);
        return true;
    }
    return false;
}

void NeighborList::buildBruteForce(const Topology& top, const Box& box,
                                   const std::vector<Vec3>& positions) {
    order_.clear(); // no cell order this build; cellOrder() must say so
    const int n = int(positions.size());
    const double cut2 = (cutoff_ + skin_) * (cutoff_ + skin_);
    for (int i = 0; i < n; ++i) {
        // Walk row i's sorted exclusions alongside j instead of a binary
        // search per pair: `ex` always points at the first exclusion >= j.
        const auto& excl = top.exclusions(std::size_t(i));
        auto ex = std::upper_bound(excl.begin(), excl.end(), i);
        for (int j = i + 1; j < n; ++j) {
            if (ex != excl.end() && *ex == j) {
                ++ex;
                continue;
            }
            const Vec3 d =
                box.minimumImage(positions[std::size_t(i)],
                                 positions[std::size_t(j)]);
            if (norm2(d) <= cut2) pairs_.push_back({i, j});
        }
    }
}

void NeighborList::buildCellList(const Topology& top, const Box& box,
                                 const std::vector<Vec3>& positions) {
    const double listCut = cutoff_ + skin_;
    const double cut2 = listCut * listCut;
    const int n = int(positions.size());
    int nc[3];
    double cellLen[3];
    for (int d = 0; d < 3; ++d) {
        nc[d] = std::max(3, int(box.lengths[d] / listCut));
        cellLen[d] = box.lengths[d] / nc[d];
    }
    const int totalCells = nc[0] * nc[1] * nc[2];

    // Counting sort into flat persistent arrays: cellOf_ maps particle to
    // cell, cellStart_ holds the exclusive prefix sum, order_ lists
    // particles grouped by cell. Scattering in ascending particle order
    // makes the sort stable, so the emitted pair order is fully
    // deterministic (cell-major, then ascending indices) with no post-sort.
    cellOf_.resize(std::size_t(n));
    cellStart_.assign(std::size_t(totalCells) + 1, 0);
    order_.resize(std::size_t(n));
    cursor_.resize(std::size_t(totalCells));

    for (int i = 0; i < n; ++i) {
        const Vec3 w = box.wrap(positions[std::size_t(i)]);
        const int ix = std::min(nc[0] - 1, int(w.x / cellLen[0]));
        const int iy = std::min(nc[1] - 1, int(w.y / cellLen[1]));
        const int iz = std::min(nc[2] - 1, int(w.z / cellLen[2]));
        const int cell = (ix * nc[1] + iy) * nc[2] + iz;
        cellOf_[std::size_t(i)] = cell;
        ++cellStart_[std::size_t(cell) + 1];
    }
    for (int c = 0; c < totalCells; ++c)
        cellStart_[std::size_t(c) + 1] += cellStart_[std::size_t(c)];
    std::copy(cellStart_.begin(), cellStart_.end() - 1, cursor_.begin());
    for (int i = 0; i < n; ++i)
        order_[std::size_t(cursor_[std::size_t(cellOf_[std::size_t(i)])]++)] =
            i;

    auto wrapIdx = [](int v, int m) { return ((v % m) + m) % m; };

    // Half-shell traversal: with >= 3 cells per dimension every one of the
    // 13 forward offsets lands on a distinct neighbour cell, so each cell
    // pair is visited exactly once and no dedup pass is needed.
    for (int ix = 0; ix < nc[0]; ++ix) {
        for (int iy = 0; iy < nc[1]; ++iy) {
            for (int iz = 0; iz < nc[2]; ++iz) {
                const int home = (ix * nc[1] + iy) * nc[2] + iz;
                const int* homeBegin =
                    order_.data() + cellStart_[std::size_t(home)];
                const int* homeEnd =
                    order_.data() + cellStart_[std::size_t(home) + 1];
                for (int dx = -1; dx <= 1; ++dx) {
                    for (int dy = -1; dy <= 1; ++dy) {
                        for (int dz = -1; dz <= 1; ++dz) {
                            const int code =
                                (dx + 1) * 9 + (dy + 1) * 3 + (dz + 1);
                            if (code < 13) continue; // skip mirrored half
                            if (code == 13) {
                                // Same cell: a < b pairs in sorted order.
                                for (const int* a = homeBegin; a != homeEnd;
                                     ++a) {
                                    for (const int* b = a + 1; b != homeEnd;
                                         ++b) {
                                        if (top.isExcluded(*a, *b)) continue;
                                        const Vec3 d = box.minimumImage(
                                            positions[std::size_t(*a)],
                                            positions[std::size_t(*b)]);
                                        if (norm2(d) <= cut2)
                                            pairs_.push_back(
                                                {std::min(*a, *b),
                                                 std::max(*a, *b)});
                                    }
                                }
                                continue;
                            }
                            const int other =
                                (wrapIdx(ix + dx, nc[0]) * nc[1] +
                                 wrapIdx(iy + dy, nc[1])) * nc[2] +
                                wrapIdx(iz + dz, nc[2]);
                            const int* otherBegin =
                                order_.data() + cellStart_[std::size_t(other)];
                            const int* otherEnd =
                                order_.data() +
                                cellStart_[std::size_t(other) + 1];
                            for (const int* a = homeBegin; a != homeEnd;
                                 ++a) {
                                for (const int* b = otherBegin;
                                     b != otherEnd; ++b) {
                                    if (top.isExcluded(*a, *b)) continue;
                                    const Vec3 d = box.minimumImage(
                                        positions[std::size_t(*a)],
                                        positions[std::size_t(*b)]);
                                    if (norm2(d) <= cut2)
                                        pairs_.push_back(
                                            {std::min(*a, *b),
                                             std::max(*a, *b)});
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

} // namespace cop::md
