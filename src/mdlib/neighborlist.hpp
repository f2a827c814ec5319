#pragma once

/// \file neighborlist.hpp
/// Verlet pair list with a cell-list build path, mirroring the Gromacs
/// buffered pair-list scheme: pairs within cutoff + skin are listed and the
/// list is rebuilt only when some particle has moved more than skin/2 since
/// the last build.
///
/// The cell build uses a counting sort into flat, persistent arrays
/// (cell-of-particle, prefix-summed cell starts, cell-ordered particle
/// list) — no per-cell std::vector, no allocation once warmed up — and
/// emits pairs directly in deterministic cell-major order, so no post-build
/// sort is needed either.

#include <cstddef>
#include <vector>

#include "mdlib/pbc.hpp"
#include "mdlib/topology.hpp"
#include "util/vec3.hpp"

namespace cop {
class ThreadPool;
}

namespace cop::md {

struct NeighborPair {
    int i;
    int j;
};

class NeighborList {
public:
    /// `cutoff` is the interaction cutoff; `skin` the Verlet buffer. Pairs
    /// excluded by the topology never appear in the list.
    NeighborList(double cutoff, double skin);

    double cutoff() const { return cutoff_; }
    double skin() const { return skin_; }

    /// Unconditionally rebuilds from scratch.
    void build(const Topology& top, const Box& box,
               const std::vector<Vec3>& positions);

    /// Rebuilds only if some particle moved more than skin/2 since the last
    /// build. Returns true if a rebuild happened. The displacement scan
    /// checks the previous fastest mover first (it usually trips the
    /// rebuild without touching the other N-1 particles) and is
    /// pool-parallelized for large N when a pool is supplied.
    bool update(const Topology& top, const Box& box,
                const std::vector<Vec3>& positions,
                ThreadPool* pool = nullptr);

    const std::vector<NeighborPair>& pairs() const { return pairs_; }
    std::size_t numBuilds() const { return numBuilds_; }

    /// Particle ids sorted by cell from the last build, or empty when the
    /// last build used the brute-force path. The SoA force engine renumbers
    /// atoms into this order so that neighbouring particles occupy
    /// contiguous memory — scattered j-accesses then hit a handful of cache
    /// lines per cell instead of one line per particle.
    const std::vector<int>& cellOrder() const { return order_; }

private:
    void buildCellList(const Topology& top, const Box& box,
                       const std::vector<Vec3>& positions);
    void buildBruteForce(const Topology& top, const Box& box,
                         const std::vector<Vec3>& positions);

    double cutoff_;
    double skin_;
    std::vector<NeighborPair> pairs_;
    std::vector<Vec3> referencePositions_;
    std::size_t numBuilds_ = 0;
    /// Index of the particle with the largest displacement seen by the last
    /// update() scan; checked first on the next call.
    std::size_t hotIndex_ = 0;

    // Counting-sort scratch, persistent across builds.
    std::vector<int> cellOf_;    ///< cell index per particle
    std::vector<int> cellStart_; ///< exclusive prefix sum, size nCells + 1
    std::vector<int> order_;     ///< particle ids sorted by cell, stable
    std::vector<int> cursor_;    ///< scatter cursors during the sort
};

} // namespace cop::md
