#pragma once

/// \file force_workspace.hpp
/// Persistent scratch state for the nonbonded engine. Everything a force
/// evaluation needs beyond the caller's positions/forces lives here and is
/// allocated once (then reused across steps), so steady-state compute() is
/// allocation-free:
///   - flat, cache-aligned position and force arrays in xyz-interleaved
///     triplet layout (the SoA kernels stream pair indices and shift codes
///     as separate channels, but a pair's scattered j-access touches one
///     or two cache lines of `pos3` instead of one line in each of three
///     split x/y/z arrays — measured ~12% of kernel time at N=10000);
///   - per-chunk force stripes for the threaded path, padded so adjacent
///     stripes never share a cache line;
///   - the pair list split by interaction kind (LJ-only / LJ+Coulomb-RF /
///     Gō-repulsive) with per-pair charge products and periodic shift codes
///     precomputed, so the SoA inner loops are branch-free;
///   - per-chunk energy slots for the threaded path.

#include <cstddef>
#include <limits>
#include <vector>

#include "util/aligned_buffer.hpp"

namespace cop::md {

/// Neighbour pairs bucketed by the interaction they compute, as parallel
/// per-pair channels (SoA). `qq` holds coulombPrefactor * q_i * q_j for
/// the charged bucket so the kernel never touches the topology.
///
/// Pairs are ordered by (i slot, periodic shift code) — a counting sort
/// at bucket-build time, since the neighbour list's cell-major emission
/// scatters one atom's pairs across many short segments — so each atom
/// contributes one long run per distinct shift code (width-1 kernel
/// sets), or exactly one run (wide sets, which image per block with a
/// vector rint instead of per-run shift codes — see splitPairBuckets
/// for why each width gets the opposite trade). Each bucket stores
/// those runs explicitly (the run's i slot plus its [runStart[r],
/// runStart[r+1]) pair range, with a sentinel entry at the end). The
/// kernels then iterate a plain counted loop per run instead of
/// re-testing the i index every pair, the i position/force live in
/// registers for the whole run, and runs are long enough for the wide
/// SIMD kernels to spend their time in full-width blocks (each run's
/// sub-width tail is one more masked block over the sentinel-padded
/// j channels).
struct PairBuckets {
    AlignedVector<int> ljJ;   ///< plain 12-6 LJ: j slot per pair
    AlignedVector<int> qJ;    ///< LJ + reaction-field Coulomb: j slot
    AlignedVector<double> qq; ///< charge products for the q bucket
    AlignedVector<int> goJ;   ///< Gō repulsive 1/r^12: j slot per pair
    /// Run tables: i slot per run, exclusive pair-offset per run plus one
    /// trailing sentinel (so run r spans [runStart[r], runStart[r+1])).
    /// A run also breaks when the periodic shift code changes, so the
    /// code is a per-run property (see below) and the kernels hoist the
    /// shift out of the pair loop.
    AlignedVector<int> ljRunI, ljRunStart;
    AlignedVector<int> qRunI, qRunStart;
    AlignedVector<int> goRunI, goRunStart;
    /// Per-run periodic-shift codes (0..26, one per run-table entry),
    /// meaningful when `shifted` is true: a pair's minimum image is the
    /// wrapped displacement plus a shift vector chosen at list build,
    /// looked up from a 27-entry table — no rounding in the inner loop,
    /// and the lookup happens once per run because pairs are emitted
    /// cell-pair by cell-pair, so consecutive pairs almost always share
    /// a code (runs split at the rare code change).
    /// Valid between rebuilds by the Verlet-skin argument (no particle
    /// moves more than skin/2 before the list is rebuilt, and the cell
    /// build requires box lengths >= 3 list cutoffs).
    AlignedVector<unsigned char> ljRunS, qRunS, goRunS;
    /// Positions are wrapped into the box with frozen per-slot offsets
    /// (cell-built periodic lists).
    bool wrapped = false;
    /// The shifted kernels run, imaging via the per-run code table. Set
    /// for wrapped lists under width-1 kernel sets (runs split by shift
    /// code) and for every open box (every run on code 13, the zero
    /// shift, so nothing is imaged). Wide sets on periodic lists leave
    /// runs unsplit and image per block with a vector rint.
    bool shifted = false;

    /// NeighborList::numBuilds() value the buckets were split from;
    /// mismatch means the pair list changed and the split is stale.
    std::size_t sourceBuild = std::numeric_limits<std::size_t>::max();

    void clear() {
        ljJ.clear();
        qJ.clear();
        qq.clear();
        goJ.clear();
        ljRunI.clear();
        ljRunStart.clear();
        qRunI.clear();
        qRunStart.clear();
        goRunI.clear();
        goRunStart.clear();
        ljRunS.clear();
        qRunS.clear();
        goRunS.clear();
        wrapped = false;
        shifted = false;
    }
};

struct ForceWorkspace {
    // Positions in xyz-interleaved triplets (slot r at pos3[3r .. 3r+2]),
    // scattered from the caller's Vec3 array each evaluation (O(N),
    // cache-friendly).
    AlignedVector<double> pos3;
    // Original-index -> slot permutation. When the neighbour list was
    // cell-built, slot order is cell order, so a cell's particles sit in
    // contiguous memory and the kernels' scattered j-accesses stay within
    // a few cache lines per neighbour cell; otherwise it is the identity.
    // Rebuilt together with the pair buckets (same staleness stamp).
    AlignedVector<int> rank;
    // Per-slot wrap offsets (exact multiples of the box lengths, same
    // triplet layout as pos3), frozen at list build and added to the
    // caller's positions when scattering. Freezing them keeps the wrapped
    // coordinates continuous between rebuilds — a particle crossing the
    // boundary mid-interval must not jump by a box length, or the pair
    // shift codes would go stale.
    AlignedVector<double> o3;
    // Force triplets: accumulator for the single-threaded kernels and the
    // target of the striped reduction in the threaded path.
    AlignedVector<double> f3;
    // Per-chunk force stripes: nStripes blocks of 3 * stride doubles.
    // stride is n rounded up to a cache line, so stripes never false-share.
    AlignedVector<double> sf3;
    std::size_t stride = 0;
    std::size_t nStripes = 0;

    // Counting-sort scratch for splitPairBuckets' (i slot, shift code)
    // pair ordering: composite key per pair, the sorted permutation, and
    // 27 * n + 1 bucket offsets. Rebuilt only when the neighbour list
    // changes; capacity persists across rebuilds.
    AlignedVector<int> pairKey, pairOrder, keyOffset;

    // Per-chunk energy slots: nonbonded, coulomb.
    std::vector<double> enb, ecoul;

    PairBuckets buckets;

    /// Grows (never shrinks) all buffers for n particles and `chunks`
    /// concurrent accumulation stripes. Idempotent and allocation-free once
    /// sized.
    void ensure(std::size_t n, std::size_t chunks) {
        if (stride < n) {
            // n + 2 before rounding: the wide kernels touch position and
            // force triplets with full 4-double vector loads/stores (the
            // 4th lane is read and written back unchanged), so the last
            // slot's triplet over-reaches by one double. The slack keeps
            // that in-bounds — per stripe, too, since stripes are stride
            // apart.
            const std::size_t padded = paddedSize(n + 2);
            pos3.resize(3 * padded);
            o3.resize(3 * padded);
            f3.resize(3 * padded);
            stride = padded;
            nStripes = 0;     // force stripe re-size below
        }
        if (nStripes < chunks) {
            nStripes = chunks;
            sf3.resize(nStripes * 3 * stride);
            enb.resize(nStripes);
            ecoul.resize(nStripes);
        }
    }
};

} // namespace cop::md
