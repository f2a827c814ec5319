#pragma once

/// \file forcefield.hpp
/// Force and energy evaluation. Supports the two interaction models used in
/// this repo:
///   - Gō model: bonded terms + 12-10 native contacts + purely repulsive
///     nonbonded (for non-native pairs), run in vacuum.
///   - Generic Lennard-Jones (+ optional reaction-field Coulomb), run in a
///     periodic box; used to validate integrators/thermostats/neighbour
///     lists against textbook behaviour, mirroring the paper's use of a
///     reaction field for villin electrostatics.
///
/// Forces are accumulated through one of four flavors (the "SIMD level" of
/// the paper's Fig. 6). Scalar is the reference loop over the pair list;
/// Blocked4 is the same loop in blocks of 4 and gives identical results.
/// Both are serial and ignore the thread pool.
/// Soa and SimdAuto share one structure-of-arrays engine: branch-free
/// kind-split pair buckets, stored as same-i runs over cache-aligned
/// xyz-interleaved coordinate triplets, with a striped zero-allocation
/// threaded reduction. Its inner loops are the width-templated kernels of
/// simd_kernels_impl.hpp, written once: Soa runs them at width 1 (the
/// portable "scalar" set, with precomputed per-run periodic shifts), and
/// SimdAuto runs the set simd_dispatch.hpp picks at startup
/// (SSE2/AVX2/AVX-512F/NEON, or the same "scalar" set). On an open box
/// (Box::open(), the Gō model) both run the shifted kernels with every
/// run on the zero shift, so no pair pays for minimum-image rounding.
/// Tests require Soa to agree with Scalar within 1e-10, the wide sets
/// within 1e-9 (vector accumulators change only the summation order), and
/// SimdAuto with SimdIsa::Scalar to equal Soa exactly.

#include <cstddef>
#include <vector>

#include "mdlib/force_workspace.hpp"
#include "mdlib/neighborlist.hpp"
#include "mdlib/pbc.hpp"
#include "mdlib/simd_dispatch.hpp"
#include "mdlib/topology.hpp"
#include "util/vec3.hpp"

namespace cop {
class ThreadPool;
}

namespace cop::md {

/// Per-term potential energies from one force evaluation.
struct Energies {
    double bond = 0.0;
    double angle = 0.0;
    double dihedral = 0.0;
    double contact = 0.0;
    double nonbonded = 0.0;  ///< repulsive or LJ pair energy
    double coulomb = 0.0;    ///< reaction-field electrostatics

    double potential() const {
        return bond + angle + dihedral + contact + nonbonded + coulomb;
    }
};

enum class NonbondedKind {
    GoRepulsive,      ///< E = eps * (sigma/r)^12, cut at cutoff
    LennardJonesRF,   ///< 12-6 LJ + reaction-field Coulomb
};

enum class KernelFlavor {
    Scalar,   ///< straightforward reference loop
    Blocked4, ///< 4-wide blocked loop, auto-vectorizer friendly
    Soa,      ///< structure-of-arrays engine over kind-split pair buckets
              ///< running the portable width-1 kernel set: branch-free
              ///< inner loops, precomputed charge products, striped
              ///< zero-allocation threaded reduction; open boxes run
              ///< the zero-shift kernels (no imaging)
    SimdAuto, ///< the Soa engine with the kernel set picked at startup
              ///< (ForceFieldParams::simdIsa override > COPERNICUS_SIMD
              ///< env var > CPU detection)
};

struct ForceFieldParams {
    NonbondedKind kind = NonbondedKind::GoRepulsive;
    /// Soa (not SimdAuto) on purpose: the default must produce identical
    /// trajectories on every host, and checkpoints migrate across
    /// heterogeneous workers — ISA-dependent rounding in the default
    /// kernel would make both host-dependent. Soa always runs the
    /// portable width-1 set. Opting into SimdAuto is a per-project
    /// throughput decision (see DESIGN.md).
    KernelFlavor flavor = KernelFlavor::Soa;
    /// Which SIMD kernel set SimdAuto uses; Auto defers to the
    /// COPERNICUS_SIMD env var and then CPU detection. Ignored by the
    /// other flavors. Non-runnable explicit choices throw at
    /// construction.
    SimdIsa simdIsa = SimdIsa::Auto;

    double cutoff = 3.0;       ///< nonbonded cutoff (reduced units)
    double neighborSkin = 0.3; ///< Verlet buffer

    // Gō repulsion
    double repEpsilon = 1.0;
    double repSigma = 1.0;

    // Lennard-Jones
    double ljEpsilon = 1.0;
    double ljSigma = 1.0;
    bool shiftLJ = true; ///< shift LJ so E(cutoff) = 0 (energy conservation)

    // Reaction field (paper: epsilon_RF = 78)
    bool useCoulombRF = false;
    double coulombPrefactor = 1.0; ///< 1/(4 pi eps0) in reduced units
    double rfDielectric = 78.0;
};

/// Stateless-ish force engine: owns the neighbour list and scratch buffers,
/// but the positions/forces live in the caller's State.
class ForceField {
public:
    ForceField(const Topology& top, const Box& box, ForceFieldParams params,
               ThreadPool* pool = nullptr);

    /// Recomputes `forces` (overwritten) from `positions`; returns energies.
    /// Updates the neighbour list as needed.
    Energies compute(const std::vector<Vec3>& positions,
                     std::vector<Vec3>& forces);

    const ForceFieldParams& params() const { return params_; }
    const NeighborList& neighborList() const { return neighborList_; }
    const Topology& topology() const { return top_; }
    const Box& box() const { return box_; }

    /// Persistent scratch state; exposed so tests can assert buffer reuse
    /// (steady-state compute() must not reallocate).
    const ForceWorkspace& workspace() const { return ws_; }

    /// The ISA the nonbonded kernel table was resolved to at
    /// construction: the dispatch result for SimdAuto, SimdIsa::Scalar
    /// for every other flavor.
    SimdIsa activeSimdIsa() const { return activeIsa_; }
    /// The kernel table the SoA engine calls through:
    /// kernelSetFor(activeSimdIsa()), so the Soa flavor and SimdAuto
    /// resolved to Scalar install the same width-1 "scalar" set.
    const NonbondedKernelSet& kernelSet() const { return kernels_; }

private:
    Energies computeBonded(const std::vector<Vec3>& positions,
                           std::vector<Vec3>& forces) const;
    double computeContacts(const std::vector<Vec3>& positions,
                           std::vector<Vec3>& forces) const;
    void computeNonbonded(const std::vector<Vec3>& positions,
                          std::vector<Vec3>& forces, Energies& e);
    void computeNonbondedSoa(const std::vector<Vec3>& positions,
                             std::vector<Vec3>& forces, Energies& e);
    /// Re-buckets the neighbour list by interaction kind (with charge
    /// products and, for cell-built lists, per-pair periodic shift codes
    /// precomputed); no-op while the list is unchanged.
    void splitPairBuckets(const std::vector<Vec3>& positions);

    const Topology& top_;
    Box box_;
    ForceFieldParams params_;
    ThreadPool* pool_;
    NeighborList neighborList_;
    ForceWorkspace ws_;
    NonbondedKernelSet kernels_;
    SimdIsa activeIsa_ = SimdIsa::Scalar;
};

} // namespace cop::md
