#pragma once

/// \file decomposition.hpp
/// Spatial domain decomposition — the "MPI across nodes" tier of the
/// paper's Fig. 6 hierarchy, realized here as an explicit model: the box
/// is split into slabs along its longest axis, particles are assigned to
/// domains, halo (ghost) regions of one cutoff width are computed, and
/// the per-step communication volume is reported. The communication
/// figures feed the intra-simulation bandwidth tier (500-2900 MB/s for
/// villin on 24-96 cores, §4). Only tests use it, so it lives in the
/// cop_test_support library, outside cop_mdlib.

#include <cstddef>
#include <vector>

#include "mdlib/pbc.hpp"
#include "util/vec3.hpp"

namespace cop::md {

struct Domain {
    /// Indices of particles owned by this domain.
    std::vector<int> owned;
    /// Indices of halo particles (owned by neighbours, within one cutoff
    /// of this domain's boundary) this domain needs for force evaluation.
    std::vector<int> halo;
    double lo = 0.0; ///< slab lower bound along the split axis
    double hi = 0.0; ///< slab upper bound
};

struct DecompositionStats {
    std::size_t domains = 0;
    std::size_t totalOwned = 0;
    std::size_t totalHalo = 0;
    /// Bytes exchanged per MD step: halo positions out + halo forces back
    /// (3 doubles each way per halo particle).
    std::size_t bytesPerStep = 0;
    /// Load imbalance: max owned / mean owned.
    double imbalance = 1.0;
};

class SlabDecomposition {
public:
    /// Splits `box` into `numDomains` slabs along its longest axis. The
    /// box must be periodic (the decomposition wraps around).
    SlabDecomposition(const Box& box, std::size_t numDomains,
                      double cutoff);

    /// Assigns particles to domains and computes halo lists.
    void decompose(const std::vector<Vec3>& positions);

    const std::vector<Domain>& domains() const { return domains_; }
    std::size_t numDomains() const { return domains_.size(); }
    int splitAxis() const { return axis_; }

    DecompositionStats stats() const;

    /// Bandwidth (bytes/s) this decomposition would need at a given MD
    /// step rate — comparable to the paper's intra-simulation numbers.
    double requiredBandwidth(double stepsPerSecond) const;

private:
    Box box_;
    double cutoff_;
    int axis_;
    double slabWidth_;
    std::vector<Domain> domains_;
};

} // namespace cop::md
