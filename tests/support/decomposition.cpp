#include "support/decomposition.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace cop::md {

SlabDecomposition::SlabDecomposition(const Box& box, std::size_t numDomains,
                                     double cutoff)
    : box_(box), cutoff_(cutoff) {
    COP_REQUIRE(box.periodic, "decomposition needs a periodic box");
    COP_REQUIRE(numDomains >= 1, "need at least one domain");
    COP_REQUIRE(cutoff > 0.0, "cutoff must be positive");

    axis_ = 0;
    for (int d = 1; d < 3; ++d)
        if (box.lengths[d] > box.lengths[axis_]) axis_ = d;
    slabWidth_ = box.lengths[axis_] / double(numDomains);
    COP_REQUIRE(numDomains == 1 || slabWidth_ >= cutoff,
                "slabs thinner than the cutoff; use fewer domains");

    domains_.resize(numDomains);
    for (std::size_t d = 0; d < numDomains; ++d) {
        domains_[d].lo = double(d) * slabWidth_;
        domains_[d].hi = double(d + 1) * slabWidth_;
    }
}

void SlabDecomposition::decompose(const std::vector<Vec3>& positions) {
    for (auto& d : domains_) {
        d.owned.clear();
        d.halo.clear();
    }
    const std::size_t k = domains_.size();
    const double boxLen = box_.lengths[axis_];

    for (std::size_t p = 0; p < positions.size(); ++p) {
        const double x = box_.wrap(positions[p])[axis_];
        auto home = std::size_t(x / slabWidth_);
        if (home >= k) home = k - 1; // fp edge
        domains_[home].owned.push_back(int(p));
        if (k == 1) continue;

        // A particle within `cutoff` of a slab face is halo for the
        // neighbour across that face (with periodic wrap-around).
        const double lo = domains_[home].lo;
        const double hi = domains_[home].hi;
        if (x - lo < cutoff_) {
            const std::size_t left = (home + k - 1) % k;
            if (left != home) domains_[left].halo.push_back(int(p));
        }
        if (hi - x < cutoff_) {
            const std::size_t right = (home + 1) % k;
            if (right != home) domains_[right].halo.push_back(int(p));
        }
        // Very thin boxes relative to the cutoff can need two-away
        // neighbours; the constructor forbids that regime.
        (void)boxLen;
    }
}

DecompositionStats SlabDecomposition::stats() const {
    DecompositionStats s;
    s.domains = domains_.size();
    std::size_t maxOwned = 0;
    for (const auto& d : domains_) {
        s.totalOwned += d.owned.size();
        s.totalHalo += d.halo.size();
        maxOwned = std::max(maxOwned, d.owned.size());
    }
    // Positions out and forces back for each halo particle, 3 doubles
    // each (24 bytes), both directions of the exchange.
    s.bytesPerStep = s.totalHalo * 2 * 3 * sizeof(double);
    const double mean =
        s.domains ? double(s.totalOwned) / double(s.domains) : 0.0;
    s.imbalance = mean > 0.0 ? double(maxOwned) / mean : 1.0;
    return s;
}

double SlabDecomposition::requiredBandwidth(double stepsPerSecond) const {
    return double(stats().bytesPerStep) * stepsPerSecond;
}

} // namespace cop::md
