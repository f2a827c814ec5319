#pragma once

/// \file fe_oracles.hpp
/// Reference BAR solver that production code never calls: Bennett's plain
/// logarithmic fixed point, started from the mean of the two one-sided
/// FEP estimates, with the variance taken in a separate pass at the final
/// deltaF. fe::bar solves the same equation by warm-started Newton; the
/// agreement tests compare the two. It lives in the cop_test_support
/// library, outside cop_fe.

#include <vector>

#include "fe/bar.hpp"

namespace cop::fe {

/// Bennett acceptance ratio by fixed-point iteration. `iterations` counts
/// fixed-point passes only; each call also makes one FEP pass before them
/// and one variance pass after them.
BarResult barFixedPointOracle(const std::vector<double>& forwardWork,
                              const std::vector<double>& reverseWork,
                              const BarParams& params = {});

} // namespace cop::fe
