#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace cop {

void RunningStats::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / double(n_);
    m2_ += delta * (x - mean_);
}

void RunningStats::clear() { *this = RunningStats{}; }

double RunningStats::variance() const {
    return n_ > 1 ? m2_ / double(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::standardError() const {
    return n_ > 0 ? stddev() / std::sqrt(double(n_)) : 0.0;
}

double mean(std::span<const double> xs) {
    COP_REQUIRE(!xs.empty(), "mean of empty range");
    return std::accumulate(xs.begin(), xs.end(), 0.0) / double(xs.size());
}

double variance(std::span<const double> xs) {
    if (xs.size() < 2) return 0.0;
    RunningStats s;
    for (double x : xs) s.add(x);
    return s.variance();
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double standardError(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    return stddev(xs) / std::sqrt(double(xs.size()));
}

double percentile(std::vector<double> xs, double p) {
    COP_REQUIRE(!xs.empty(), "percentile of empty range");
    COP_REQUIRE(p >= 0.0 && p <= 100.0, "p must be in [0,100]");
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1) return xs[0];
    const double rank = p / 100.0 * double(xs.size() - 1);
    const std::size_t lo = std::size_t(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - double(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

} // namespace cop
