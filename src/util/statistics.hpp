#pragma once

/// \file statistics.hpp
/// Running moments (Welford's algorithm), sample mean/variance/standard
/// error and percentiles. RunningStats accumulates the MSM controller's
/// best-state RMSD score and the Fig. 5 bench's error bars; the tests use
/// the rest to check sampled averages.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cop {

/// Numerically stable single-pass accumulator (Welford's algorithm).
class RunningStats {
public:
    void add(double x);
    void clear();

    std::size_t count() const { return n_; }
    double mean() const { return mean_; }
    /// Sample variance (divides by n-1). Zero for n < 2.
    double variance() const;
    double stddev() const;
    /// Naive standard error of the mean: stddev / sqrt(n).
    double standardError() const;
    double min() const { return min_; }
    double max() const { return max_; }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);   ///< Sample variance (n-1).
double stddev(std::span<const double> xs);
double standardError(std::span<const double> xs);

/// Simple percentile (linear interpolation between order statistics).
/// p in [0, 100].
double percentile(std::vector<double> xs, double p);

} // namespace cop
