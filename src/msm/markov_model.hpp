#pragma once

/// \file markov_model.hpp
/// Markov state model estimation and analysis: transition-matrix
/// estimators, stationary distribution, propagation p(t+tau) = p(t) T(tau)
/// (paper Eq. 1), implied timescales, mean first-passage times and
/// committors. The only settings are the lag and the estimator; counts
/// enter unmodified (no pseudocount prior), and the reversible MLE's
/// iteration budget and tolerance are fixed.

#include <cstddef>
#include <optional>
#include <vector>

#include "msm/linalg.hpp"
#include "msm/transition_counts.hpp"

namespace cop::msm {

enum class EstimatorKind {
    /// Naive maximum likelihood: T_ij = C_ij / sum_j C_ij. Not reversible.
    RowNormalized,
    /// Symmetrized counts (C + C^T)/2 then row-normalized: enforces
    /// detailed balance cheaply, but biases the stationary distribution
    /// towards the *sampling* distribution — a problem under adaptive
    /// sampling, which deliberately flattens sampling across states.
    Symmetrized,
    /// Reversible maximum-likelihood estimator (standard fixed-point
    /// iteration on the symmetric flow matrix x_ij): detailed balance
    /// without tying pi to the sampling distribution. Preferred for
    /// adaptive-sampling data; the default for the MSM controller.
    ReversibleMle,
};

struct MarkovModelParams {
    std::size_t lag = 1; ///< in snapshot intervals
    EstimatorKind estimator = EstimatorKind::ReversibleMle;
};

/// A fully estimated MSM over the largest connected subset of the input.
class MarkovStateModel {
public:
    /// Builds from the counts over all microstates: restricts them to the
    /// largest strongly connected set (touching only nonzeros), then runs
    /// the estimator on the dense restricted matrix.
    static MarkovStateModel fromCounts(const SparseCounts& counts,
                                       const MarkovModelParams& params);

    /// Convenience: count + estimate in one step.
    static MarkovStateModel fromTrajectories(
        const std::vector<DiscreteTrajectory>& trajs, std::size_t numStates,
        const MarkovModelParams& params);

    std::size_t numStates() const { return transition_.rows(); }
    const DenseMatrix& transitionMatrix() const { return transition_; }
    const DenseMatrix& countMatrix() const { return activeCounts_; }
    const MarkovModelParams& params() const { return params_; }

    /// Original microstate index of active state a.
    int activeState(std::size_t a) const { return activeStates_[a]; }
    const std::vector<int>& activeStates() const { return activeStates_; }
    /// Maps an original microstate index to its active index, or -1.
    int toActiveIndex(int microstate) const;

    /// Stationary distribution (left eigenvector of T with eigenvalue 1),
    /// computed by power iteration; cached.
    const std::vector<double>& stationaryDistribution() const;

    /// One propagation step: p' = p T (paper Eq. 1).
    std::vector<double> propagate(const std::vector<double>& p) const;

    /// n propagation steps.
    std::vector<double> propagate(std::vector<double> p,
                                  std::size_t nSteps) const;

    /// Leading eigenvalues (descending; includes the trivial 1.0) computed
    /// from the symmetrized transition matrix. Requires the Symmetrized
    /// estimator for exactness; for RowNormalized it is an approximation.
    std::vector<double> eigenvalues(std::size_t count) const;

    /// Implied timescales t_k = -lag / ln(lambda_k) for k >= 1 (skipping
    /// the stationary eigenvalue), in snapshot-interval units.
    std::vector<double> impliedTimescales(std::size_t count) const;

    /// Mean first-passage time from each active state to the target set
    /// (active indices), in lag units; solves the standard linear system.
    std::vector<double> meanFirstPassageTimes(
        const std::vector<int>& targetActiveStates) const;

    /// Forward committor from source set A to sink set B (active indices).
    std::vector<double> committor(const std::vector<int>& sourceA,
                                  const std::vector<int>& sinkB) const;

private:
    DenseMatrix transition_;
    DenseMatrix activeCounts_;
    std::vector<int> activeStates_;
    std::vector<int> toActive_;
    MarkovModelParams params_;
    mutable std::optional<std::vector<double>> stationary_;
};

/// Reversible transition-matrix MLE via the standard fixed-point iteration
/// on the symmetric flow matrix (at most 1000 sweeps, stopping once no
/// flow changes by 1e-12); exposed for tests and direct use.
DenseMatrix estimateReversibleMle(const DenseMatrix& counts);

/// Chapman-Kolmogorov test: max |T(lag)^k - T(k*lag)| over entries, for a
/// model re-estimated at lag k*lag from the same trajectories. Small values
/// indicate Markovian behaviour at `lag`.
double chapmanKolmogorovError(const std::vector<DiscreteTrajectory>& trajs,
                              std::size_t numStates, std::size_t lag,
                              std::size_t k,
                              const MarkovModelParams& params);

} // namespace cop::msm
