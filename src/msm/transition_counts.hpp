#pragma once

/// \file transition_counts.hpp
/// Lagged transition counting over discrete (state-assigned) trajectories,
/// plus strongly-connected-component analysis used to restrict the model to
/// its largest communicating subset (paper §3.2: "analysis was performed on
/// the largest connected subset of the Markovian transition matrix").
///
/// Unrestricted counts exist only as SparseCounts: a K-state MSM touches
/// only the observed transitions (typically a few per state), so a dense
/// K x K matrix would be mostly zeros. The sparse form supports
/// suffix-incremental updates (only the transitions introduced by newly
/// appended snapshots are counted), and SCC/restriction run directly on
/// it. Only the restricted active set, the estimators' working set, is
/// dense. All counts are integer-valued sums, so the serial, incremental
/// and threaded paths agree exactly.

#include <cstddef>
#include <utility>
#include <vector>

#include "msm/linalg.hpp"

namespace cop {
class ThreadPool;
}

namespace cop::msm {

/// A discrete trajectory: the microstate index of each stored snapshot, in
/// temporal order with a uniform snapshot spacing.
using DiscreteTrajectory = std::vector<int>;

/// Sparse transition-count matrix: per-row (column, count) pairs sorted by
/// column. Rows with no observed outgoing transitions stay empty.
class SparseCounts {
public:
    using Entry = std::pair<int, double>;
    using Row = std::vector<Entry>;

    SparseCounts() = default;
    explicit SparseCounts(std::size_t numStates) : rows_(numStates) {}

    std::size_t numStates() const { return rows_.size(); }

    /// Grows the state space (never shrinks; existing counts keep).
    void resize(std::size_t numStates);

    /// Adds `w` to entry (i, j), creating it if absent.
    void add(int i, int j, double w = 1.0);

    /// Count at (i, j); 0 for entries never added.
    double at(int i, int j) const;

    const Row& row(std::size_t i) const { return rows_[i]; }
    double rowSum(std::size_t i) const;
    std::size_t nonZeros() const;

    /// Adds every entry of `other` (state spaces must match).
    void addAll(const SparseCounts& other);

    bool operator==(const SparseCounts&) const = default;

private:
    std::vector<Row> rows_;
};

/// Counts transitions i -> j separated by `lag` snapshots, using the
/// sliding-window convention (every snapshot starts a transition). With a
/// pool, trajectories are counted in chunks whose partial matrices merge in
/// chunk order (integer sums, so the result is exact and identical to the
/// serial count).
SparseCounts countTransitionsSparse(
    const std::vector<DiscreteTrajectory>& trajs, std::size_t numStates,
    std::size_t lag, ThreadPool* pool = nullptr);

/// Adds only the transitions introduced by growing `traj` from `oldLength`
/// snapshots to its current length: every (t, t+lag) window whose end lands
/// in the new suffix. Counting each appended suffix exactly once reproduces
/// the from-scratch count.
void addSuffixTransitions(SparseCounts& counts,
                          const DiscreteTrajectory& traj, std::size_t lag,
                          std::size_t oldLength);

/// One pass over the trajectories counting every lag in `lags` at once —
/// the implied-timescale sweep shares a single traversal instead of
/// recounting per lag. Result order matches `lags`.
std::vector<SparseCounts> countTransitionsMultiLag(
    const std::vector<DiscreteTrajectory>& trajs, std::size_t numStates,
    const std::vector<std::size_t>& lags);

/// Tarjan strongly connected components of the directed graph with an edge
/// i -> j wherever counts(i, j) > 0. Returns the component id per state.
std::vector<int> stronglyConnectedComponents(const SparseCounts& counts);

/// States in the largest SCC (ties broken by total counts), ascending.
std::vector<int> largestConnectedSet(const SparseCounts& counts);

/// Restricts a count matrix to `states` (in their given order). The
/// restricted matrix is the estimators' working set (at most the cluster
/// count on a side), so it is dense.
DenseMatrix restrictToStates(const SparseCounts& counts,
                             const std::vector<int>& states);

} // namespace cop::msm
