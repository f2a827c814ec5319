#include "msm/transition_counts.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cop::msm {

void SparseCounts::resize(std::size_t numStates) {
    COP_REQUIRE(numStates >= rows_.size(), "SparseCounts cannot shrink");
    rows_.resize(numStates);
}

void SparseCounts::add(int i, int j, double w) {
    COP_REQUIRE(i >= 0 && std::size_t(i) < rows_.size() && j >= 0 &&
                    std::size_t(j) < rows_.size(),
                "state index out of range");
    Row& row = rows_[std::size_t(i)];
    auto it = std::lower_bound(
        row.begin(), row.end(), j,
        [](const Entry& e, int col) { return e.first < col; });
    if (it != row.end() && it->first == j)
        it->second += w;
    else
        row.insert(it, {j, w});
}

double SparseCounts::at(int i, int j) const {
    COP_REQUIRE(i >= 0 && std::size_t(i) < rows_.size() && j >= 0 &&
                    std::size_t(j) < rows_.size(),
                "state index out of range");
    const Row& row = rows_[std::size_t(i)];
    auto it = std::lower_bound(
        row.begin(), row.end(), j,
        [](const Entry& e, int col) { return e.first < col; });
    return (it != row.end() && it->first == j) ? it->second : 0.0;
}

double SparseCounts::rowSum(std::size_t i) const {
    double s = 0.0;
    for (const auto& [j, w] : rows_[i]) s += w;
    return s;
}

std::size_t SparseCounts::nonZeros() const {
    std::size_t n = 0;
    for (const auto& row : rows_) n += row.size();
    return n;
}

void SparseCounts::addAll(const SparseCounts& other) {
    COP_REQUIRE(other.numStates() == numStates(),
                "SparseCounts state-space mismatch");
    for (std::size_t i = 0; i < other.rows_.size(); ++i)
        for (const auto& [j, w] : other.rows_[i]) add(int(i), j, w);
}

SparseCounts countTransitionsSparse(
    const std::vector<DiscreteTrajectory>& trajs, std::size_t numStates,
    std::size_t lag, ThreadPool* pool) {
    COP_REQUIRE(lag >= 1, "lag must be >= 1");
    auto countRange = [&](std::size_t lo, std::size_t hi) {
        SparseCounts partial(numStates);
        for (std::size_t t = lo; t < hi; ++t)
            addSuffixTransitions(partial, trajs[t], lag, 0);
        return partial;
    };
    if (pool != nullptr && pool->size() > 1 && trajs.size() >= 4) {
        // Partial matrices merge in chunk order; every cell is an integer
        // sum, so the merged result equals the serial count exactly.
        return pool->parallelReduceChunked(
            std::size_t{0}, trajs.size(), SparseCounts(numStates),
            countRange, [](SparseCounts acc, const SparseCounts& p) {
                acc.addAll(p);
                return acc;
            });
    }
    return countRange(0, trajs.size());
}

void addSuffixTransitions(SparseCounts& counts,
                          const DiscreteTrajectory& traj, std::size_t lag,
                          std::size_t oldLength) {
    COP_REQUIRE(lag >= 1, "lag must be >= 1");
    COP_REQUIRE(oldLength <= traj.size(), "suffix start past end");
    // Windows already counted end before oldLength; new ones end at
    // [oldLength, size), i.e. start at [oldLength - lag, size - lag).
    const std::size_t start = oldLength > lag ? oldLength - lag : 0;
    for (std::size_t t = start; t + lag < traj.size(); ++t)
        counts.add(traj[t], traj[t + lag]);
}

std::vector<SparseCounts> countTransitionsMultiLag(
    const std::vector<DiscreteTrajectory>& trajs, std::size_t numStates,
    const std::vector<std::size_t>& lags) {
    std::vector<SparseCounts> out(lags.size(), SparseCounts(numStates));
    for (const auto& traj : trajs) {
        for (std::size_t t = 0; t < traj.size(); ++t) {
            for (std::size_t l = 0; l < lags.size(); ++l) {
                COP_REQUIRE(lags[l] >= 1, "lag must be >= 1");
                if (t + lags[l] < traj.size())
                    out[l].add(traj[t], traj[t + lags[l]]);
            }
        }
    }
    return out;
}

namespace {

/// Iterative Tarjan SCC over ascending adjacency lists (explicit stack to
/// avoid recursion-depth limits).
class TarjanScc {
public:
    explicit TarjanScc(std::vector<std::vector<int>> adjacency)
        : n_(adjacency.size()), adj_(std::move(adjacency)) {
        index_.assign(n_, -1);
        lowlink_.assign(n_, 0);
        onStack_.assign(n_, false);
        component_.assign(n_, -1);
    }

    std::vector<int> run() {
        for (std::size_t v = 0; v < n_; ++v)
            if (index_[v] < 0) strongConnect(v);
        return component_;
    }

private:
    struct Frame {
        std::size_t v;
        std::size_t nextChild;
    };

    void strongConnect(std::size_t root) {
        std::vector<Frame> callStack{{root, 0}};
        while (!callStack.empty()) {
            Frame& f = callStack.back();
            const std::size_t v = f.v;
            if (f.nextChild == 0) {
                index_[v] = lowlink_[v] = counter_++;
                stack_.push_back(v);
                onStack_[v] = true;
            }
            bool descended = false;
            while (f.nextChild < adj_[v].size()) {
                const std::size_t w = std::size_t(adj_[v][f.nextChild++]);
                if (index_[w] < 0) {
                    callStack.push_back({w, 0});
                    descended = true;
                    break;
                }
                if (onStack_[w])
                    lowlink_[v] = std::min(lowlink_[v], index_[w]);
            }
            if (descended) continue;
            if (lowlink_[v] == index_[v]) {
                for (;;) {
                    const std::size_t w = stack_.back();
                    stack_.pop_back();
                    onStack_[w] = false;
                    component_[w] = nextComponent_;
                    if (w == v) break;
                }
                ++nextComponent_;
            }
            callStack.pop_back();
            if (!callStack.empty()) {
                const std::size_t parent = callStack.back().v;
                lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
            }
        }
    }

    std::size_t n_;
    std::vector<std::vector<int>> adj_;
    std::vector<int> index_;
    std::vector<int> lowlink_;
    std::vector<bool> onStack_;
    std::vector<int> component_;
    std::vector<std::size_t> stack_;
    int counter_ = 0;
    int nextComponent_ = 0;
};

std::vector<std::vector<int>> adjacencyOf(const SparseCounts& counts) {
    std::vector<std::vector<int>> adj(counts.numStates());
    for (std::size_t v = 0; v < counts.numStates(); ++v)
        for (const auto& [w, c] : counts.row(v))
            if (c > 0.0 && std::size_t(w) != v) adj[v].push_back(w);
    return adj;
}

} // namespace

std::vector<int> stronglyConnectedComponents(const SparseCounts& counts) {
    return TarjanScc(adjacencyOf(counts)).run();
}

std::vector<int> largestConnectedSet(const SparseCounts& counts) {
    const auto comp = stronglyConnectedComponents(counts);
    const std::size_t n = counts.numStates();
    int nComp = 0;
    for (int c : comp) nComp = std::max(nComp, c + 1);

    // Most members wins; ties go to the larger total outgoing count.
    std::vector<std::size_t> sizes(std::size_t(nComp), 0);
    std::vector<double> weight(std::size_t(nComp), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        ++sizes[std::size_t(comp[i])];
        weight[std::size_t(comp[i])] += counts.rowSum(i);
    }
    int best = 0;
    for (int c = 1; c < nComp; ++c) {
        if (sizes[std::size_t(c)] > sizes[std::size_t(best)] ||
            (sizes[std::size_t(c)] == sizes[std::size_t(best)] &&
             weight[std::size_t(c)] > weight[std::size_t(best)]))
            best = c;
    }
    std::vector<int> states;
    for (std::size_t i = 0; i < n; ++i)
        if (comp[i] == best) states.push_back(int(i));
    return states;
}

DenseMatrix restrictToStates(const SparseCounts& counts,
                             const std::vector<int>& states) {
    // Scatter the kept rows through an old-state -> new-index map; touches
    // only the nonzeros instead of a |states|^2 probe.
    std::vector<int> toNew(counts.numStates(), -1);
    for (std::size_t a = 0; a < states.size(); ++a)
        toNew[std::size_t(states[a])] = int(a);
    DenseMatrix out(states.size(), states.size());
    for (std::size_t a = 0; a < states.size(); ++a)
        for (const auto& [j, w] : counts.row(std::size_t(states[a]))) {
            const int b = toNew[std::size_t(j)];
            if (b >= 0) out(a, std::size_t(b)) = w;
        }
    return out;
}

} // namespace cop::msm
