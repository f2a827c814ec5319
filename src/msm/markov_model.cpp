#include "msm/markov_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace cop::msm {

namespace {

/// Fixed-point iteration budget and convergence threshold of the
/// reversible MLE (the largest per-entry flow change between sweeps).
constexpr int kMleIterations = 1000;
constexpr double kMleTolerance = 1e-12;

} // namespace

MarkovStateModel MarkovStateModel::fromCounts(const SparseCounts& counts,
                                              const MarkovModelParams& params) {
    COP_REQUIRE(params.lag >= 1, "lag must be >= 1");
    MarkovStateModel model;
    model.params_ = params;
    model.activeStates_ = largestConnectedSet(counts);
    COP_REQUIRE(!model.activeStates_.empty(), "no connected states");
    model.activeCounts_ = restrictToStates(counts, model.activeStates_);

    model.toActive_.assign(counts.numStates(), -1);
    for (std::size_t a = 0; a < model.activeStates_.size(); ++a)
        model.toActive_[std::size_t(model.activeStates_[a])] = int(a);

    if (params.estimator == EstimatorKind::ReversibleMle) {
        model.transition_ = estimateReversibleMle(model.activeCounts_);
        return model;
    }
    const std::size_t n = model.activeStates_.size();
    DenseMatrix c = model.activeCounts_;
    if (params.estimator == EstimatorKind::Symmetrized) {
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j) {
                const double s = 0.5 * (c(i, j) + c(j, i));
                c(i, j) = c(j, i) = s;
            }
    }
    model.transition_ = DenseMatrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        double rowSum = 0.0;
        for (std::size_t j = 0; j < n; ++j) rowSum += c(i, j);
        if (rowSum <= 0.0) {
            model.transition_(i, i) = 1.0; // isolated single-state SCC
            continue;
        }
        for (std::size_t j = 0; j < n; ++j)
            model.transition_(i, j) = c(i, j) / rowSum;
    }
    return model;
}

DenseMatrix estimateReversibleMle(const DenseMatrix& counts) {
    // Standard fixed-point iteration for the reversible transition-matrix
    // MLE (Bowman et al. 2009 / the MSMBuilder "MLE" estimator): iterate
    //   x_ij <- (c_ij + c_ji) / (c_i / x_i + c_j / x_j)
    // on the symmetric flow matrix x, where c_i and x_i are row sums;
    // then T_ij = x_ij / x_i. The stationary distribution is x_i / sum(x),
    // decoupled from the per-state sampling volume.
    const std::size_t n = counts.rows();
    COP_REQUIRE(counts.cols() == n, "counts must be square");

    std::vector<double> cRow(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) cRow[i] += counts(i, j);

    DenseMatrix x(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            x(i, j) = counts(i, j) + counts(j, i);

    std::vector<double> xRow(n, 0.0);
    for (int iter = 0; iter < kMleIterations; ++iter) {
        std::fill(xRow.begin(), xRow.end(), 0.0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) xRow[i] += x(i, j);
        double delta = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i; j < n; ++j) {
                const double cSym = counts(i, j) + counts(j, i);
                if (cSym <= 0.0) continue;
                const double denom =
                    (xRow[i] > 0.0 ? cRow[i] / xRow[i] : 0.0) +
                    (xRow[j] > 0.0 ? cRow[j] / xRow[j] : 0.0);
                if (denom <= 0.0) continue;
                const double updated = cSym / denom;
                delta = std::max(delta, std::abs(updated - x(i, j)));
                x(i, j) = x(j, i) = updated;
            }
        }
        if (delta < kMleTolerance) break;
    }

    std::fill(xRow.begin(), xRow.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) xRow[i] += x(i, j);

    DenseMatrix t(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        if (xRow[i] <= 0.0) {
            t(i, i) = 1.0;
            continue;
        }
        for (std::size_t j = 0; j < n; ++j) t(i, j) = x(i, j) / xRow[i];
    }
    return t;
}

MarkovStateModel MarkovStateModel::fromTrajectories(
    const std::vector<DiscreteTrajectory>& trajs, std::size_t numStates,
    const MarkovModelParams& params) {
    return fromCounts(countTransitionsSparse(trajs, numStates, params.lag),
                      params);
}

int MarkovStateModel::toActiveIndex(int microstate) const {
    COP_REQUIRE(microstate >= 0 &&
                    std::size_t(microstate) < toActive_.size(),
                "microstate out of range");
    return toActive_[std::size_t(microstate)];
}

const std::vector<double>& MarkovStateModel::stationaryDistribution() const {
    if (stationary_) return *stationary_;
    const std::size_t n = numStates();
    std::vector<double> p(n, 1.0 / double(n));
    for (int iter = 0; iter < 100000; ++iter) {
        auto next = transition_.leftMultiply(p);
        double sum = 0.0;
        for (double v : next) sum += v;
        for (double& v : next) v /= sum;
        double delta = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            delta = std::max(delta, std::abs(next[i] - p[i]));
        p = std::move(next);
        if (delta < 1e-14) break;
    }
    stationary_ = std::move(p);
    return *stationary_;
}

std::vector<double> MarkovStateModel::propagate(
    const std::vector<double>& p) const {
    COP_REQUIRE(p.size() == numStates(), "distribution size mismatch");
    return transition_.leftMultiply(p);
}

std::vector<double> MarkovStateModel::propagate(std::vector<double> p,
                                                std::size_t nSteps) const {
    for (std::size_t s = 0; s < nSteps; ++s) p = propagate(p);
    return p;
}

std::vector<double> MarkovStateModel::eigenvalues(std::size_t count) const {
    const std::size_t n = numStates();
    const auto& pi = stationaryDistribution();
    // Similarity transform S = D^{1/2} T D^{-1/2}; symmetric when T obeys
    // detailed balance w.r.t. pi. Symmetrize defensively.
    DenseMatrix s(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const double denom = std::sqrt(std::max(pi[j], 1e-300));
            s(i, j) = std::sqrt(std::max(pi[i], 1e-300)) *
                      transition_(i, j) / denom;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
            const double v = 0.5 * (s(i, j) + s(j, i));
            s(i, j) = s(j, i) = v;
        }
    auto eig = symmetricEigen(std::move(s));
    eig.values.resize(std::min(count, eig.values.size()));
    return eig.values;
}

std::vector<double> MarkovStateModel::impliedTimescales(
    std::size_t count) const {
    const auto lambda = eigenvalues(count + 1);
    std::vector<double> ts;
    for (std::size_t k = 1; k < lambda.size(); ++k) {
        const double l = std::clamp(lambda[k], -1.0 + 1e-15, 1.0 - 1e-15);
        if (l <= 0.0) {
            ts.push_back(0.0); // faster than the lag; no meaningful timescale
            continue;
        }
        ts.push_back(-double(params_.lag) / std::log(l));
    }
    return ts;
}

std::vector<double> MarkovStateModel::meanFirstPassageTimes(
    const std::vector<int>& targetActiveStates) const {
    const std::size_t n = numStates();
    COP_REQUIRE(!targetActiveStates.empty(), "empty target set");
    std::vector<bool> isTarget(n, false);
    for (int t : targetActiveStates) {
        COP_REQUIRE(t >= 0 && std::size_t(t) < n, "target out of range");
        isTarget[std::size_t(t)] = true;
    }
    std::vector<std::size_t> q; // non-target states
    for (std::size_t i = 0; i < n; ++i)
        if (!isTarget[i]) q.push_back(i);

    std::vector<double> mfpt(n, 0.0);
    if (q.empty()) return mfpt;

    // (I - T_QQ) m = lag * 1
    DenseMatrix a(q.size(), q.size());
    std::vector<double> b(q.size(), double(params_.lag));
    for (std::size_t r = 0; r < q.size(); ++r)
        for (std::size_t col = 0; col < q.size(); ++col)
            a(r, col) = (r == col ? 1.0 : 0.0) - transition_(q[r], q[col]);
    const auto m = solveLinearSystem(std::move(a), std::move(b));
    for (std::size_t r = 0; r < q.size(); ++r) mfpt[q[r]] = m[r];
    return mfpt;
}

std::vector<double> MarkovStateModel::committor(
    const std::vector<int>& sourceA, const std::vector<int>& sinkB) const {
    const std::size_t n = numStates();
    COP_REQUIRE(!sourceA.empty() && !sinkB.empty(), "empty boundary set");
    std::vector<int> role(n, 0); // 0 = interior, 1 = A, 2 = B
    for (int s : sourceA) {
        COP_REQUIRE(s >= 0 && std::size_t(s) < n, "source out of range");
        role[std::size_t(s)] = 1;
    }
    for (int s : sinkB) {
        COP_REQUIRE(s >= 0 && std::size_t(s) < n, "sink out of range");
        COP_REQUIRE(role[std::size_t(s)] != 1, "A and B overlap");
        role[std::size_t(s)] = 2;
    }
    std::vector<std::size_t> interior;
    for (std::size_t i = 0; i < n; ++i)
        if (role[i] == 0) interior.push_back(i);

    std::vector<double> qc(n, 0.0);
    for (int s : sinkB) qc[std::size_t(s)] = 1.0;
    if (interior.empty()) return qc;

    // (I - T_II) q_I = T_IB * 1
    DenseMatrix a(interior.size(), interior.size());
    std::vector<double> b(interior.size(), 0.0);
    for (std::size_t r = 0; r < interior.size(); ++r) {
        for (std::size_t c = 0; c < interior.size(); ++c)
            a(r, c) =
                (r == c ? 1.0 : 0.0) - transition_(interior[r], interior[c]);
        for (std::size_t j = 0; j < n; ++j)
            if (role[j] == 2) b[r] += transition_(interior[r], j);
    }
    const auto sol = solveLinearSystem(std::move(a), std::move(b));
    for (std::size_t r = 0; r < interior.size(); ++r)
        qc[interior[r]] = sol[r];
    return qc;
}

double chapmanKolmogorovError(const std::vector<DiscreteTrajectory>& trajs,
                              std::size_t numStates, std::size_t lag,
                              std::size_t k,
                              const MarkovModelParams& params) {
    COP_REQUIRE(k >= 1, "k must be >= 1");
    MarkovModelParams p1 = params;
    p1.lag = lag;
    MarkovModelParams pk = params;
    pk.lag = lag * k;
    const auto m1 = MarkovStateModel::fromTrajectories(trajs, numStates, p1);
    const auto mk = MarkovStateModel::fromTrajectories(trajs, numStates, pk);

    // T1^k on m1's active set.
    DenseMatrix tk = DenseMatrix::identity(m1.numStates());
    for (std::size_t s = 0; s < k; ++s)
        tk = tk.multiply(m1.transitionMatrix());

    // Compare over microstates active in both models.
    double err = 0.0;
    for (std::size_t a = 0; a < m1.numStates(); ++a) {
        const int ia = m1.activeState(a);
        const int ka = mk.toActiveIndex(ia);
        if (ka < 0) continue;
        for (std::size_t b = 0; b < m1.numStates(); ++b) {
            const int ib = m1.activeState(b);
            const int kb = mk.toActiveIndex(ib);
            if (kb < 0) continue;
            err = std::max(err,
                           std::abs(tk(a, b) -
                                    mk.transitionMatrix()(std::size_t(ka),
                                                          std::size_t(kb))));
        }
    }
    return err;
}

} // namespace cop::msm
