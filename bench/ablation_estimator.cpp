/// Ablation: transition-matrix estimator choice under adaptive sampling.
/// Adaptive sampling deliberately distorts the sampling distribution, so
/// the naive symmetrized estimator (pi tied to sampling volume) gives a
/// badly biased equilibrium, while the reversible MLE recovers it. This
/// is the estimation-layer decision that makes the paper's Fig. 4
/// (population dynamics and blind native-state prediction) work at all.

#include <cstdio>

#include "mdlib/observables.hpp"
#include "mdlib/units.hpp"
#include "msm/spectral.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "villin_study.hpp"

using namespace cop;

int main() {
    Logger::instance().setLevel(LogLevel::Warn);
    std::printf("=== Ablation: MSM estimator under adaptive sampling ===\n\n");

    // One adaptive villin study provides the (biased-sampling) data.
    bench::VillinStudyConfig cfg;
    cfg.generations = 5;
    const auto study = bench::runVillinStudy(cfg);
    const auto& ctrl = *study.controller;
    const auto& msmResult = *ctrl.lastMsm();
    const auto& native = ctrl.params().model.native;

    // Reference equilibrium: fraction of direct long unbiased
    // trajectories that are folded at their end (ground truth for the Gō
    // model at this temperature, measured in Fig. 5's bench: ~0.8).
    auto foldedFractionOf = [&](const msm::MarkovStateModel& m) {
        const auto& pi = m.stationaryDistribution();
        double f = 0.0;
        for (std::size_t a = 0; a < m.numStates(); ++a) {
            const int micro = m.activeState(a);
            if (md::toAngstrom(md::rmsd(
                    native, msmResult.centers[std::size_t(micro)])) <
                md::kFoldedRmsdAngstrom)
                f += pi[a];
        }
        return f;
    };

    Table table({"estimator", "folded fraction", "detailed balance",
                 "slowest timescale (ns)"});
    const double nsPerSnapshot = md::stepsToNs(
        double(ctrl.params().pipeline.snapshotStride *
               ctrl.params().simulation.sampleInterval));
    for (auto kind : {msm::EstimatorKind::RowNormalized,
                      msm::EstimatorKind::Symmetrized,
                      msm::EstimatorKind::ReversibleMle}) {
        msm::MarkovModelParams mp;
        mp.lag = ctrl.params().pipeline.lag;
        mp.estimator = kind;
        const auto m =
            msm::MarkovStateModel::fromCounts(msmResult.sparseCounts, mp);
        // Detailed-balance residual max |pi_i T_ij - pi_j T_ji|.
        const auto& pi = m.stationaryDistribution();
        double db = 0.0;
        for (std::size_t i = 0; i < m.numStates(); ++i)
            for (std::size_t j = 0; j < m.numStates(); ++j)
                db = std::max(db,
                              std::abs(pi[i] * m.transitionMatrix()(i, j) -
                                       pi[j] * m.transitionMatrix()(j, i)));
        const auto ts = m.impliedTimescales(1);
        const char* name = kind == msm::EstimatorKind::RowNormalized
                               ? "row-normalized"
                               : kind == msm::EstimatorKind::Symmetrized
                                     ? "symmetrized"
                                     : "reversible MLE";
        table.addRow({name, formatFixed(foldedFractionOf(m), 3),
                      formatFixed(db, 6),
                      ts.empty() ? "-"
                                 : formatFixed(ts[0] * nsPerSnapshot, 0)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("reference: direct unbiased 2 us simulations fold ~80%% "
                "of trajectories\n(fig5 bench). The symmetrized estimator "
                "drags the folded population towards\nthe adaptive "
                "sampling distribution; the reversible MLE decouples "
                "them while\nkeeping detailed balance exact.\n");
    return 0;
}
