/// Ablation for the paper's §3.2 claim: once state definitions stabilize,
/// adaptive (uncertainty) weighting "can boost sampling efficiency twofold
/// compared to even weighting". We run matched villin studies under each
/// scheme and compare exploration metrics at an equal command budget.

#include <algorithm>
#include <cstdio>

#include "mdlib/observables.hpp"
#include "msm/adaptive.hpp"
#include "msm/spectral.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "villin_study.hpp"

using namespace cop;

namespace {

struct AblationResult {
    std::size_t statesDiscovered = 0;
    /// The adaptive objective: total row-wise sampling variance proxy
    /// sum_i 1/(outCounts_i + 1) over observed states (lower = better
    /// constrained transition rows).
    double uncertaintyProxy = 0.0;
    /// Bayesian posterior stddev of the equilibrium folded fraction,
    /// from Dirichlet sampling of the count matrix.
    double foldedPosteriorStd = 0.0;
    double minRmsd = 0.0;
};

AblationResult runScheme(msm::WeightingScheme scheme, std::uint64_t seed) {
    // Bypass the shared driver so the weighting scheme can be set.
    Logger::instance().setLevel(LogLevel::Warn);
    core::Deployment dep(seed);
    auto& server = dep.addServer("s0");
    const double secondsPerStep = 0.1;
    for (int w = 0; w < 6; ++w) {
        core::ExecutableRegistry reg;
        reg.add("mdrun", core::makeMdrunExecutable(
                             core::linearDurationModel(secondsPerStep)));
        dep.addWorker("w" + std::to_string(w), server, core::WorkerConfig{},
                      std::move(reg), core::links::intraCluster());
    }
    auto model = md::villinGoModel();
    core::MsmControllerParams mp;
    mp.model = model;
    mp.startingConformations =
        md::makeUnfoldedConformations(model, 6, seed + 17);
    mp.tasksPerStart = 4;
    mp.segmentSteps = 3000;
    mp.maxGenerations = 5;
    mp.pipeline.numClusters = 80;
    mp.pipeline.snapshotStride = 3;
    mp.pipeline.medoidSweeps = 1;
    mp.weighting = scheme;
    // Scheme under test applies from generation 2 onward; generation 1 is
    // always Even (as in the paper's protocol).
    mp.evenGenerations = 1;
    mp.simulation = md::villinSimulationConfig();
    mp.seed = seed;
    auto ctrl = std::make_unique<core::MsmController>(mp);
    auto* c = ctrl.get();
    server.createProject({.name = "ablation"}, std::move(ctrl));
    dep.runUntilDone(1e12);

    AblationResult res;
    const auto& msmResult = *c->lastMsm();
    const auto observed = msmResult.observedStates();
    res.statesDiscovered =
        std::size_t(std::count(observed.begin(), observed.end(), true));
    for (double w : msm::adaptiveWeights(msmResult.sparseCounts, observed))
        res.uncertaintyProxy += w;

    // Posterior spread of the equilibrium folded fraction over the
    // active-set count matrix.
    const auto& msmModel = msmResult.model;
    std::vector<bool> folded(msmModel.numStates(), false);
    for (std::size_t a = 0; a < msmModel.numStates(); ++a) {
        const int micro = msmModel.activeState(a);
        folded[a] = md::toAngstrom(md::rmsd(
                        mp.model.native,
                        msmResult.centers[std::size_t(micro)])) <
                    md::kFoldedRmsdAngstrom;
    }
    cop::Rng postRng(seed + 31);
    const auto posterior = msm::transitionMatrixUncertainty(
        msmModel.countMatrix(),
        [&](const msm::DenseMatrix& t) {
            const auto pi = msm::stationaryOf(t, 20000, 1e-10);
            double f = 0.0;
            for (std::size_t a = 0; a < pi.size(); ++a)
                if (folded[a]) f += pi[a];
            return f;
        },
        60, postRng);
    res.foldedPosteriorStd = posterior.stddev;
    res.minRmsd = c->minRmsdAngstrom();
    return res;
}

} // namespace

int main() {
    std::printf("=== Ablation: even vs adaptive weighting (§3.2) ===\n\n");

    Table table({"scheme", "seed", "states", "sum 1/(counts+1)",
                 "folded posterior std", "min RMSD (A)"});
    double evenU = 0.0, adaptiveU = 0.0, evenP = 0.0, adaptiveP = 0.0;
    int n = 0;
    for (std::uint64_t seed : {101, 202}) {
        const auto even = runScheme(msm::WeightingScheme::Even, seed);
        const auto adaptive =
            runScheme(msm::WeightingScheme::Adaptive, seed);
        table.addRow({"even", std::to_string(seed),
                      std::to_string(even.statesDiscovered),
                      formatFixed(even.uncertaintyProxy, 2),
                      formatFixed(even.foldedPosteriorStd, 4),
                      formatFixed(even.minRmsd, 2)});
        table.addRow({"adaptive", std::to_string(seed),
                      std::to_string(adaptive.statesDiscovered),
                      formatFixed(adaptive.uncertaintyProxy, 2),
                      formatFixed(adaptive.foldedPosteriorStd, 4),
                      formatFixed(adaptive.minRmsd, 2)});
        evenU += even.uncertaintyProxy;
        adaptiveU += adaptive.uncertaintyProxy;
        evenP += even.foldedPosteriorStd;
        adaptiveP += adaptive.foldedPosteriorStd;
        ++n;
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper claim: adaptive weighting optimizes convergence of "
                "kinetic properties,\nup to ~2x sampling efficiency.\n"
                "measured (avg over seeds, equal command budget):\n"
                "  row-uncertainty proxy sum 1/(counts+1): even %.2f vs "
                "adaptive %.2f (%.2fx)\n"
                "  posterior std of folded fraction:       even %.4f vs "
                "adaptive %.4f\n",
                evenU / n, adaptiveU / n,
                adaptiveU > 0 ? (evenU / adaptiveU) : 0.0, evenP / n,
                adaptiveP / n);
    return 0;
}
