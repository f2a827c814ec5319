/// The Copernicus BAR free-energy plugin (paper §5): a lambda chain of
/// sampling windows is farmed out as commands; sampling continues —
/// adaptively concentrated on the noisiest windows — until the total
/// standard error reaches the user's target (the §2 stop criterion).
///
///   $ ./build/examples/free_energy

#include <cstdio>

#include "core/backends.hpp"
#include "core/bar_controller.hpp"
#include "core/copernicus.hpp"
#include "util/logging.hpp"

using namespace cop;
using namespace cop::core;

int main() {
    Logger::instance().setLevel(LogLevel::Warn);

    Deployment dep(1976);
    auto& server = dep.addServer("fe-server");
    for (int w = 0; w < 3; ++w) {
        ExecutableRegistry reg;
        reg.add("fe_sample",
                makeFeSampleExecutable(linearDurationModel(0.02)));
        dep.addWorker("node" + std::to_string(w), server, WorkerConfig{},
                      std::move(reg), links::intraCluster());
    }

    BarControllerParams bp;
    bp.first = {1.0, 0.0}; // soft harmonic well at the origin
    bp.last = {8.0, 2.0};  // stiff well displaced by 2
    bp.numWindows = 6;
    bp.samplesPerCommand = 2000;
    bp.targetError = 0.01; // kT
    bp.maxRounds = 50;
    auto controller = std::make_unique<BarController>(bp);
    auto* barCtrl = controller.get();
    server.createProject({.name = "free_energy"}, std::move(controller));

    std::printf("sampling lambda chain until total error <= %.3f kT...\n",
                bp.targetError);
    const bool done = dep.runUntilDone(1e12);

    const auto& est = *barCtrl->estimate();
    std::printf("\nwindow breakdown after %d adaptive rounds:\n",
                barCtrl->rounds());
    for (std::size_t w = 0; w < est.windows.size(); ++w)
        std::printf("  window %zu: deltaF = %+.4f +/- %.4f kT "
                    "(converged in %d iterations)\n",
                    w, est.windows[w].deltaF, est.windows[w].standardError,
                    est.windows[w].iterations);

    std::printf("\ntotal:    deltaF = %+.4f +/- %.4f kT\n",
                est.totalDeltaF, est.totalError);
    std::printf("analytic: deltaF = %+.4f kT (0.5 ln(k1/k0))\n",
                barCtrl->analyticDeltaF());
    const double pull =
        std::abs(est.totalDeltaF - barCtrl->analyticDeltaF()) /
        est.totalError;
    std::printf("agreement: %.2f standard errors\n", pull);
    return done && pull < 5.0 ? 0 : 1;
}
