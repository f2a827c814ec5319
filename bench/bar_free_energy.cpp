/// Exercises the Bennett-acceptance-ratio free-energy controller — the
/// second plugin the paper ships with Copernicus (§5) — through the full
/// framework, and validates against the analytic result. Also demonstrates
/// the paper's §2 stop criterion: sampling continues until the standard
/// error of the output reaches a user-specified target.

#include <cstdio>

#include "core/backends.hpp"
#include "core/bar_controller.hpp"
#include "core/copernicus.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace cop;
using namespace cop::core;

int main() {
    Logger::instance().setLevel(LogLevel::Warn);
    std::printf("=== BAR free-energy controller (paper §5) ===\n\n");

    Table table({"target err (kT)", "rounds", "deltaF (kT)", "err (kT)",
                 "exact (kT)", "|bias|/err"});
    for (double target : {0.05, 0.02, 0.01}) {
        Deployment dep(1976);
        auto& server = dep.addServer("fe-server");
        for (int w = 0; w < 4; ++w) {
            ExecutableRegistry reg;
            reg.add("fe_sample",
                    makeFeSampleExecutable(linearDurationModel(0.01)));
            dep.addWorker("worker" + std::to_string(w), server,
                          WorkerConfig{}, std::move(reg),
                          links::intraCluster());
        }
        BarControllerParams bp;
        bp.first = {1.0, 0.0};
        bp.last = {6.0, 1.5};
        bp.numWindows = 5;
        bp.targetError = target;
        bp.maxRounds = 60;
        auto ctrl = std::make_unique<BarController>(bp);
        auto* c = ctrl.get();
        server.createProject({.name = "free_energy"}, std::move(ctrl));
        const bool done = dep.runUntilDone(1e12);
        const auto& est = *c->estimate();
        const double exact = c->analyticDeltaF();
        table.addRow(
            {formatFixed(target, 3), std::to_string(c->rounds()),
             formatFixed(est.totalDeltaF, 4),
             formatFixed(est.totalError, 4), formatFixed(exact, 4),
             formatFixed(std::abs(est.totalDeltaF - exact) /
                             std::max(est.totalError, 1e-12),
                         2)});
        if (!done) std::printf("WARNING: run did not converge\n");
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("expectation: the estimate stays within a few reported "
                "standard errors of the\nanalytic value, and tighter "
                "targets require more adaptive sampling rounds\n(commands "
                "are allocated to the windows with the largest error "
                "contribution,\nmirroring the MSM controller's adaptive "
                "weighting).\n");
    return 0;
}
