/// \file mdrun_faithfulness.cpp
/// Byte-compares the benchmark's traced mdrun handler (makeLedgerMdrun)
/// with core::makeMdrunExecutable: result, output payload, virtual
/// duration and every mid-run checkpoint, over chained segment-aligned
/// commands and commands resuming mid-segment (phase != 0). Exits 1 on
/// the first difference.

#include <cstdio>

#include "core/backends.hpp"
#include "ledger.hpp"
#include "mdlib/proteins.hpp"
#include "util/serialize.hpp"

using namespace cop;

namespace {

constexpr std::int64_t kSteps = 200;

std::vector<std::uint8_t> resultBytes(const core::CommandResult& r) {
    BinaryWriter w;
    r.serialize(w);
    return w.takeBuffer();
}

} // namespace

int main() {
    const auto model = md::villinGoModel();
    const auto starts = md::makeUnfoldedConformations(model, 4, 17);
    const auto duration = core::linearDurationModel(1e-3);
    const auto production = core::makeMdrunExecutable(duration);
    e2e::Ledger ledger;
    const auto traced = e2e::makeLedgerMdrun(duration, ledger);

    int compared = 0;
    int midSegment = 0;
    std::uint64_t expectedSteps = 0;
    auto compare = [&](std::vector<std::uint8_t> input) {
        core::CommandSpec cmd;
        cmd.id = core::CommandId(compared + 1);
        cmd.executable = "mdrun";
        cmd.steps = kSteps;
        cmd.trajectoryId = compared % 7;
        cmd.generation = compared % 3;
        cmd.input = std::move(input);
        const int cores = compared % 2 ? 24 : 1;
        const auto phase = md::Simulation::restore(cmd.input).state().step % kSteps;
        if (phase != 0) ++midSegment;
        expectedSteps += std::uint64_t(kSteps - phase);

        const auto a = production(cmd, cores);
        const auto b = traced(cmd, cores);
        ++compared;
        if (a.simSeconds != b.simSeconds ||
            resultBytes(a.result) != resultBytes(b.result) ||
            a.checkpoints != b.checkpoints) {
            std::fprintf(stderr, "FAIL command %d (phase %lld) differs\n",
                         compared, static_cast<long long>(phase));
            std::exit(1);
        }
        return core::MdrunOutput::decode(a.result.output).checkpoint;
    };

    for (std::size_t i = 0; i < starts.size(); ++i) {
        auto cfg = md::villinSimulationConfig(i + 1);
        // Trajectory extension, as the MSM controller chains segments.
        auto sim = md::Simulation::forGoModel(model, starts[i], cfg);
        sim.initializeVelocities();
        auto blob = sim.checkpoint();
        for (int seg = 0; seg < 4; ++seg) blob = compare(std::move(blob));
        // Requeued commands resume from a mid-segment checkpoint; 198
        // leaves fewer steps than quarters, so no mid-run checkpoints.
        for (std::int64_t offset : {70, 198}) {
            auto resumed = md::Simulation::forGoModel(model, starts[i], cfg);
            resumed.initializeVelocities();
            resumed.run(offset);
            compare(resumed.checkpoint());
        }
    }

    if (compared < 20 || midSegment == 0 ||
        ledger.calls(e2e::Layer::Exec) != std::uint64_t(compared) ||
        ledger.mdSteps != expectedSteps) {
        std::fprintf(stderr, "FAIL coverage or ledger accounting\n");
        return 1;
    }
    std::printf("mdrun faithfulness: %d commands (%d mid-segment) "
                "byte-identical\n",
                compared, midSegment);
    return 0;
}
