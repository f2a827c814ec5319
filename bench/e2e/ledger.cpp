#include "ledger.hpp"

#include <cstdio>

#include "mdlib/simulation.hpp"
#include "util/error.hpp"

namespace cop::e2e {

const char* layerName(Layer layer) {
    switch (layer) {
    case Layer::MdRestore: return "mdlib.restore";
    case Layer::MdRun: return "mdlib.run";
    case Layer::MdCheckpoint: return "mdlib.checkpoint";
    case Layer::OutputEncode: return "core.output_encode";
    case Layer::FeSample: return "fe.sample";
    case Layer::Exec: return "core.exec";
    case Layer::ControllerStart: return "core.controller_start";
    case Layer::ControllerIngest: return "core.controller_ingest";
    case Layer::ControllerGeneration: return "core.controller_generation";
    case Layer::Generation: return "generation";
    case Layer::Count_: break;
    }
    return "?";
}

void Ledger::add(Layer layer, Clock::time_point start, Clock::time_point end) {
    const auto i = std::size_t(layer);
    totals_[i] += std::chrono::duration<double>(end - start).count();
    ++counts_[i];
    const auto ns = [this](Clock::time_point t) {
        return std::int64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
                .count());
    };
    spans_.push_back(Span{ns(start), ns(end), generation_, layer});
}

double Ledger::measureSpanCost() {
    constexpr int kSpans = 200000;
    Ledger probe;
    const auto start = Clock::now();
    for (int i = 0; i < kSpans; ++i) Scope span(probe, Layer::Exec);
    return std::chrono::duration<double>(Clock::now() - start).count() /
           kSpans;
}

void Ledger::writeChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    COP_IO_CHECK(f != nullptr, "cannot write trace file " + path);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    bool first = true;
    for (const Span& s : spans_) {
        // Track 0 holds the generation spans, track 1 the layer spans
        // (nested exec -> mdlib spans render as a flame graph).
        const int tid = s.layer == Layer::Generation ? 0 : 1;
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"generation\":%d}}",
                     first ? "" : ",\n", layerName(s.layer), tid,
                     double(s.startNs) / 1e3,
                     double(s.endNs - s.startNs) / 1e3, s.generation);
        first = false;
    }
    std::fputs("\n]}\n", f);
    COP_IO_CHECK(std::fclose(f) == 0, "cannot write trace file " + path);
}

core::ExecutableHandler makeLedgerMdrun(core::DurationModel duration,
                                        Ledger& ledger) {
    COP_REQUIRE(duration != nullptr, "mdrun needs a duration model");
    // Mirrors core::makeMdrunExecutable call for call; only the spans and
    // work counters are new.
    return [duration, &ledger](const core::CommandSpec& cmd, int cores) {
        Ledger::Scope whole(ledger, Layer::Exec);
        COP_REQUIRE(cmd.steps > 0, "mdrun command needs steps > 0");
        md::Simulation sim = [&] {
            Ledger::Scope span(ledger, Layer::MdRestore);
            return md::Simulation::restore(cmd.input);
        }();
        const auto run = [&](std::int64_t steps) {
            Ledger::Scope span(ledger, Layer::MdRun);
            sim.run(steps);
            ledger.mdSteps += std::uint64_t(steps);
        };
        const auto checkpoint = [&] {
            Ledger::Scope span(ledger, Layer::MdCheckpoint);
            auto blob = sim.checkpoint();
            ledger.checkpointBytes += blob.size();
            return blob;
        };

        const std::int64_t phase = sim.state().step % cmd.steps;
        const std::int64_t remaining = cmd.steps - phase;

        core::Execution exec;
        exec.simSeconds = duration(remaining, cores);

        const std::int64_t quarter = remaining / 4;
        std::int64_t done = 0;
        for (int part = 0; part < 3 && quarter > 0; ++part) {
            run(quarter);
            done += quarter;
            exec.checkpoints.emplace_back(0.25 * (part + 1), checkpoint());
        }
        run(remaining - done);

        core::MdrunOutput out;
        out.segment = sim.takeTrajectory();
        out.checkpoint = checkpoint();

        exec.result.commandId = cmd.id;
        exec.result.projectId = cmd.projectId;
        exec.result.trajectoryId = cmd.trajectoryId;
        exec.result.generation = cmd.generation;
        exec.result.success = true;
        {
            Ledger::Scope span(ledger, Layer::OutputEncode);
            exec.result.output = out.encode();
        }
        return exec;
    };
}

core::ExecutableHandler timeHandler(core::ExecutableHandler inner,
                                    Layer layer, Ledger& ledger) {
    return [inner = std::move(inner), layer, &ledger](
               const core::CommandSpec& cmd, int cores) {
        Ledger::Scope whole(ledger, Layer::Exec);
        Ledger::Scope span(ledger, layer);
        return inner(cmd, cores);
    };
}

template <typename F>
void LedgerController::timed(F&& call) {
    const int before = progress_();
    const auto start = Ledger::Clock::now();
    call();
    const auto end = Ledger::Clock::now();
    ledger_->add(progress_() != before ? Layer::ControllerGeneration
                                       : Layer::ControllerIngest,
                 start, end);
}

void LedgerController::onProjectStart(core::ProjectContext& ctx) {
    Ledger::Scope span(*ledger_, Layer::ControllerStart);
    inner_->onProjectStart(ctx);
}

void LedgerController::onCommandFinished(core::ProjectContext& ctx,
                                         const core::CommandResult& result) {
    timed([&] { inner_->onCommandFinished(ctx, result); });
}

void LedgerController::onCommandFailed(core::ProjectContext& ctx,
                                       const core::CommandSpec& spec) {
    timed([&] { inner_->onCommandFailed(ctx, spec); });
}

} // namespace cop::e2e
