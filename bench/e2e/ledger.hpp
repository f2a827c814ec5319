#pragma once

/// \file ledger.hpp
/// Per-layer time ledger of a traced run, recorded from outside the
/// program: spans are timed around calls into each layer's public
/// functions, so nothing under src/ knows it is being traced.
///
/// A traced run swaps in three things:
///   - makeLedgerMdrun(): a bench-side mdrun handler that calls the same
///     public functions in the same order as core::makeMdrunExecutable
///     (restore, run x4 with checkpoints between, takeTrajectory,
///     checkpoint, encode) and times each call;
///   - LedgerController: a Controller decorator timing every callback,
///     split by whether the call advanced the generation (or BAR round);
///   - the per-event count of the benchmark's own event loop.
/// Spans (layer, start, end, enclosing generation) stay in memory and are
/// written at exit as Chrome trace-event JSON.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/backends.hpp"
#include "core/controller.hpp"

namespace cop::e2e {

enum class Layer : std::uint8_t {
    MdRestore,            ///< md::Simulation::restore
    MdRun,                ///< md::Simulation::run
    MdCheckpoint,         ///< md::Simulation::checkpoint (mid-run + final)
    OutputEncode,         ///< core::MdrunOutput::encode
    FeSample,             ///< the production fe_sample handler
    Exec,                 ///< a whole executable handler call
    ControllerStart,      ///< Controller::onProjectStart
    ControllerIngest,     ///< callbacks that did not advance the generation
    ControllerGeneration, ///< callbacks that advanced it (MSM / BAR refine)
    Generation,           ///< generation/round boundaries seen by the run loop
    Count_,
};

const char* layerName(Layer layer);

class Ledger {
public:
    using Clock = std::chrono::steady_clock;

    Ledger() : origin_(Clock::now()) {}

    /// Records one closed span.
    void add(Layer layer, Clock::time_point start, Clock::time_point end);

    /// Times the enclosing scope as one span of `layer`.
    class Scope {
    public:
        Scope(Ledger& ledger, Layer layer)
            : ledger_(&ledger), layer_(layer), start_(Clock::now()) {}
        ~Scope() { ledger_->add(layer_, start_, Clock::now()); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Ledger* ledger_;
        Layer layer_;
        Clock::time_point start_;
    };

    /// The generation subsequent spans belong to (their parent span).
    void setGeneration(int generation) { generation_ = generation; }

    double seconds(Layer layer) const {
        return totals_[std::size_t(layer)];
    }
    std::uint64_t calls(Layer layer) const {
        return counts_[std::size_t(layer)];
    }
    std::size_t spanCount() const { return spans_.size(); }

    /// Measured wall cost of recording one span (two clock reads and an
    /// append), so the tracing cost of a run is spanCount() times this:
    /// a direct figure that host drift cannot blur the way the traced
    /// vs untraced wall-time ratio is.
    static double measureSpanCost();

    // Work counters filled in by the traced mdrun handler.
    std::uint64_t mdSteps = 0;
    std::uint64_t checkpointBytes = 0;

    /// Writes every span as Chrome trace-event JSON (viewable in
    /// Perfetto). Generation spans go on their own track.
    void writeChromeTrace(const std::string& path) const;

private:
    struct Span {
        std::int64_t startNs;
        std::int64_t endNs;
        std::int32_t generation;
        Layer layer;
    };

    Clock::time_point origin_;
    int generation_ = 0;
    std::array<double, std::size_t(Layer::Count_)> totals_{};
    std::array<std::uint64_t, std::size_t(Layer::Count_)> counts_{};
    std::vector<Span> spans_;
};

/// The bench-side mdrun handler (see file comment). Its outputs and
/// mid-run checkpoints are byte-identical to core::makeMdrunExecutable's;
/// the faithfulness test and the trace-hash check both verify it.
core::ExecutableHandler makeLedgerMdrun(core::DurationModel duration,
                                        Ledger& ledger);

/// Wraps any handler in an Exec span plus an inner span of `layer`.
core::ExecutableHandler timeHandler(core::ExecutableHandler inner,
                                    Layer layer, Ledger& ledger);

/// Controller decorator timing every callback. `progress` reads the
/// inner controller's generation (MSM) or round (BAR) counter.
class LedgerController : public core::Controller {
public:
    LedgerController(std::unique_ptr<core::Controller> inner,
                     std::function<int()> progress, Ledger& ledger)
        : inner_(std::move(inner)), progress_(std::move(progress)),
          ledger_(&ledger) {}

    void onProjectStart(core::ProjectContext& ctx) override;
    void onCommandFinished(core::ProjectContext& ctx,
                           const core::CommandResult& result) override;
    void onCommandFailed(core::ProjectContext& ctx,
                         const core::CommandSpec& spec) override;
    bool isDone(const core::ProjectContext& ctx) const override {
        return inner_->isDone(ctx);
    }
    std::string statusReport(const core::ProjectContext& ctx) const override {
        return inner_->statusReport(ctx);
    }
    std::string handleClientCommand(core::ProjectContext& ctx,
                                    const std::string& command) override {
        return inner_->handleClientCommand(ctx, command);
    }

private:
    /// Runs `call` and books it as ingest or generation work.
    template <typename F>
    void timed(F&& call);

    std::unique_ptr<core::Controller> inner_;
    std::function<int()> progress_;
    Ledger* ledger_;
};

} // namespace cop::e2e
