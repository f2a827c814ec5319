#pragma once

/// \file workloads.hpp
/// The four end-to-end workloads of the adaptive-pipeline benchmark and
/// the code that runs one repetition of one of them: build a deployment
/// (overlay, two servers, workers executing real mdrun / fe_sample
/// commands), create the project, drive the event loop to completion and
/// collect everything e2e_bench reports. See README.md for why each
/// workload was chosen.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cop::e2e {

struct WorkloadSpec {
    std::string name;
    bool villin = true; ///< MSM villin project; false = BAR free energy
    /// WAL (default zero-delay group commit) + capped tiered store on both
    /// servers.
    bool durable = false;
    std::uint64_t defaultSeed = 2011;

    // --- villin (MsmController) ------------------------------------------
    int starts = 9;
    int tasksPerStart = 5;
    int generations = 6;
    std::size_t clusters = 100;
    std::int64_t segmentSteps = 2000;
    /// MsmControllerParams::msmRebuildRadiusFactor; <= 0 re-clusters all
    /// data every generation.
    double rebuildRadiusFactor = 1.5;
    /// Check that some frame folded (<= 3.5 A) and the best is <= 1.0 A.
    /// Every villin run checks that sampling got closer to native than
    /// any starting conformation.
    bool expectFold = true;
    /// Also seed one trajectory at the native structure (smoke only: a
    /// two-generation run cannot fold, and the fold check must still run).
    bool nativeStart = false;

    // --- BAR (BarController) ---------------------------------------------
    std::size_t windows = 16;
    int rounds = 30;
    int commandsPerRound = 2048;

    int workers = 8; ///< single-core workers, split over the two servers
};

/// The four full-size workloads, in suite order.
const std::vector<WorkloadSpec>& workloads();
/// Tiny versions of the same four (the --smoke mode).
const std::vector<WorkloadSpec>& smokeWorkloads();
/// Looks a workload up by name in `list`; throws InvalidArgument.
const WorkloadSpec& findWorkload(const std::vector<WorkloadSpec>& list,
                                 const std::string& name);

/// A reported metric; the lists must match BENCHMARK.json.
struct MetricDef {
    const char* name;
    const char* unit;
    const char* better; ///< "higher" or "lower"
};
/// Measured with tracing off, aggregated over repetitions by e2e_bench.
const std::vector<MetricDef>& endToEndMetrics();
/// From traced repetitions: the time ledger plus per-layer work counts.
const std::vector<MetricDef>& perLayerMetrics();

struct RepOptions {
    std::uint64_t seed = 0;
    bool traced = false;
    /// Deployments built (and timed) per repetition; the last one runs.
    int setups = 25;
    /// False: only time the set-ups (setup_s is the only result).
    bool runProject = true;
    /// Parent directory for the per-deployment mkdtemp WAL/store dirs.
    std::string scratchDir;
    /// Chrome trace-event JSON output of a traced repetition ("" = none).
    std::string traceFile;
};

/// Everything one repetition measured, as ordered key -> values. The
/// child process prints it one "key v1 v2 ..." line per entry for the
/// parent e2e_bench process to parse back.
using RepResult = std::map<std::string, std::vector<std::string>>;

/// Runs one repetition in this process. Correctness verdicts are part of
/// the result ("check.<name> 1|0" entries), not exceptions.
RepResult runRepetition(const WorkloadSpec& spec, const RepOptions& options);

} // namespace cop::e2e
