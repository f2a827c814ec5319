/// Engineering microbenchmarks for the MSM layer: clustering, transition
/// counting, estimation and propagation at the scales the controller uses.

#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>

#include "mdlib/observables.hpp"
#include "mdlib/proteins.hpp"
#include "msm/clustering.hpp"
#include "msm/markov_model.hpp"
#include "msm/pipeline.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

using namespace cop;
using namespace cop::msm;

namespace {

ConformationSet randomConformations(std::size_t count, std::size_t atoms,
                                    std::uint64_t seed) {
    Rng rng(seed);
    ConformationSet set;
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<Vec3> conf;
        for (std::size_t a = 0; a < atoms; ++a)
            conf.push_back(rng.gaussianVec3(2.0));
        set.add(std::move(conf));
    }
    return set;
}

// The MSM layer's metric on its own: every pair of 12 unfolded villin
// conformations (35 beads), centered once as ConformationSet caches them.
// items_per_second is RMSD evaluations per second.
void BM_RmsdCentered(benchmark::State& state) {
    struct Frame {
        std::vector<Vec3> xs;
        double norm2 = 0.0;
    };
    // Built once: the harness calls this function for every trial run.
    static const std::vector<Frame> frames = [] {
        std::vector<Frame> out;
        const auto model = md::villinGoModel();
        for (const auto& x : md::makeUnfoldedConformations(model, 12, 17)) {
            Frame f;
            f.xs = md::centered(x, f.norm2);
            out.push_back(std::move(f));
        }
        return out;
    }();
    std::int64_t pairs = 0;
    for (auto _ : state) {
        double sum = 0.0;
        for (std::size_t i = 0; i < frames.size(); ++i)
            for (std::size_t j = i + 1; j < frames.size(); ++j, ++pairs)
                sum += md::rmsdCentered(frames[i].xs, frames[j].xs,
                                        frames[i].norm2, frames[j].norm2);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(pairs);
}
BENCHMARK(BM_RmsdCentered);

void BM_KCenters(benchmark::State& state) {
    const auto data =
        randomConformations(std::size_t(state.range(0)), 35, 3);
    KCentersParams p;
    p.numClusters = std::size_t(state.range(1));
    const auto nThreads = std::size_t(state.range(2));
    std::optional<ThreadPool> pool;
    if (nThreads > 1) pool.emplace(nThreads);
    for (auto _ : state) {
        auto r = kCenters(data, p, pool ? &*pool : nullptr);
        benchmark::DoNotOptimize(r.centers.size());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            state.range(0) * state.range(1));
}
BENCHMARK(BM_KCenters)
    ->ArgsProduct({{500, 2000}, {50, 100}, {1, 4}})
    ->ArgNames({"snapshots", "k", "threads"});

std::vector<DiscreteTrajectory> randomDiscrete(std::size_t trajs,
                                               std::size_t len,
                                               std::size_t states,
                                               std::uint64_t seed) {
    Rng rng(seed);
    std::vector<DiscreteTrajectory> out(trajs);
    for (auto& t : out) {
        int s = int(rng.uniformInt(states));
        for (std::size_t i = 0; i < len; ++i) {
            if (rng.uniform() < 0.2) s = int(rng.uniformInt(states));
            t.push_back(s);
        }
    }
    return out;
}

void BM_CountTransitions(benchmark::State& state) {
    const auto trajs = randomDiscrete(225, 200, 200, 5);
    for (auto _ : state) {
        auto c = countTransitionsSparse(trajs, 200, 1);
        benchmark::DoNotOptimize(c.nonZeros());
    }
}
BENCHMARK(BM_CountTransitions);

void BM_EstimateModel(benchmark::State& state) {
    const auto trajs = randomDiscrete(50, 200, std::size_t(state.range(0)), 7);
    const auto counts =
        countTransitionsSparse(trajs, std::size_t(state.range(0)), 1);
    MarkovModelParams p;
    for (auto _ : state) {
        auto m = MarkovStateModel::fromCounts(counts, p);
        benchmark::DoNotOptimize(m.numStates());
    }
}
BENCHMARK(BM_EstimateModel)->Arg(100)->Arg(300)->ArgNames({"states"});

void BM_StationaryDistribution(benchmark::State& state) {
    const auto trajs = randomDiscrete(50, 500, 200, 9);
    const auto m = MarkovStateModel::fromTrajectories(trajs, 200, {});
    for (auto _ : state) {
        // Propagation dominates an MSM analysis pass; stationary caches,
        // so benchmark propagate instead.
        std::vector<double> p(m.numStates(), 1.0 / double(m.numStates()));
        p = m.propagate(p, 50);
        benchmark::DoNotOptimize(p[0]);
    }
}
BENCHMARK(BM_StationaryDistribution);

void BM_ImpliedTimescales(benchmark::State& state) {
    const auto trajs = randomDiscrete(50, 500, 100, 11);
    const auto m = MarkovStateModel::fromTrajectories(trajs, 100, {});
    for (auto _ : state) {
        auto ts = m.impliedTimescales(5);
        benchmark::DoNotOptimize(ts.size());
    }
}
BENCHMARK(BM_ImpliedTimescales);

// --- Adaptive-generation sweep: full rebuild vs incremental update -------
//
// Models the MSM controller's workload: every generation spawns
// kTrajsPerGen new trajectories of kSnapsPerTraj snapshots, and the MSM is
// re-built over everything accumulated so far. BM_MsmFullGeneration pays
// the from-scratch pipeline at generation g; BM_MsmIncrementalGeneration
// replays generations 1..g-1 untimed and measures only the g-th update.
// Compare the two at gen:8 for the headline speedup.

constexpr int kTrajsPerGen = 30;
constexpr std::size_t kSnapsPerTraj = 30;
constexpr std::size_t kBenchAtoms = 35;
constexpr int kMaxGenerations = 8;

const std::vector<md::Trajectory>& generationTrajectories() {
    static const std::vector<md::Trajectory> all = [] {
        Rng rng(21);
        // Basin-structured shapes (RMSD is superposition-invariant, so the
        // basins differ in shape): incremental assignment stays within the
        // frozen centers' coverage and the builder never falls back.
        std::vector<std::vector<Vec3>> basins;
        for (int b = 0; b < 10; ++b) {
            std::vector<Vec3> proto;
            for (std::size_t a = 0; a < kBenchAtoms; ++a)
                proto.push_back(rng.gaussianVec3(2.0));
            basins.push_back(std::move(proto));
        }
        std::vector<md::Trajectory> trajs;
        for (int g = 0; g < kMaxGenerations; ++g) {
            for (int t = 0; t < kTrajsPerGen; ++t) {
                md::Trajectory traj;
                for (std::size_t f = 0; f < kSnapsPerTraj; ++f) {
                    auto conf = basins[rng.uniformInt(basins.size())];
                    for (auto& v : conf) v += rng.gaussianVec3(0.05);
                    traj.append(std::int64_t(f), double(f), std::move(conf));
                }
                trajs.push_back(std::move(traj));
            }
        }
        return trajs;
    }();
    return all;
}

MsmPipelineParams generationPipelineParams() {
    MsmPipelineParams p;
    p.numClusters = 100;
    p.snapshotStride = 1;
    p.lag = 1;
    // Row-normalized estimator: the estimation tail is shared by both
    // variants, so keep it cheap to expose the rebuild cost difference.
    p.estimator = EstimatorKind::RowNormalized;
    p.medoidSweeps = 1;
    p.seed = 13;
    return p;
}

std::vector<std::pair<int, const md::Trajectory*>> generationRefs(int gen) {
    const auto& all = generationTrajectories();
    std::vector<std::pair<int, const md::Trajectory*>> refs;
    for (int t = 0; t < gen * kTrajsPerGen; ++t)
        refs.emplace_back(t, &all[std::size_t(t)]);
    return refs;
}

void recordMsmCounters(benchmark::State& state, const MsmStats& stats) {
    state.counters["snapshots"] = double(stats.snapshotsTotal);
    state.counters["rmsd_calls"] = double(stats.rmsd.calls);
    state.counters["rmsd_pruned"] = double(stats.rmsd.pruned);
    state.counters["prune_rate"] = stats.rmsd.pruneFraction();
    state.counters["full_rebuild"] = stats.fullRebuild ? 1.0 : 0.0;
}

void BM_MsmFullGeneration(benchmark::State& state) {
    const int gen = int(state.range(0));
    const auto refs = generationRefs(gen);
    TrajectoryRefs trajs;
    for (const auto& [id, traj] : refs) trajs.push_back(traj);
    const auto params = generationPipelineParams();
    MsmStats last;
    for (auto _ : state) {
        auto r = buildMsm(trajs, params);
        benchmark::DoNotOptimize(r.model.numStates());
        last = r.stats;
    }
    recordMsmCounters(state, last);
}
BENCHMARK(BM_MsmFullGeneration)
    ->DenseRange(1, kMaxGenerations)
    ->ArgNames({"gen"})
    ->Unit(benchmark::kMillisecond);

void BM_MsmIncrementalGeneration(benchmark::State& state) {
    const int gen = int(state.range(0));
    IncrementalMsmParams ip;
    ip.pipeline = generationPipelineParams();
    ip.rebuildRadiusFactor = 1.5;
    MsmStats last;
    for (auto _ : state) {
        // Replay history untimed; measure only the generation under test.
        IncrementalMsmBuilder builder(ip);
        for (int g = 1; g < gen; ++g) (void)builder.update(generationRefs(g));
        const auto refs = generationRefs(gen);
        const auto t0 = std::chrono::steady_clock::now();
        auto r = builder.update(refs);
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        state.SetIterationTime(dt.count());
        benchmark::DoNotOptimize(r.model.numStates());
        last = r.stats;
    }
    recordMsmCounters(state, last);
}
BENCHMARK(BM_MsmIncrementalGeneration)
    ->DenseRange(1, kMaxGenerations)
    ->ArgNames({"gen"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
