/// Engineering microbenchmarks for the MD engine: force kernels (scalar /
/// 4-wide blocked / SoA / runtime-dispatched SIMD — the paper's SIMD
/// tier), threaded force reduction (the thread tier), neighbour-list
/// builds, integrator steps and RMSD evaluation. tools/run_bench.sh
/// captures this binary's JSON output as BENCH_micro_md.json to track the
/// perf trajectory across PRs.
///
/// Beyond google-benchmark's items_per_second (pairs/s), the nonbonded
/// benchmarks report two derived counters so numbers stay comparable
/// across hosts and clock speeds:
///   gflops          — nominal FLOPs/pair (documented constants below)
///                     times the pair rate, in 1e9/s
///   pairs_per_cycle — pair rate divided by the CPU's nominal frequency
///
/// Extra flags on top of google-benchmark's:
///   --print-simd-isa  print the detected widest runnable ISA and exit
///   --smoke           quick flavor x ISA correctness/throughput sweep
///                     plus the villin step and checkpoint rows (filters
///                     to BM_Nonbonded*, BM_GoModelStep and BM_Checkpoint,
///                     ~10 ms per measurement) — used by CI;
///                     tools/run_bench.sh refuses it
///
/// The emitted JSON context carries cop_build_type (CMake build type the
/// library was compiled with), simd_isa_detected and simd_isas_compiled,
/// so a stray debug-build result is self-incriminating.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "mdlib/observables.hpp"
#include "mdlib/proteins.hpp"
#include "mdlib/simd_dispatch.hpp"
#include "mdlib/simulation.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

#ifndef COP_BUILD_TYPE
#define COP_BUILD_TYPE "unknown"
#endif

using namespace cop;
using namespace cop::md;

namespace {

/// Nominal FLOPs per neighbour-list pair for the cell-list (shifted-run)
/// kernels, counting adds/subs/muls/divs/sqrts as one each: distance
/// vector + r^2 (8), cutoff select (2), LJ inv/s6/s12/energy/force (13),
/// force scatter (10) = 33; reaction-field Coulomb adds sqrt + 1/r +
/// energy + force terms (13) = 46. These are bookkeeping constants for
/// cross-host comparability, not measurements.
constexpr double kFlopsPerPairLj = 33.0;
constexpr double kFlopsPerPairLjCoul = 46.0;

struct LjFixture {
    Topology top;
    Box box;
    std::vector<Vec3> positions;

    explicit LjFixture(std::size_t n, bool charges = false)
        : box(Box::cubic(std::cbrt(double(n)) * 1.2)) {
        for (std::size_t i = 0; i < n; ++i)
            top.addParticle(1.0, charges ? (i % 2 ? 0.2 : -0.2) : 0.0);
        top.finalize();
        Rng rng(7);
        const int side = int(std::ceil(std::cbrt(double(n))));
        const double a = box.lengths.x / side;
        std::size_t placed = 0;
        for (int x = 0; x < side && placed < n; ++x)
            for (int y = 0; y < side && placed < n; ++y)
                for (int z = 0; z < side && placed < n; ++z, ++placed)
                    positions.push_back({x * a + rng.uniform(-0.05, 0.05),
                                         y * a + rng.uniform(-0.05, 0.05),
                                         z * a + rng.uniform(-0.05, 0.05)});
    }
};

KernelFlavor flavorArg(std::int64_t v) {
    switch (v) {
    case 0: return KernelFlavor::Scalar;
    case 1: return KernelFlavor::Blocked4;
    case 2: return KernelFlavor::Soa;
    default: return KernelFlavor::SimdAuto;
    }
}

/// items_per_second (pairs/s) plus the derived gflops and
/// pairs_per_cycle counters; every nonbonded benchmark funnels through
/// here so the three rates stay consistently defined.
void addPairCounters(benchmark::State& state, std::size_t pairsPerIter,
                     double flopsPerPair) {
    const double total =
        double(state.iterations()) * double(pairsPerIter);
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(pairsPerIter));
    state.counters["gflops"] =
        benchmark::Counter(total * flopsPerPair * 1e-9,
                           benchmark::Counter::kIsRate);
    const double cps = benchmark::CPUInfo::Get().cycles_per_second;
    if (cps > 0.0)
        state.counters["pairs_per_cycle"] =
            benchmark::Counter(total / cps, benchmark::Counter::kIsRate);
}

/// Kernel-flavor x thread-count sweep over the full nonbonded evaluation
/// (neighbour-list check + kernel + reduction), uncharged LJ fluid.
/// Scalar and Blocked4 (flavors 0, 1) are serial, so they run at one
/// thread only.
void BM_NonbondedKernel(benchmark::State& state) {
    LjFixture fix(std::size_t(state.range(0)));
    ForceFieldParams p;
    p.kind = NonbondedKind::LennardJonesRF;
    p.cutoff = 2.5;
    p.flavor = flavorArg(state.range(1));
    const auto nThreads = std::size_t(state.range(2));
    std::optional<ThreadPool> pool;
    if (nThreads > 1) pool.emplace(nThreads);
    ForceField ff(fix.top, fix.box, p, pool ? &*pool : nullptr);
    std::vector<Vec3> forces;
    for (auto _ : state) {
        auto e = ff.compute(fix.positions, forces);
        benchmark::DoNotOptimize(e.nonbonded);
    }
    addPairCounters(state, ff.neighborList().pairs().size(),
                    kFlopsPerPairLj);
}
BENCHMARK(BM_NonbondedKernel)
    ->ArgsProduct({{1000, 10000}, {0, 1}, {1}})
    ->ArgsProduct({{1000, 10000}, {2, 3}, {1, 2, 4}})
    ->ArgNames({"atoms", "flavor", "threads"});

/// Same sweep with reaction-field Coulomb on (exercises the charged
/// bucket's precomputed qq path).
void BM_NonbondedKernelCharged(benchmark::State& state) {
    LjFixture fix(std::size_t(state.range(0)), /*charges=*/true);
    ForceFieldParams p;
    p.kind = NonbondedKind::LennardJonesRF;
    p.cutoff = 2.5;
    p.useCoulombRF = true;
    p.flavor = flavorArg(state.range(1));
    ForceField ff(fix.top, fix.box, p);
    std::vector<Vec3> forces;
    for (auto _ : state) {
        auto e = ff.compute(fix.positions, forces);
        benchmark::DoNotOptimize(e.coulomb);
    }
    addPairCounters(state, ff.neighborList().pairs().size(),
                    kFlopsPerPairLjCoul);
}
BENCHMARK(BM_NonbondedKernelCharged)
    ->ArgsProduct({{10000}, {0, 1, 2, 3}})
    ->ArgNames({"atoms", "flavor"});

/// Single-thread ISA sweep registered at startup for every compiled-in,
/// runnable kernel set, plus the Soa flavor ("soa") — the headline
/// SIMD-vs-Soa comparison lives here. The Soa flavor runs the width-1
/// "scalar" set, so its row and isa:scalar time the same kernels; the
/// soa row names the default engine's cost. Pinning params.simdIsa
/// (rather than COPERNICUS_SIMD) means the sweep is immune to the
/// environment.
void runNonbondedIsa(benchmark::State& state, SimdIsa isa,
                     bool soaBaseline) {
    const bool charged = state.range(1) != 0;
    LjFixture fix(std::size_t(state.range(0)), charged);
    ForceFieldParams p;
    p.kind = NonbondedKind::LennardJonesRF;
    p.cutoff = 2.5;
    p.useCoulombRF = charged;
    if (soaBaseline) {
        p.flavor = KernelFlavor::Soa;
    } else {
        p.flavor = KernelFlavor::SimdAuto;
        p.simdIsa = isa;
    }
    ForceField ff(fix.top, fix.box, p);
    std::vector<Vec3> forces;
    for (auto _ : state) {
        auto e = ff.compute(fix.positions, forces);
        benchmark::DoNotOptimize(e.nonbonded);
    }
    addPairCounters(state, ff.neighborList().pairs().size(),
                    charged ? kFlopsPerPairLjCoul : kFlopsPerPairLj);
}

void registerIsaSweep() {
    auto reg = [](const std::string& label, SimdIsa isa, bool soa) {
        benchmark::RegisterBenchmark(
            ("BM_NonbondedIsa/isa:" + label).c_str(),
            [isa, soa](benchmark::State& st) {
                runNonbondedIsa(st, isa, soa);
            })
            ->ArgsProduct({{1000, 10000}, {0, 1}})
            ->ArgNames({"atoms", "charged"});
    };
    reg("soa", SimdIsa::Auto, /*soa=*/true);
    for (SimdIsa isa : compiledSimdIsas())
        if (simdIsaRunnable(isa)) reg(simdIsaName(isa), isa, false);
}

void BM_NeighborListBuild(benchmark::State& state) {
    LjFixture fix(std::size_t(state.range(0)));
    NeighborList nl(2.5, 0.3);
    for (auto _ : state) {
        nl.build(fix.top, fix.box, fix.positions);
        benchmark::DoNotOptimize(nl.pairs().size());
    }
}
BENCHMARK(BM_NeighborListBuild)->Arg(216)->Arg(1000)->ArgNames({"atoms"});

void BM_GoModelStep(benchmark::State& state) {
    const auto model = villinGoModel();
    auto sim = Simulation::forGoModel(model, model.native,
                                      villinSimulationConfig(5));
    sim.initializeVelocities();
    for (auto _ : state) sim.run(100);
    state.SetItemsProcessed(std::int64_t(state.iterations()) * 100);
}
BENCHMARK(BM_GoModelStep);

void BM_Rmsd(benchmark::State& state) {
    const auto model = villinGoModel();
    Rng rng(9);
    auto other = model.native;
    for (auto& p : other) p += rng.gaussianVec3(0.3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rmsd(model.native, other));
    }
}
BENCHMARK(BM_Rmsd);

void BM_Checkpoint(benchmark::State& state) {
    const auto model = villinGoModel();
    auto sim = Simulation::forGoModel(model, model.native,
                                      villinSimulationConfig(5));
    sim.initializeVelocities();
    sim.run(1000);
    for (auto _ : state) {
        auto blob = sim.checkpoint();
        benchmark::DoNotOptimize(blob.size());
    }
}
BENCHMARK(BM_Checkpoint);

std::string compiledIsaList() {
    std::string out;
    for (SimdIsa isa : compiledSimdIsas()) {
        if (!out.empty()) out += ",";
        out += simdIsaName(isa);
    }
    return out;
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--print-simd-isa") == 0) {
            std::printf("%s\n", simdIsaName(detectSimdIsa()));
            return 0;
        }
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
            continue;
        }
        args.push_back(argv[i]);
    }
    // Smoke mode: the full flavor x ISA nonbonded sweep and the villin
    // step and checkpoint rows at ~10 ms per measurement. Enough to catch
    // a wrong-answer or crashing kernel or integrator in CI; useless for
    // performance claims (run_bench.sh refuses to emit JSON from it).
    static char filterFlag[] =
        "--benchmark_filter=BM_Nonbonded|BM_GoModelStep|BM_Checkpoint";
    static char minTimeFlag[] = "--benchmark_min_time=0.01";
    if (smoke) {
        args.push_back(filterFlag);
        args.push_back(minTimeFlag);
    }
    args.push_back(nullptr);

    registerIsaSweep();

    int newArgc = int(args.size()) - 1;
    benchmark::Initialize(&newArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(newArgc, args.data()))
        return 1;
    benchmark::AddCustomContext("cop_build_type", COP_BUILD_TYPE);
    benchmark::AddCustomContext("simd_isa_detected",
                                simdIsaName(detectSimdIsa()));
    benchmark::AddCustomContext("simd_isas_compiled", compiledIsaList());
    benchmark::AddCustomContext("smoke", smoke ? "true" : "false");
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
