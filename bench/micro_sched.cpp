/// Scheduler microbenchmarks: the indexed CommandQueue against the
/// preserved linear-scan LegacyCommandQueue, in one binary so the
/// speedups recorded in BENCH_micro_sched.json compare like with like.
/// Sweeps pending-queue depth x executable diversity for the four hot
/// operations: push, claim, requeue-on-failure and checkpoint update.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/queue.hpp"
#include "support/queue_legacy.hpp"
#include "util/random.hpp"

using namespace cop;
using namespace cop::core;

namespace {

constexpr std::int64_t kBatch = 64;     ///< pushes per timed iteration
constexpr int kClaimCores = 64;         ///< worker core offer for claims
constexpr std::size_t kBlobBytes = 1 << 16; ///< checkpoint payload size

std::string exeName(std::size_t i) { return "exe" + std::to_string(i); }

std::vector<std::string> exePool(std::size_t exes) {
    std::vector<std::string> pool;
    for (std::size_t e = 0; e < exes; ++e) pool.push_back(exeName(e));
    return pool;
}

CommandSpec makeCmd(CommandId id, std::size_t exes, Rng& rng) {
    CommandSpec c;
    c.id = id;
    c.projectId = 1;
    c.executable = exeName(rng.uniformInt(exes));
    c.steps = 100;
    c.priority = int(rng.uniformInt(4));
    c.preferredCores = 1 + int(rng.uniformInt(4));
    return c;
}

/// Pushes `pending` commands. With `skewed`, the first executable's
/// commands all carry the lowest priority while every other executable's
/// work sits above them. A claim offering exe0 then finds its matching
/// commands at the tail of the global priority order — the busy-server
/// shape where one project's workers poll while other projects' urgent
/// work fills the queue head, and exactly the case the per-executable
/// index exists for: the legacy scan wades through every higher-priority
/// non-matching command first.
template <typename Q>
void fill(Q& q, std::size_t pending, std::size_t exes, bool skewed) {
    Rng rng(pending * (skewed ? 37 : 31) + exes);
    for (CommandId id = 1; id <= pending; ++id) {
        CommandSpec c = makeCmd(id, exes, rng);
        if (skewed) {
            c.executable = exeName(rng.uniformInt(exes));
            c.priority = c.executable == exeName(0)
                             ? 0
                             : 1 + int(rng.uniformInt(3));
        }
        q.push(std::move(c));
    }
}

/// A filled queue of one (pending, exes) shape. The indexed queue parks
/// inputs in `store`, as in the server, so it is filled afresh over it
/// (O(pending log pending)). Filling the legacy queue is O(pending^2) in
/// total, so each of its shapes is built once and benchmark runs start
/// from a cheap copy; it holds payloads inline and ignores `store`.
template <typename Q>
Q filledQueue(SegmentStore& store, std::size_t pending, std::size_t exes,
              bool skewed = false) {
    if constexpr (std::is_same_v<Q, CommandQueue>) {
        CommandQueue q{store};
        fill(q, pending, exes, skewed);
        return q;
    } else {
        static std::map<std::tuple<std::size_t, std::size_t, bool>, Q> cache;
        auto [it, inserted] = cache.try_emplace({pending, exes, skewed});
        if (inserted) fill(it->second, pending, exes, skewed);
        return it->second;
    }
}

/// Steady-state push: each timed iteration pushes a batch of fresh
/// commands; the pause drains the same number back out so queue depth
/// stays at `pending`.
template <typename Q>
void pushBench(benchmark::State& state) {
    const auto pending = std::size_t(state.range(0));
    const auto exes = std::size_t(state.range(1));
    SegmentStore store;
    Q q = filledQueue<Q>(store, pending, exes);
    const auto pool = exePool(exes);
    Rng rng(17);
    CommandId next = pending + 1;
    for (auto _ : state) {
        for (std::int64_t i = 0; i < kBatch; ++i)
            q.push(makeCmd(next++, exes, rng));
        state.PauseTiming();
        std::int64_t removed = 0;
        while (removed < kBatch) {
            const auto claimed = q.claim(pool, int(kBatch), 1);
            if (claimed.empty()) break;
            removed += std::int64_t(claimed.size());
            for (const auto& c : claimed) q.complete(c.id);
        }
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}

/// Steady-state claim: a worker offering one executable and kClaimCores
/// cores assembles a workload; the pause hands the claimed commands back
/// (worker failure) so the next iteration sees the same queue.
template <typename Q>
void claimBench(benchmark::State& state) {
    const auto pending = std::size_t(state.range(0));
    const auto exes = std::size_t(state.range(1));
    SegmentStore store;
    Q q = filledQueue<Q>(store, pending, exes, /*skewed=*/true);
    const std::vector<std::string> offer{exeName(0)};
    std::int64_t claimed = 0;
    for (auto _ : state) {
        const auto workload = q.claim(offer, kClaimCores, 1);
        claimed += std::int64_t(workload.size());
        benchmark::DoNotOptimize(workload.size());
        state.PauseTiming();
        q.requeueWorker(1);
        state.ResumeTiming();
    }
    state.SetItemsProcessed(claimed);
}

/// Steady-state requeue: the inverse pairing — the claim is untimed, the
/// failure handoff (requeue of every command the worker held) is timed.
template <typename Q>
void requeueBench(benchmark::State& state) {
    const auto pending = std::size_t(state.range(0));
    const auto exes = std::size_t(state.range(1));
    SegmentStore store;
    Q q = filledQueue<Q>(store, pending, exes, /*skewed=*/true);
    const std::vector<std::string> offer{exeName(0)};
    std::int64_t requeued = 0;
    for (auto _ : state) {
        state.PauseTiming();
        q.claim(offer, kClaimCores, 1);
        state.ResumeTiming();
        requeued += std::int64_t(q.requeueWorker(1).size());
    }
    state.SetItemsProcessed(requeued);
}

/// hasWorkFor probe for an executable nobody queued: the legacy scan has
/// to visit every pending command to say no; the index probes one bucket.
template <typename Q>
void hasWorkBench(benchmark::State& state) {
    const auto pending = std::size_t(state.range(0));
    const auto exes = std::size_t(state.range(1));
    SegmentStore store;
    Q q = filledQueue<Q>(store, pending, exes);
    const std::vector<std::string> probe{"absent_executable"};
    for (auto _ : state) {
        benchmark::DoNotOptimize(q.hasWorkFor(probe));
    }
    state.SetItemsProcessed(state.iterations());
}

/// Checkpoint update for in-flight commands. The legacy plane copies the
/// blob into the in-flight record on every update; the SharedBytes plane
/// bumps a refcount.
template <typename Q>
void checkpointBench(benchmark::State& state) {
    const auto pending = std::size_t(state.range(0));
    const auto exes = std::size_t(state.range(1));
    SegmentStore store;
    Q q = filledQueue<Q>(store, pending, exes);
    const auto pool = exePool(exes);
    std::vector<CommandId> inFlight;
    for (;;) {
        const auto claimed = q.claim(pool, 1 << 30, 1);
        if (claimed.empty()) break;
        for (const auto& c : claimed) inFlight.push_back(c.id);
    }
    const std::vector<std::uint8_t> blobVec(kBlobBytes, 0xCD);
    const SharedBytes blobShared{std::vector<std::uint8_t>(blobVec)};
    std::size_t i = 0;
    for (auto _ : state) {
        const CommandId id = inFlight[i++ % inFlight.size()];
        if constexpr (std::is_same_v<Q, CommandQueue>)
            q.updateCheckpoint(id, blobShared); // refcount bump
        else
            q.updateCheckpoint(id, blobVec); // by-value deep copy
    }
    state.SetBytesProcessed(state.iterations() * std::int64_t(kBlobBytes));
}

void BM_SchedPushIndexed(benchmark::State& s) { pushBench<CommandQueue>(s); }
void BM_SchedPushLegacy(benchmark::State& s) {
    pushBench<LegacyCommandQueue>(s);
}
void BM_SchedClaimIndexed(benchmark::State& s) { claimBench<CommandQueue>(s); }
void BM_SchedClaimLegacy(benchmark::State& s) {
    claimBench<LegacyCommandQueue>(s);
}
void BM_SchedRequeueIndexed(benchmark::State& s) {
    requeueBench<CommandQueue>(s);
}
void BM_SchedRequeueLegacy(benchmark::State& s) {
    requeueBench<LegacyCommandQueue>(s);
}
void BM_SchedHasWorkIndexed(benchmark::State& s) {
    hasWorkBench<CommandQueue>(s);
}
void BM_SchedHasWorkLegacy(benchmark::State& s) {
    hasWorkBench<LegacyCommandQueue>(s);
}
void BM_SchedCheckpointIndexed(benchmark::State& s) {
    checkpointBench<CommandQueue>(s);
}
void BM_SchedCheckpointLegacy(benchmark::State& s) {
    checkpointBench<LegacyCommandQueue>(s);
}

const std::vector<std::vector<std::int64_t>> kSweep{
    {100, 1000, 10000, 100000}, {1, 4, 16}};

#define COP_SCHED_BENCH(fn)                                                  \
    BENCHMARK(fn)->ArgsProduct(kSweep)->ArgNames({"pending", "exes"})

COP_SCHED_BENCH(BM_SchedPushIndexed);
COP_SCHED_BENCH(BM_SchedPushLegacy);
COP_SCHED_BENCH(BM_SchedClaimIndexed);
COP_SCHED_BENCH(BM_SchedClaimLegacy);
COP_SCHED_BENCH(BM_SchedRequeueIndexed);
COP_SCHED_BENCH(BM_SchedRequeueLegacy);
COP_SCHED_BENCH(BM_SchedHasWorkIndexed);
COP_SCHED_BENCH(BM_SchedHasWorkLegacy);
COP_SCHED_BENCH(BM_SchedCheckpointIndexed);
COP_SCHED_BENCH(BM_SchedCheckpointLegacy);

} // namespace

BENCHMARK_MAIN();
