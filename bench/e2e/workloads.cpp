#include "workloads.hpp"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>

#include "core/backends.hpp"
#include "core/bar_controller.hpp"
#include "core/copernicus.hpp"
#include "core/msm_controller.hpp"
#include "ledger.hpp"
#include "mdlib/observables.hpp"
#include "mdlib/proteins.hpp"
#include "mdlib/units.hpp"
#include "perfmodel/mdperf.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace cop::e2e {

const std::vector<WorkloadSpec>& workloads() {
    static const std::vector<WorkloadSpec> list = [] {
        WorkloadSpec fold; // villin_study defaults
        fold.name = "villin_fold";

        WorkloadSpec durable = fold;
        durable.name = "villin_durable";
        durable.durable = true;

        WorkloadSpec wide = fold;
        wide.name = "villin_wide";
        wide.tasksPerStart = 10;
        wide.segmentSteps = 500;
        // Re-cluster everything each generation, as the paper's controller
        // does. The incremental pipeline's radius-triggered rebuilds fire 3
        // or 4 times depending on the seed, which alone swings the run
        // time by 50%; villin_fold keeps covering the incremental path.
        wide.rebuildRadiusFactor = 0.0;
        wide.clusters = 300;
        // Short segments fold within six generations on most seeds only.
        wide.expectFold = false;

        WorkloadSpec bar;
        bar.name = "bar_swarm";
        bar.villin = false;
        bar.durable = true;
        bar.defaultSeed = 1976;
        bar.workers = 256;
        return std::vector<WorkloadSpec>{fold, durable, wide, bar};
    }();
    return list;
}

const std::vector<WorkloadSpec>& smokeWorkloads() {
    static const std::vector<WorkloadSpec> list = [] {
        std::vector<WorkloadSpec> out = workloads();
        for (WorkloadSpec& w : out) {
            if (w.villin) {
                // Keeps villin_wide wider and finer-grained than villin_fold.
                w.starts = 2;
                w.tasksPerStart = w.tasksPerStart * 2 / 5;
                w.generations = 2;
                w.clusters /= 30;
                w.segmentSteps /= 5;
                w.nativeStart = true;
                w.workers = 4;
            } else {
                w.windows = 4;
                w.rounds = 3;
                w.commandsPerRound = 32;
                w.workers = 8;
            }
        }
        return out;
    }();
    return list;
}

const WorkloadSpec& findWorkload(const std::vector<WorkloadSpec>& list,
                                 const std::string& name) {
    for (const WorkloadSpec& w : list)
        if (w.name == name) return w;
    throw InvalidArgument("unknown workload '" + name + "'");
}

const std::vector<MetricDef>& endToEndMetrics() {
    static const std::vector<MetricDef> list = {
        {"commands_per_s", "1/s", "higher"},
        {"gen_wall_s", "s", "lower"},
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return list;
}

const std::vector<MetricDef>& perLayerMetrics() {
    static const std::vector<MetricDef> list = {
        {"trace.wall_s", "s", "lower"},
        {"trace.overhead_frac", "frac", "lower"},
        {"trace.spans", "count", "lower"},
        {"trace.span_cost_frac", "frac", "lower"},
        {"core.exec_s", "s", "lower"},
        {"core.exec_calls", "count", "lower"},
        {"core.controller_start_s", "s", "lower"},
        {"core.controller_ingest_s", "s", "lower"},
        {"core.controller_generation_s", "s", "lower"},
        {"core.framework_s", "s", "lower"},
        {"core.framework_us_per_event", "us", "lower"},
        // The wall-time partition: these shares sum to 1.
        {"mdlib.run_frac", "frac", "lower"},
        {"mdlib.restore_frac", "frac", "lower"},
        {"mdlib.checkpoint_frac", "frac", "lower"},
        {"core.output_encode_frac", "frac", "lower"},
        {"fe.sample_frac", "frac", "lower"},
        {"core.exec_other_frac", "frac", "lower"},
        {"core.controller_ingest_frac", "frac", "lower"},
        {"msm.cluster_frac", "frac", "lower"},
        {"msm.assign_frac", "frac", "lower"},
        {"msm.count_frac", "frac", "lower"},
        {"msm.estimate_frac", "frac", "lower"},
        {"core.respawn_frac", "frac", "lower"},
        {"fe.refine_frac", "frac", "lower"},
        {"core.framework_frac", "frac", "lower"},
        // Work done, per layer.
        {"mdlib.steps", "count", "lower"},
        {"mdlib.steps_per_s", "1/s", "higher"},
        {"mdlib.checkpoint_bytes", "bytes", "lower"},
        {"msm.rmsd_evals", "count", "lower"},
        {"msm.rmsd_pruned_frac", "frac", "higher"},
        {"msm.full_rebuilds", "count", "lower"},
        {"net.events", "count", "lower"},
        {"net.messages", "count", "lower"},
        {"net.bytes", "bytes", "lower"},
        {"net.batches", "count", "lower"},
        {"net.batched_envelopes", "count", "higher"},
        {"core.wire.sent", "count", "lower"},
        {"core.wire.retransmits", "count", "lower"},
        {"core.wire.acks_piggybacked", "count", "higher"},
        {"core.wire.duplicates_dropped", "count", "lower"},
        {"core.sched.claims", "count", "lower"},
        {"core.sched.claim_scan_steps", "count", "lower"},
        {"core.sched.pushes", "count", "lower"},
        {"core.server.requests_forwarded", "count", "lower"},
        {"core.wal.records", "count", "lower"},
        {"core.wal.syncs", "count", "lower"},
        {"core.wal.bytes", "bytes", "lower"},
        {"core.wal.records_per_sync", "rec/sync", "higher"},
        {"core.store.puts", "count", "lower"},
        {"core.store.hits", "count", "higher"},
        {"core.store.misses", "count", "lower"},
        {"core.store.spills", "count", "lower"},
        {"core.store.spilled_compressed_bytes", "bytes", "lower"},
    };
    return list;
}

namespace {

using Clock = std::chrono::steady_clock;

/// A run that has not finished by this virtual time is a failure.
constexpr double kHorizonSeconds = 1e12;
/// BAR stops on its round budget: a target this small is never reached,
/// so every seed runs the same number of rounds and commands.
constexpr double kBarTargetError = 1e-9;
/// Virtual seconds per fe_sample work sample on one core.
constexpr double kFeSecondsPerSample = 0.01;
/// fe_sample work samples per BAR command.
constexpr std::size_t kSamplesPerCommand = 50;
/// The villin fold checks: some frame within 3.5 A of native, and the
/// best frame within this many Angstrom.
constexpr double kMaxMinRmsdAngstrom = 1.0;

double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A fresh mkdtemp directory, removed with everything in it on
/// destruction.
class TempDir {
public:
    explicit TempDir(const std::string& parent) {
        std::string tmpl = parent + "/e2e-wal-XXXXXX";
        COP_IO_CHECK(::mkdtemp(tmpl.data()) != nullptr,
                     "mkdtemp failed under " + parent);
        path_ = tmpl;
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// fdatasync costs differ by orders of magnitude between filesystems, so
/// durable results are only comparable on the same one.
std::string filesystemType(const std::string& path) {
    struct statfs st{};
    if (::statfs(path.c_str(), &st) != 0) return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4"; // ext2/3/4 share one magic
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    case 0x65735546UL: return "fuse";
    default: break;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%lx",
                  static_cast<unsigned long>(st.f_type));
    return buf;
}

/// Seed-derived inputs shared by every set-up of one repetition.
struct Inputs {
    md::GoModel model;
    std::vector<std::vector<Vec3>> starts;
    double startMinRmsdAngstrom = 0.0; ///< best unfolded start
};

Inputs makeInputs(const WorkloadSpec& spec, std::uint64_t seed) {
    Inputs in;
    if (!spec.villin) return in;
    in.model = md::villinGoModel();
    in.starts = md::makeUnfoldedConformations(
        in.model, std::size_t(spec.starts), seed * 7919 + 1);
    in.startMinRmsdAngstrom = 1e30;
    for (const auto& start : in.starts)
        in.startMinRmsdAngstrom =
            std::min(in.startMinRmsdAngstrom,
                     md::toAngstrom(md::rmsd(in.model.native, start)));
    if (spec.nativeStart) in.starts.push_back(in.model.native);
    return in;
}

/// One built deployment with its project created.
struct Setup {
    // Destroyed last: the servers close their WAL and store files first.
    std::unique_ptr<TempDir> dir;
    // Outlives the deployment, whose handlers and controller hold it.
    std::unique_ptr<Ledger> ledger;
    std::unique_ptr<core::Deployment> deployment;
    std::vector<core::Server*> servers; ///< project server first
    core::MsmController* msm = nullptr;
    core::BarController* bar = nullptr;
    std::function<int()> progress; ///< generation or BAR round
};

/// `dir` holds the WAL and store directories (null without durability).
std::unique_ptr<Setup> buildSetup(const WorkloadSpec& spec,
                                  const Inputs& in, const RepOptions& opt,
                                  std::unique_ptr<TempDir> dir) {
    auto s = std::make_unique<Setup>();
    s->dir = std::move(dir);
    if (opt.traced) s->ledger = std::make_unique<Ledger>();
    s->deployment = std::make_unique<core::Deployment>(opt.seed);
    auto& dep = *s->deployment;

    auto serverConfig = [&](const std::string& name) {
        core::ServerConfig sc;
        if (spec.durable) {
            auto& d = sc.durability;
            d.walEnabled = true;
            d.walDir = s->dir->path() + "/" + name;
            d.snapshotEveryRecords = 50000;
            d.storeRamBytes = std::size_t(256) << 10;
            d.storeDir = s->dir->path() + "/" + name + "_store";
        }
        return sc;
    };
    // The paper's Fig. 1 shape: a project server and a relay heading a
    // second cluster, the workers split evenly between them.
    auto& project = dep.addServer("project-server", serverConfig("project"));
    auto& relay = dep.addServer("cluster1-head", serverConfig("relay"));
    dep.connectServers(project, relay, core::links::dataCenter());
    s->servers = {&project, &relay};

    core::ExecutableHandler handler;
    core::WorkerConfig wc;
    wc.cores = 1;
    if (spec.villin) {
        // Virtual command duration from the paper-calibrated MD model at
        // 24 cores per simulation (as in bench/villin_study.cpp).
        const perf::MdPerfModel perfModel;
        const double secondsPerStep =
            perfModel.commandSeconds(
                md::stepsToNs(double(md::kSegmentSteps)), 24) /
            double(md::kSegmentSteps);
        const auto duration = core::linearDurationModel(secondsPerStep);
        handler = s->ledger ? makeLedgerMdrun(duration, *s->ledger)
                            : core::makeMdrunExecutable(duration);
        wc.platform = "OpenMPI";
    } else {
        auto fe = core::makeFeSampleExecutable(
            core::linearDurationModel(kFeSecondsPerSample));
        handler = s->ledger
                      ? timeHandler(std::move(fe), Layer::FeSample, *s->ledger)
                      : std::move(fe);
    }
    const std::string exe = spec.villin ? "mdrun" : "fe_sample";
    for (int w = 0; w < spec.workers; ++w) {
        core::ExecutableRegistry reg;
        reg.add(exe, handler);
        dep.addWorker("worker" + std::to_string(w),
                      (w % 2 == 0) ? project : relay, wc, std::move(reg),
                      core::links::intraCluster());
    }

    std::unique_ptr<core::Controller> controller;
    if (spec.villin) {
        core::MsmControllerParams mp;
        mp.model = in.model;
        mp.startingConformations = in.starts;
        mp.tasksPerStart = spec.tasksPerStart;
        mp.segmentSteps = spec.segmentSteps;
        mp.maxGenerations = spec.generations;
        mp.pipeline.numClusters = spec.clusters;
        mp.msmRebuildRadiusFactor = spec.rebuildRadiusFactor;
        // Paper: a clustering snapshot every 1.5 ns = 3 frames.
        mp.pipeline.snapshotStride = 3;
        mp.pipeline.lag = 1;
        mp.pipeline.medoidSweeps = 1;
        mp.weighting = msm::WeightingScheme::Adaptive;
        mp.evenGenerations = 1;
        mp.simulation = md::villinSimulationConfig();
        mp.seed = opt.seed;
        auto c = std::make_unique<core::MsmController>(mp);
        s->msm = c.get();
        s->progress = [m = s->msm] { return m->generation(); };
        controller = std::move(c);
    } else {
        core::BarControllerParams bp;
        bp.numWindows = spec.windows;
        bp.samplesPerCommand = kSamplesPerCommand;
        bp.targetError = kBarTargetError;
        bp.maxRounds = spec.rounds;
        bp.commandsPerRound = spec.commandsPerRound;
        bp.seed = opt.seed;
        auto c = std::make_unique<core::BarController>(bp);
        s->bar = c.get();
        s->progress = [b = s->bar] { return b->rounds(); };
        controller = std::move(c);
    }
    if (s->ledger)
        controller = std::make_unique<LedgerController>(
            std::move(controller), s->progress, *s->ledger);
    core::ProjectSpec ps;
    ps.name = spec.name;
    project.createProject(std::move(ps), std::move(controller));
    return s;
}

/// FNV-1a over the controller's science outputs: identical across every
/// repetition of a workload and seed, traced or not.
class Digest {
public:
    template <typename T>
    void add(T v) {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

} // namespace

RepResult runRepetition(const WorkloadSpec& spec, const RepOptions& opt) {
    Logger::instance().setLevel(LogLevel::Warn);
    RepResult r;
    const auto put = [&r](const std::string& key, double v) {
        r[key] = {num(v)};
    };
    const auto check = [&r](const std::string& name, bool ok) {
        r["check." + name] = {ok ? "1" : "0"};
    };

    const Inputs in = makeInputs(spec, opt.seed);

    // Set up several times: one set-up takes about a millisecond, too short
    // to time once. The parent takes the median per process, then over
    // processes spread across the run. The WAL directory is the
    // benchmark's own scaffolding, so it is made before the clock starts.
    std::vector<std::string> setupSamples;
    std::unique_ptr<Setup> s;
    for (int i = 0; i < std::max(1, opt.setups); ++i) {
        s.reset();
        auto dir = spec.durable ? std::make_unique<TempDir>(opt.scratchDir)
                                : nullptr;
        const auto t0 = Clock::now();
        s = buildSetup(spec, in, opt, std::move(dir));
        setupSamples.push_back(num(secondsSince(t0)));
    }
    r["setup_s"] = setupSamples;
    if (!opt.runProject) return r;
    if (s->dir) r["wal_fs"] = {filesystemType(s->dir->path())};

    // The loop Deployment::runUntilDone runs, plus a poll of the
    // generation counter after every event for the boundary timestamps.
    auto& dep = *s->deployment;
    auto& loop = dep.loop();
    const auto allDone = [&dep] {
        for (const auto& srv : dep.servers())
            if (!srv->allProjectsDone()) return false;
        return true;
    };
    std::vector<std::string> genWalls;
    std::uint64_t events = 0;
    int generation = s->progress();
    if (s->ledger) s->ledger->setGeneration(generation);
    const auto t0 = Clock::now();
    auto genStart = t0;
    bool done = allDone();
    while (!done && !loop.empty() && loop.now() < kHorizonSeconds) {
        events += loop.run(1);
        if (const int p = s->progress(); p != generation) {
            const auto now = Clock::now();
            genWalls.push_back(
                num(std::chrono::duration<double>(now - genStart).count()));
            if (s->ledger) {
                s->ledger->add(Layer::Generation, genStart, now);
                s->ledger->setGeneration(p);
            }
            genStart = now;
            generation = p;
        }
        done = allDone();
    }
    const double wall = secondsSince(t0);

    // --- End-to-end ------------------------------------------------------
    const auto& project = *s->servers.front();
    std::uint64_t assigned = 0;
    std::uint64_t failures = dep.network().faultStats().deadLetters;
    std::uint64_t completed = project.stats().commandsCompleted;
    for (const core::Server* srv : s->servers) {
        const auto& st = srv->stats();
        assigned += st.commandsAssigned;
        failures += st.commandsFailed + st.commandsRequeued +
                    st.duplicateResultsDropped +
                    srv->wireStats().deliveriesFailed;
    }
    for (const auto& w : dep.workers())
        failures += w->wireStats().deliveriesFailed;
    put("wall_s", wall);
    put("commands", double(completed));
    put("commands_per_s", ratio(double(completed), wall));
    r["gen_wall_s"] = genWalls;
    put("sim_h", loop.now() / 3600.0);
    put("assigned", double(assigned));
    put("failures", double(failures));
    put("failed_frac", ratio(double(failures), double(assigned)));
    put("net.events", double(events));
    r["trace_hash"] = {hex(dep.network().traceHash())};

    check("completed", done);
    check("no_failures", failures == 0);
    Digest digest;
    if (s->msm) {
        const auto& c = *s->msm;
        const auto& hist = c.history();
        check("command_count",
              c.generation() == spec.generations &&
                  int(hist.size()) == spec.generations &&
                  completed >= std::uint64_t(spec.generations) *
                                   in.starts.size() *
                                   std::uint64_t(spec.tasksPerStart));
        check("sampling_progress",
              c.minRmsdAngstrom() < in.startMinRmsdAngstrom);
        if (spec.expectFold) {
            check("folded", c.firstFoldedGeneration() >= 0);
            check("min_rmsd", c.minRmsdAngstrom() <= kMaxMinRmsdAngstrom);
        }
        put("start_min_rmsd_A", in.startMinRmsdAngstrom);
        put("first_fold_gen", c.firstFoldedGeneration());
        put("first_fold_sim_h", c.firstFoldedTime() / 3600.0);
        put("min_rmsd_A", c.minRmsdAngstrom());
        if (!hist.empty())
            put("predicted_rmsd_A", hist.back().predictedRmsdAngstrom);
        for (const auto& rec : hist) {
            digest.add(rec.generation);
            digest.add(rec.wallClockSimTime);
            digest.add(rec.totalSnapshots);
            digest.add(rec.numClusters);
            digest.add(rec.minRmsdAngstrom);
            digest.add(rec.meanRmsdAngstrom);
            digest.add(rec.foldedFraction);
            digest.add(rec.predictedRmsdAngstrom);
            digest.add(rec.seedsSpawned);
            digest.add(rec.msmStats.fullRebuild);
            digest.add(rec.msmStats.rmsd.calls);
            digest.add(rec.msmStats.rmsd.pruned);
        }
        digest.add(c.firstFoldedTime());
        digest.add(c.firstFoldedGeneration());
    } else {
        const auto& c = *s->bar;
        const auto pushes = project.metricsSnapshot().tenants.at(0)
                                .counters.pushes;
        check("command_count",
              c.rounds() == spec.rounds && completed == pushes);
        const bool haveEstimate = c.estimate().has_value();
        const double dF = haveEstimate ? c.estimate()->totalDeltaF : 0.0;
        const double err = haveEstimate ? c.estimate()->totalError : 0.0;
        const double exact = c.analyticDeltaF();
        check("delta_f",
              haveEstimate && std::abs(dF - exact) <= 3.0 * err);
        put("delta_f", dF);
        put("delta_f_err", err);
        put("delta_f_exact", exact);
        digest.add(c.rounds());
        digest.add(dF);
        digest.add(err);
        if (haveEstimate)
            for (const auto& w : c.estimate()->windows) {
                digest.add(w.deltaF);
                digest.add(w.standardError);
            }
    }
    r["history_digest"] = {hex(digest.value())};

    // --- Per-layer counters (exact, so measured on every repetition) ----
    const auto net = dep.network().totalStats();
    put("net.messages", double(net.messages));
    put("net.bytes", double(net.bytes));
    put("net.batches", double(net.batches));
    put("net.batched_envelopes", double(net.batchedEnvelopes));
    core::wire::EndpointStats wire;
    const auto addWire = [&wire](const core::wire::EndpointStats& e) {
        wire.sent += e.sent;
        wire.retransmits += e.retransmits;
        wire.acksPiggybacked += e.acksPiggybacked;
        wire.duplicatesDropped += e.duplicatesDropped;
    };
    double claims = 0, scanSteps = 0, pushes = 0, forwarded = 0;
    double walRecords = 0, walSyncs = 0, walBytes = 0;
    core::StoreStats store;
    for (const core::Server* srv : s->servers) {
        addWire(srv->wireStats());
        const auto& sch = srv->schedulerStats();
        claims += double(sch.claims);
        scanSteps += double(sch.claimScanSteps);
        pushes += double(sch.pushes);
        forwarded += double(srv->stats().requestsForwarded);
        if (const core::Wal* wal = srv->wal()) {
            walRecords += double(wal->stats().records);
            walSyncs += double(wal->stats().syncs);
            walBytes += double(wal->stats().bytesWritten);
        }
        const auto& st = srv->segmentStore().stats();
        store.puts += st.puts;
        store.hits += st.hits;
        store.misses += st.misses;
        store.spills += st.spills;
        store.spilledCompressedBytes += st.spilledCompressedBytes;
    }
    for (const auto& w : dep.workers()) addWire(w->wireStats());
    put("core.wire.sent", double(wire.sent));
    put("core.wire.retransmits", double(wire.retransmits));
    put("core.wire.acks_piggybacked", double(wire.acksPiggybacked));
    put("core.wire.duplicates_dropped", double(wire.duplicatesDropped));
    put("core.sched.claims", claims);
    put("core.sched.claim_scan_steps", scanSteps);
    put("core.sched.pushes", pushes);
    put("core.server.requests_forwarded", forwarded);
    put("core.wal.records", walRecords);
    put("core.wal.syncs", walSyncs);
    put("core.wal.bytes", walBytes);
    put("core.wal.records_per_sync", ratio(walRecords, walSyncs));
    put("core.store.puts", double(store.puts));
    put("core.store.hits", double(store.hits));
    put("core.store.misses", double(store.misses));
    put("core.store.spills", double(store.spills));
    put("core.store.spilled_compressed_bytes",
        double(store.spilledCompressedBytes));

    msm::MsmStats msmTotal;
    double rebuilds = 0;
    if (s->msm)
        for (const auto& rec : s->msm->history()) {
            const auto& m = rec.msmStats;
            msmTotal.clusterSeconds += m.clusterSeconds;
            msmTotal.assignSeconds += m.assignSeconds;
            msmTotal.countSeconds += m.countSeconds;
            msmTotal.estimateSeconds += m.estimateSeconds;
            msmTotal.rmsd += m.rmsd;
            rebuilds += m.fullRebuild ? 1.0 : 0.0;
        }
    put("msm.rmsd_evals", double(msmTotal.rmsd.calls));
    put("msm.rmsd_pruned_frac", msmTotal.rmsd.pruneFraction());
    put("msm.full_rebuilds", rebuilds);

    // --- Time ledger (traced repetitions only) --------------------------
    if (const Ledger* led = s->ledger.get()) {
        const auto sec = [led](Layer l) { return led->seconds(l); };
        const double exec = sec(Layer::Exec);
        const double ingest = sec(Layer::ControllerIngest);
        const double gen = sec(Layer::ControllerGeneration);
        const double framework = wall - exec - ingest - gen;
        const double msmSeconds = msmTotal.totalSeconds();
        const auto frac = [wall](double v) { return ratio(v, wall); };
        put("trace.wall_s", wall);
        put("trace.spans", double(led->spanCount()));
        put("trace.span_cost_frac",
            frac(double(led->spanCount()) * Ledger::measureSpanCost()));
        put("core.exec_s", exec);
        put("core.exec_calls", double(led->calls(Layer::Exec)));
        put("core.controller_start_s", sec(Layer::ControllerStart));
        put("core.controller_ingest_s", ingest);
        put("core.controller_generation_s", gen);
        put("core.framework_s", framework);
        put("core.framework_us_per_event", ratio(framework, double(events)) * 1e6);
        put("mdlib.run_frac", frac(sec(Layer::MdRun)));
        put("mdlib.restore_frac", frac(sec(Layer::MdRestore)));
        put("mdlib.checkpoint_frac", frac(sec(Layer::MdCheckpoint)));
        put("core.output_encode_frac", frac(sec(Layer::OutputEncode)));
        put("fe.sample_frac", frac(sec(Layer::FeSample)));
        put("core.exec_other_frac",
            frac(exec - sec(Layer::MdRun) - sec(Layer::MdRestore) -
                 sec(Layer::MdCheckpoint) - sec(Layer::OutputEncode) -
                 sec(Layer::FeSample)));
        put("core.controller_ingest_frac", frac(ingest));
        put("msm.cluster_frac", frac(msmTotal.clusterSeconds));
        put("msm.assign_frac", frac(msmTotal.assignSeconds));
        put("msm.count_frac", frac(msmTotal.countSeconds));
        put("msm.estimate_frac", frac(msmTotal.estimateSeconds));
        // A generation callback is the MSM rebuild plus the respawn
        // around it; a BAR round callback is the refine step.
        put("core.respawn_frac", s->msm ? frac(gen - msmSeconds) : 0.0);
        put("fe.refine_frac", s->msm ? 0.0 : frac(gen));
        put("core.framework_frac", frac(framework));
        put("mdlib.steps", double(led->mdSteps));
        put("mdlib.steps_per_s",
            ratio(double(led->mdSteps), sec(Layer::MdRun)));
        put("mdlib.checkpoint_bytes", double(led->checkpointBytes));
        if (!opt.traceFile.empty()) led->writeChromeTrace(opt.traceFile);
    }
    return r;
}

} // namespace cop::e2e
