/// \file main.cpp
/// e2e_bench — the end-to-end adaptive-pipeline benchmark.
///
///   e2e_bench [--out FILE]
///       The suite: 5 interleaved rounds over the four workloads at their
///       fixed seeds, order reversed on alternate rounds (ABCD, DCBA,
///       ABCD, ...). In each round a workload runs one untraced and one traced
///       repetition back to back, in alternating order. Prints every metric
///       with its unit and writes the stamped result set to FILE.
///   e2e_bench --workload W --seed N --seconds S --trace 0|1
///       One measured run: repetitions of W for S seconds. The last stdout
///       line is a JSON object with the end-to-end metrics (--trace 0) or
///       the per-layer ledger (--trace 1).
///   e2e_bench --smoke
///       Tiny versions of all four workloads, traced and untraced, with
///       every correctness check.
///
/// Every repetition is a fresh child process of this binary (re-exec of
/// /proc/self/exe): single-threaded, with its own heap, so wait4() gives
/// its peak RSS. A run whose checks fail prints its result and exits 1.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mdlib/proteins.hpp"
#include "mdlib/simd_dispatch.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace {

using namespace cop::e2e;
using Clock = std::chrono::steady_clock;

/// Interleaved rounds of the suite. With 3, bench_diff.py read two suite
/// runs of one commit as "unresolved" on 7 of 24 workload x metric pairs:
/// the quartiles of three samples are nearly their extremes.
constexpr int kRounds = 5;
/// Set-up-only children run right before each untraced repetition (0.4 s
/// each at most, input generation included). With the repetition itself
/// they give its setup_s sample (see endToEndSamples).
constexpr int kSetupOnlyPerRep = 2;

// --- Arguments ------------------------------------------------------------

struct Args {
    std::map<std::string, std::string> values;
    bool has(const std::string& k) const { return values.count(k) > 0; }
    std::string get(const std::string& k, const std::string& dflt = "") const {
        const auto it = values.find(k);
        return it == values.end() ? dflt : it->second;
    }
};

Args parseArgs(int argc, char** argv) {
    static const char* const kFlags[] = {"--child", "--smoke",
                                         "--allow-debug"};
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (std::find(std::begin(kFlags), std::end(kFlags), k) !=
            std::end(kFlags)) {
            a.values[k] = "1";
            continue;
        }
        if (k.rfind("--", 0) != 0 || i + 1 >= argc)
            throw cop::InvalidArgument("bad argument '" + k + "'");
        a.values[k] = argv[++i];
    }
    return a;
}

std::string selfExe() {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    COP_IO_CHECK(n > 0, "cannot resolve /proc/self/exe");
    return std::string(buf, std::size_t(n));
}

std::string dirOf(const std::string& path) {
    const auto slash = path.rfind('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

// --- Child processes ------------------------------------------------------

/// One repetition as seen by the parent.
struct Rep {
    RepResult r;
    double rssMb = 0.0;

    const std::vector<std::string>& list(const std::string& k) const {
        static const std::vector<std::string> kEmpty;
        const auto it = r.find(k);
        return it == r.end() ? kEmpty : it->second;
    }
    std::string str(const std::string& k) const {
        const auto& v = list(k);
        return v.empty() ? "" : v.front();
    }
    double num(const std::string& k) const {
        const auto& v = list(k);
        return v.empty() ? 0.0 : std::strtod(v.front().c_str(), nullptr);
    }
    std::vector<double> nums(const std::string& k) const {
        std::vector<double> out;
        for (const auto& s : list(k)) out.push_back(std::strtod(s.c_str(), nullptr));
        return out;
    }
    std::vector<std::string> failedChecks() const {
        std::vector<std::string> out;
        for (const auto& [k, v] : r)
            if (k.rfind("check.", 0) == 0 && v.front() != "1")
                out.push_back(k.substr(6));
        return out;
    }
};

RepResult parseRepResult(const std::string& text) {
    RepResult r;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key, v;
        if (!(ls >> key)) continue;
        auto& values = r[key];
        values.clear();
        while (ls >> v) values.push_back(v);
    }
    return r;
}

struct RepRequest {
    RepRequest(std::string w, std::uint64_t s, bool t = false)
        : workload(std::move(w)), seed(s), traced(t) {}

    std::string workload;
    std::uint64_t seed;
    bool traced;
    bool smoke = false;
    bool setupOnly = false;
    int setups = RepOptions{}.setups;
    std::string traceFile;
};

/// Runs one repetition in a fresh child process and waits for it.
Rep runChild(const std::string& exe, const std::string& scratch,
             const RepRequest& req) {
    std::vector<std::string> args = {
        exe,
        "--child",
        "--workload",
        req.workload,
        "--seed",
        std::to_string(req.seed),
        "--traced",
        req.traced ? "1" : "0",
        "--smoke-child",
        req.smoke ? "1" : "0",
        "--setup-only",
        req.setupOnly ? "1" : "0",
        "--scratch",
        scratch,
        "--setups",
        std::to_string(req.setups),
        "--trace-file",
        req.traceFile.empty() ? "-" : req.traceFile,
    };
    std::vector<char*> argv;
    for (auto& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);

    int fds[2];
    COP_IO_CHECK(::pipe(fds) == 0, "pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    COP_IO_CHECK(pid >= 0, "fork failed");
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    std::string out;
    char buf[1 << 14];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n > 0) {
            out.append(buf, std::size_t(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    ::close(fds[0]);
    int status = 0;
    struct rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {}
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw cop::Error("repetition of " + req.workload + " (seed " +
                         std::to_string(req.seed) + ") failed");
    Rep rep;
    rep.r = parseRepResult(out);
    rep.rssMb = double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
    return rep;
}

/// Appends `count` set-up-only children to `out`.
void addSetupOnlyReps(const std::string& exe, const std::string& scratch,
                      const std::string& workload, std::uint64_t seed,
                      int count, std::vector<Rep>& out) {
    for (int i = 0; i < count; ++i) {
        RepRequest req(workload, seed);
        req.setupOnly = true;
        out.push_back(runChild(exe, scratch, req));
    }
}

// --- Statistics -------------------------------------------------------------

struct Summary {
    double q1 = 0, median = 0, q3 = 0;
    std::size_t n = 0;
};

/// Median and quartiles as Python's statistics.quantiles(v, n=4) gives
/// them (the "exclusive" method), so bench_diff.py and e2e_bench agree.
Summary summarize(std::vector<double> v) {
    Summary s;
    s.n = v.size();
    if (v.empty()) return s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    if (n == 1) {
        s.q1 = s.q3 = v[0];
        return s;
    }
    const auto quantile = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta = double(i * m) - double(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.q1 = quantile(1);
    s.q3 = quantile(3);
    return s;
}

// --- JSON output --------------------------------------------------------------

std::string jnum(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string jstr(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string jarray(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + jnum(v[i]);
    return out + "]";
}

// --- Aggregation --------------------------------------------------------------

/// One sample per untraced rep of each end-to-end metric. Generations and
/// set-ups differ in cost within a process, so each process contributes
/// the median of its own. A rep's setup_s is the mean of that median over
/// the rep's process and the kSetupOnlyPerRep set-up-only children run
/// just before it (`setupOnly` holds them in rep order): one process's
/// set-ups fall within a few milliseconds, and on a shared host their
/// median lands near one of two speeds about 1.6x apart. A median over
/// processes snaps from one to the other as the share of slow processes
/// crosses a half; the mean moves in proportion to that share.
std::map<std::string, std::vector<double>>
endToEndSamples(const std::vector<Rep>& reps,
                const std::vector<Rep>& setupOnly) {
    std::map<std::string, std::vector<double>> s;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep& rep = reps[i];
        s["commands_per_s"].push_back(rep.num("commands_per_s"));
        s["gen_wall_s"].push_back(summarize(rep.nums("gen_wall_s")).median);
        s["peak_rss_mb"].push_back(rep.rssMb);
        s["sim_h"].push_back(rep.num("sim_h"));
        s["failed_frac"].push_back(rep.num("failed_frac"));
        double setup = summarize(rep.nums("setup_s")).median;
        for (int k = 0; k < kSetupOnlyPerRep; ++k)
            setup += summarize(setupOnly.at(i * kSetupOnlyPerRep + k)
                                   .nums("setup_s"))
                         .median;
        s["setup_s"].push_back(setup / (kSetupOnlyPerRep + 1));
    }
    return s;
}

/// Per-layer values: the median over traced reps. The tracing overhead
/// is the median traced/untraced wall ratio over pairs of reps that ran
/// back to back (`pairedPlain[i]` ran next to `traced[i]`), so slow host
/// drift between distant reps does not pose as overhead.
std::map<std::string, double>
perLayerValues(const std::vector<Rep>& traced,
               const std::vector<const Rep*>& pairedPlain) {
    std::map<std::string, double> out;
    for (const MetricDef& m : perLayerMetrics()) {
        std::vector<double> v;
        for (const Rep& rep : traced) v.push_back(rep.num(m.name));
        out[m.name] = summarize(v).median;
    }
    std::vector<double> ratios;
    for (std::size_t i = 0; i < traced.size() && i < pairedPlain.size(); ++i)
        ratios.push_back(traced[i].num("wall_s") / pairedPlain[i]->num("wall_s"));
    out["trace.overhead_frac"] = summarize(ratios).median - 1.0;
    return out;
}

/// Cross-repetition checks: every rep passed its own checks, and the
/// overlay trace hash and controller-history digest agree across all of
/// them (traced and untraced), which also proves the traced handlers are
/// faithful. Returns the problems found.
std::vector<std::string> crossCheck(const std::string& workload,
                                    const std::vector<Rep>& reps) {
    std::vector<std::string> problems;
    for (const Rep& rep : reps)
        for (const auto& c : rep.failedChecks())
            problems.push_back(workload + ": check " + c + " failed");
    for (const char* key : {"trace_hash", "history_digest"})
        for (const Rep& rep : reps)
            if (rep.str(key) != reps.front().str(key)) {
                problems.push_back(workload + ": " + key +
                                   " differs across repetitions");
                break;
            }
    return problems;
}

void reportProblems(const std::vector<std::string>& problems) {
    for (const auto& p : problems) std::fprintf(stderr, "FAIL %s\n", p.c_str());
}

// --- Stamp --------------------------------------------------------------------

std::string cpuModel() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                std::string v = line.substr(colon + 1);
                v.erase(0, v.find_first_not_of(' '));
                return v;
            }
        }
    return "unknown";
}

int usableCpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return 0;
    return CPU_COUNT(&set);
}

const char* flavorName(cop::md::KernelFlavor f) {
    switch (f) {
    case cop::md::KernelFlavor::Scalar: return "Scalar";
    case cop::md::KernelFlavor::Blocked4: return "Blocked4";
    case cop::md::KernelFlavor::Soa: return "Soa";
    case cop::md::KernelFlavor::SimdAuto: return "SimdAuto";
    }
    return "unknown";
}

std::string stampJson(const std::string& walFs) {
    const int cpus = usableCpus();
    char date[32];
    const std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
    std::ostringstream o;
    o << "{\"build_type\": " << jstr(E2E_BUILD_TYPE)
      << ", \"compiler\": " << jstr(E2E_COMPILER)
      << ", \"simd_isa\": "
      << jstr(cop::md::simdIsaName(cop::md::detectSimdIsa()))
      << ", \"kernel_flavor\": "
      << jstr(flavorName(cop::md::villinGoModel().forceFieldParams().flavor))
      << ", \"cpus\": " << cpus << ", \"single_cpu\": "
      << (cpus == 1 ? "true" : "false")
      << ", \"cpu_model\": " << jstr(cpuModel())
      << ", \"wal_fs\": " << jstr(walFs) << ", \"date\": " << jstr(date)
      << "}";
    return o.str();
}

// --- Modes --------------------------------------------------------------------

int childMain(const Args& a) {
    // Keep freed memory in the heap instead of handing it back to the
    // kernel, as the warm heap of a long-running server does. A short
    // child that trims page-faults its way back on every set-up, and on a
    // shared host the fault cost nearly doubled some processes' set-ups.
    ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
    ::mallopt(M_TRIM_THRESHOLD, 1 << 30);
    const bool smoke = a.get("--smoke-child") == "1";
    const auto& spec =
        findWorkload(smoke ? smokeWorkloads() : workloads(), a.get("--workload"));
    RepOptions opt;
    opt.seed = std::stoull(a.get("--seed"));
    opt.traced = a.get("--traced") == "1";
    opt.setups = std::stoi(a.get("--setups"));
    opt.runProject = a.get("--setup-only") != "1";
    opt.scratchDir = a.get("--scratch");
    if (a.get("--trace-file") != "-") opt.traceFile = a.get("--trace-file");
    for (const auto& [key, values] : runRepetition(spec, opt)) {
        std::string line = key;
        for (const auto& v : values) line += " " + v;
        std::puts(line.c_str());
    }
    return 0;
}

/// One measured run: the command BENCHMARK.json names. Repetitions start
/// while one more, taking as long as the median so far, still ends within
/// --seconds of the start; the first always runs (with --trace 1, the
/// first traced and untraced pair).
int measuredMain(const Args& a, const std::string& exe,
                 const std::string& scratch) {
    const std::string workload = a.get("--workload");
    findWorkload(workloads(), workload); // validate before spawning
    if (!a.has("--seed") || !a.has("--seconds"))
        throw cop::InvalidArgument("--workload needs --seed and --seconds");
    const std::uint64_t seed = std::stoull(a.get("--seed"));
    const double seconds = std::stod(a.get("--seconds"));
    const bool traceMode = a.get("--trace", "0") == "1";

    std::vector<Rep> plain, traced, setupOnly;
    std::vector<double> repSeconds;
    const auto t0 = Clock::now();
    const auto since = [](Clock::time_point t) {
        return std::chrono::duration<double>(Clock::now() - t).count();
    };
    for (;;) {
        const std::size_t k = plain.size() + traced.size();
        const bool required = traceMode ? k < 2 : k < 1;
        if (!required && since(t0) + summarize(repSeconds).median > seconds)
            break;
        // Traced runs pair traced and untraced repetitions back to back,
        // in alternating order (TU UT TU ...): the pairs give the tracing
        // overhead free of slow host drift.
        RepRequest req(workload, seed, traceMode && (k / 2) % 2 == k % 2);
        if (req.traced && traced.empty())
            req.traceFile = scratch + "/e2e_trace_" + workload + ".json";
        auto& reps = req.traced ? traced : plain;
        const auto r0 = Clock::now();
        if (!traceMode)
            addSetupOnlyReps(exe, scratch, workload, seed, kSetupOnlyPerRep,
                             setupOnly);
        reps.push_back(runChild(exe, scratch, req));
        repSeconds.push_back(since(r0));
        std::fprintf(stderr, "%s rep %zu: wall %.3f s, %.1f commands/s, "
                     "rss %.1f MB\n",
                     req.traced ? "traced" : "untraced", reps.size(),
                     reps.back().num("wall_s"),
                     reps.back().num("commands_per_s"), reps.back().rssMb);
    }
    std::fprintf(stderr, "measured %.1f s\n", since(t0));

    std::vector<Rep> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    const auto problems = crossCheck(workload, all);
    reportProblems(problems);
    double attempted = 0, failed = 0;
    for (const Rep& rep : all) {
        attempted += rep.num("assigned");
        failed += rep.num("failures");
    }

    std::ostringstream m;
    bool first = true;
    const auto metric = [&](const MetricDef& d, double v) {
        m << (first ? "" : ", ") << jstr(d.name) << ": {\"value\": " << jnum(v)
          << ", \"unit\": " << jstr(d.unit) << "}";
        first = false;
    };
    if (traceMode) {
        // The i-th traced and i-th untraced reps ran back to back.
        std::vector<const Rep*> pairs;
        for (const Rep& rep : plain) pairs.push_back(&rep);
        const auto values = perLayerValues(traced, pairs);
        for (const MetricDef& d : perLayerMetrics()) metric(d, values.at(d.name));
    } else {
        const auto samples = endToEndSamples(plain, setupOnly);
        for (const MetricDef& d : endToEndMetrics())
            metric(d, summarize(samples.at(d.name)).median);
    }
    std::printf("{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
                "\"metrics\": {%s}}\n",
                problems.empty() ? "true" : "false", attempted, failed,
                m.str().c_str());
    return problems.empty() ? 0 : 1;
}

/// The run.sh suite: interleaved rounds, each running every workload's
/// untraced and traced reps back to back.
int suiteMain(const Args& a, const std::string& exe,
              const std::string& scratch) {
    const std::string outPath = a.get("--out", scratch + "/BENCH_e2e.json");
    const auto& list = workloads();
    std::map<std::string, std::vector<Rep>> plain, traced, setupOnly;
    const auto t0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
        // ABCD, DCBA, ...: host drift spreads evenly over the workloads,
        // and each villin_fold/villin_durable pair alternates its order,
        // as does each traced/untraced pair.
        for (std::size_t k = 0; k < list.size(); ++k) {
            const auto& w = round % 2 ? list[list.size() - 1 - k] : list[k];
            std::fprintf(stderr, "round %d: %s\n", round + 1, w.name.c_str());
            addSetupOnlyReps(exe, scratch, w.name, w.defaultSeed,
                             kSetupOnlyPerRep, setupOnly[w.name]);
            for (const bool tracedRep : {round % 2 == 1, round % 2 == 0}) {
                RepRequest req(w.name, w.defaultSeed, tracedRep);
                if (tracedRep && round == 0)
                    req.traceFile = scratch + "/e2e_trace_" + w.name + ".json";
                (tracedRep ? traced : plain)[w.name].push_back(
                    runChild(exe, scratch, req));
            }
        }
    }
    const double suiteSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();

    std::vector<std::string> problems;
    std::string walFs = "none";
    std::ostringstream wj;
    for (std::size_t wi = 0; wi < list.size(); ++wi) {
        const auto& w = list[wi];
        std::vector<Rep> all = plain[w.name];
        all.insert(all.end(), traced[w.name].begin(), traced[w.name].end());
        const auto wp = crossCheck(w.name, all);
        problems.insert(problems.end(), wp.begin(), wp.end());
        const Rep& ref = all.front();
        if (!ref.str("wal_fs").empty()) walFs = ref.str("wal_fs");

        std::printf("\n== %s (seed %llu, %d untraced + %d traced reps)%s\n",
                    w.name.c_str(),
                    static_cast<unsigned long long>(w.defaultSeed), kRounds,
                    kRounds, wp.empty() ? "" : "  ** CHECKS FAILED **");
        wj << (wi ? ",\n" : "") << "    " << jstr(w.name) << ": {\n"
           << "      \"seed\": " << w.defaultSeed
           << ", \"generations_per_rep\": " << ref.list("gen_wall_s").size()
           << ", \"setups_per_process\": " << ref.list("setup_s").size()
           << ", \"correct\": " << (wp.empty() ? "true" : "false")
           << ", \"trace_hash\": " << jstr(ref.str("trace_hash"))
           << ", \"history_digest\": " << jstr(ref.str("history_digest"))
           << ", \"wal_fs\": " << jstr(ref.str("wal_fs").empty() ? "none" : ref.str("wal_fs"))
           << ",\n      \"end_to_end\": {";

        const auto samples = endToEndSamples(plain[w.name], setupOnly[w.name]);
        // Two more end-to-end metrics that never vary between runs, so
        // BENCHMARK.json cannot bound them; bench_diff.py does.
        std::vector<MetricDef> e2e = endToEndMetrics();
        e2e.push_back({"sim_h", "h", "lower"});
        e2e.push_back({"failed_frac", "frac", "lower"});
        for (std::size_t i = 0; i < e2e.size(); ++i) {
            const auto& d = e2e[i];
            const auto& v = samples.at(d.name);
            const Summary s = summarize(v);
            std::printf("  %-30s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%zu]\n",
                        d.name, s.median, d.unit, s.q1, s.q3, s.n);
            wj << (i ? "," : "") << "\n        " << jstr(d.name)
               << ": {\"unit\": " << jstr(d.unit)
               << ", \"median\": " << jnum(s.median)
               << ", \"q1\": " << jnum(s.q1) << ", \"q3\": " << jnum(s.q3)
               << ", \"n\": " << s.n << ", \"samples\": " << jarray(v) << "}";
        }
        wj << "\n      },\n      \"science\": {";
        static const char* const kScience[] = {
            "first_fold_gen",   "first_fold_sim_h", "min_rmsd_A",
            "start_min_rmsd_A", "predicted_rmsd_A", "delta_f",
            "delta_f_err",      "delta_f_exact"};
        bool firstSci = true;
        for (const char* k : kScience) {
            if (ref.list(k).empty()) continue;
            std::printf("  %-30s %14.6g\n", k, ref.num(k));
            wj << (firstSci ? "" : ", ") << jstr(k) << ": " << jnum(ref.num(k));
            firstSci = false;
        }
        wj << "},\n      \"per_layer\": {";
        // The traced and untraced reps of a round ran back to back.
        std::vector<const Rep*> pairs;
        for (const Rep& rep : plain[w.name]) pairs.push_back(&rep);
        const auto layer = perLayerValues(traced[w.name], pairs);
        const auto& defs = perLayerMetrics();
        for (std::size_t i = 0; i < defs.size(); ++i) {
            const auto& d = defs[i];
            std::printf("  %-36s %14.6g %s\n", d.name, layer.at(d.name), d.unit);
            wj << (i ? "," : "") << "\n        " << jstr(d.name)
               << ": {\"value\": " << jnum(layer.at(d.name))
               << ", \"unit\": " << jstr(d.unit) << "}";
        }
        wj << "\n      }\n    }";
    }

    // WAL tax: villin_durable over villin_fold commands/s, paired by round
    // (each pair ran next to each other, in alternating order).
    const auto& fold = plain["villin_fold"];
    const auto& dur = plain["villin_durable"];
    std::vector<double> pairs;
    for (std::size_t i = 0; i < std::min(fold.size(), dur.size()); ++i)
        pairs.push_back(dur[i].num("commands_per_s") /
                        fold[i].num("commands_per_s"));
    const double walTax = summarize(pairs).median;
    std::printf("\nwal_tax_cps_ratio (villin_durable / villin_fold) %.4f "
                "over %zu pairs\nsuite wall %.1f s\n",
                walTax, pairs.size(), suiteSeconds);

    std::ofstream out(outPath);
    out << "{\n  \"benchmark\": \"bench/e2e\",\n  \"stamp\": " << stampJson(walFs)
        << ",\n  \"config\": {\"rounds\": " << kRounds
        << ", \"traced_runs_per_workload\": " << kRounds
        << ", \"suite_wall_s\": " << jnum(suiteSeconds)
        << "},\n  \"workloads\": {\n"
        << wj.str() << "\n  },\n  \"derived\": {\"wal_tax_cps_ratio\": {"
        << "\"value\": " << jnum(walTax) << ", \"pairs\": " << jarray(pairs)
        << "}}\n}\n";
    out.close();
    COP_IO_CHECK(bool(out), "cannot write " + outPath);
    std::printf("wrote %s\n", outPath.c_str());
    reportProblems(problems);
    return problems.empty() ? 0 : 1;
}

/// Tiny versions of every workload, traced and untraced, every check.
int smokeMain(const std::string& exe, const std::string& scratch) {
    const auto t0 = Clock::now();
    std::vector<std::string> problems;
    for (const auto& w : smokeWorkloads()) {
        std::vector<Rep> reps;
        for (bool tracedRep : {false, true}) {
            RepRequest req(w.name, w.defaultSeed, tracedRep);
            req.smoke = true;
            req.setups = 1;
            reps.push_back(runChild(exe, scratch, req));
        }
        auto wp = crossCheck(w.name, reps);
        // The ledger is a partition of wall time: a negative framework
        // residual would mean overlapping (double-counted) spans.
        if (reps.back().num("core.framework_s") < 0.0)
            wp.push_back(w.name + ": ledger spans overlap");
        std::printf("smoke %-16s %s  commands %.0f  hash %s\n", w.name.c_str(),
                    wp.empty() ? "ok  " : "FAIL", reps.front().num("commands"),
                    reps.front().str("trace_hash").c_str());
        problems.insert(problems.end(), wp.begin(), wp.end());
    }
    reportProblems(problems);
    std::printf("smoke %s in %.2f s\n", problems.empty() ? "passed" : "FAILED",
                std::chrono::duration<double>(Clock::now() - t0).count());
    return problems.empty() ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Args a = parseArgs(argc, argv);
        if (a.has("--child")) return childMain(a);
        if (std::string(E2E_BUILD_TYPE) != "Release" && !a.has("--allow-debug")) {
            std::fprintf(stderr,
                         "e2e_bench: refusing to measure a %s build; rebuild "
                         "with -DCMAKE_BUILD_TYPE=Release or pass "
                         "--allow-debug\n",
                         E2E_BUILD_TYPE);
            return 2;
        }
        const std::string exe = selfExe();
        const std::string scratch = a.get("--scratch", dirOf(exe));
        if (a.has("--smoke")) return smokeMain(exe, scratch);
        if (a.has("--workload")) return measuredMain(a, exe, scratch);
        return suiteMain(a, exe, scratch);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 1;
    }
}
