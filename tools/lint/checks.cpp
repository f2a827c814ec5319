#include "lint.hpp"

#include <filesystem>

namespace coplint {

namespace {

bool ident(const Token& t, const char* text) {
    return t.kind == TokKind::Identifier && t.text == text;
}
bool punct(const Token& t, const char* text) {
    return t.kind == TokKind::Punct && t.text == text;
}

/// True when a comment containing `needle` covers `line` or the line
/// directly above it (annotation on the loop itself or just before it).
bool annotatedNear(const LexedFile& f, int line, const char* needle) {
    for (const auto& c : f.comments) {
        if (c.text.find(needle) == std::string::npos) continue;
        if (line >= c.firstLine && line <= c.lastLine + 1) return true;
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------------
// Check 1: bare synchronization primitives outside the wrapper layer
// ---------------------------------------------------------------------------

void checkBareMutex(const LexedFile& f, const Config& cfg,
                    std::vector<Finding>& out) {
    if (pathInAny(f.path, cfg.mutexExempt)) return;
    static const char* const kBanned[] = {
        "mutex",          "timed_mutex",
        "recursive_mutex", "recursive_timed_mutex",
        "shared_mutex",   "shared_timed_mutex",
        "lock_guard",     "unique_lock",
        "scoped_lock",    "shared_lock",
        "condition_variable", "condition_variable_any",
        "call_once",      "once_flag",
    };
    const auto& t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (!ident(t[i], "std") || !punct(t[i + 1], "::")) continue;
        const Token& name = t[i + 2];
        if (name.kind != TokKind::Identifier) continue;
        for (const char* b : kBanned) {
            if (name.text != b) continue;
            out.push_back(Finding{
                f.path, name.line, "copernicus-bare-mutex",
                "std::" + name.text +
                    " outside src/util/ — use util::Mutex / util::LockGuard"
                    " / util::UniqueLock (src/util/mutex.hpp) so the"
                    " thread-safety annotations see this lock"});
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Check 2: nondeterminism in the replay/trace-hash-critical planes
// ---------------------------------------------------------------------------

void checkNondeterminism(const LexedFile& f, const Config& cfg,
                         const TreeContext& tree, std::vector<Finding>& out) {
    if (!pathInAny(f.path, cfg.nondetDirs)) return;
    const auto& t = f.tokens;

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier) continue;
        const bool qualifiedNonStd =
            i >= 2 && punct(t[i - 1], "::") && !ident(t[i - 2], "std") &&
            !ident(t[i - 2], "chrono");
        if (qualifiedNonStd) continue; // util::rand-style wrappers are fine
        auto flag = [&](const std::string& msg) {
            out.push_back(Finding{f.path, t[i].line,
                                  "copernicus-nondeterminism", msg});
        };
        if ((t[i].text == "rand" || t[i].text == "srand") && i + 1 < t.size() &&
            punct(t[i + 1], "(")) {
            flag(t[i].text + "() breaks replay determinism — use the seeded "
                 "cop::Rng (util/random.hpp)");
        } else if (t[i].text == "random_device") {
            flag("std::random_device is nondeterministic by design — derive "
                 "seeds from the deployment/chaos seed instead");
        } else if (t[i].text == "system_clock" || t[i].text == "steady_clock" ||
                   t[i].text == "high_resolution_clock") {
            flag("wall-clock time (" + t[i].text +
                 ") in a replay-critical plane — use EventLoop::now() "
                 "sim-time");
        } else if (t[i].text == "getenv") {
            flag("getenv-derived behavior differs across hosts/runs — thread "
                 "configuration through explicit config structs");
        }
    }

    // Iteration over unordered containers: range-for whose range names a
    // declared unordered_{map,set} variable, or an explicit .begin() walk.
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (ident(t[i], "for") && punct(t[i + 1], "(")) {
            const std::size_t close = matchForward(t, i + 1);
            if (close >= t.size()) continue;
            // Find a single ":" at paren depth 1 (range-for separator).
            int depth = 0;
            std::size_t colon = 0;
            for (std::size_t k = i + 1; k < close; ++k) {
                if (punct(t[k], "(")) ++depth;
                else if (punct(t[k], ")")) --depth;
                else if (depth == 1 && punct(t[k], ":")) {
                    colon = k;
                    break;
                }
            }
            if (colon == 0) continue;
            for (std::size_t k = colon + 1; k < close; ++k) {
                if (t[k].kind != TokKind::Identifier) continue;
                if (tree.unorderedVars.count(t[k].text) == 0) continue;
                if (annotatedNear(f, t[i].line, "order-insensitive")) break;
                out.push_back(Finding{
                    f.path, t[i].line, "copernicus-nondeterminism",
                    "range-for over unordered container '" + t[k].text +
                        "' — hash-order iteration breaks snapshot/trace "
                        "determinism; sort keys at the emission boundary or "
                        "annotate `// order-insensitive: <why>`"});
                break;
            }
        }
        // explicit iterator walk: var.begin() / var.cbegin()
        if (t[i].kind == TokKind::Identifier &&
            tree.unorderedVars.count(t[i].text) > 0 && punct(t[i + 1], ".") &&
            (ident(t[i + 2], "begin") || ident(t[i + 2], "cbegin") ||
             ident(t[i + 2], "rbegin"))) {
            if (annotatedNear(f, t[i].line, "order-insensitive")) continue;
            out.push_back(Finding{
                f.path, t[i].line, "copernicus-nondeterminism",
                "iterator walk over unordered container '" + t[i].text +
                    "' — hash-order iteration breaks snapshot/trace "
                    "determinism; sort keys at the emission boundary or "
                    "annotate `// order-insensitive: <why>`"});
        }
    }
}

// ---------------------------------------------------------------------------
// Check 3: untrusted length prefixes sizing allocations
// ---------------------------------------------------------------------------

namespace {

/// True if the statement token range contains `read` `<` ... (a raw
/// scalar read) — the length-prefix producers.
bool containsRawRead(const std::vector<Token>& t, std::size_t b,
                     std::size_t e) {
    for (std::size_t i = b; i + 1 < e; ++i)
        if (ident(t[i], "read") && punct(t[i + 1], "<")) return true;
    for (std::size_t i = b; i < e; ++i)
        if (ident(t[i], "readU32") || ident(t[i], "readU64")) return true;
    return false;
}

bool containsValidatedRead(const std::vector<Token>& t, std::size_t b,
                           std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
        if (ident(t[i], "readCount")) return true;
    return false;
}

bool isCheckMacro(const std::string& s) {
    return s.find("CHECK") != std::string::npos ||
           s.find("REQUIRE") != std::string::npos ||
           s.find("assert") != std::string::npos || s == "min";
}

} // namespace

void checkUntrustedLength(const LexedFile& f, const Config& cfg,
                          std::vector<Finding>& out) {
    bool scoped = false;
    for (const auto& uf : cfg.untrustedFiles)
        if (f.path == uf) scoped = true;
    if (!scoped) return;

    const auto& t = f.tokens;
    for (const auto& fn : findFunctions(f)) {
        std::set<std::string> tainted;   // raw length reads, unvalidated
        std::set<std::string> validated; // passed a cap / readCount
        std::size_t s = fn.beginTok + 1;
        while (s < fn.endTok) {
            // Statement = tokens up to ';' or a brace boundary.
            std::size_t e = s;
            while (e < fn.endTok && !punct(t[e], ";") && !punct(t[e], "{") &&
                   !punct(t[e], "}"))
                ++e;

            // (a) taint assignment:  x = ...read<...>...   (no readCount)
            // (b) sanctified assignment: x = ...readCount(...)...
            for (std::size_t i = s; i + 1 < e; ++i) {
                if (!punct(t[i + 1], "=") ||
                    t[i].kind != TokKind::Identifier)
                    continue;
                const std::string& var = t[i].text;
                if (containsValidatedRead(t, i + 2, e)) {
                    validated.insert(var);
                    tainted.erase(var);
                } else if (containsRawRead(t, i + 2, e)) {
                    tainted.insert(var);
                    validated.erase(var);
                }
            }

            // (c) validation statement: a tainted var compared against a
            // bound, or passed through a CHECK/REQUIRE/min-style guard.
            if (!containsRawRead(t, s, e)) {
                bool guard = false;
                for (std::size_t i = s; i < e; ++i) {
                    if (t[i].kind == TokKind::Punct &&
                        (t[i].text == "<" || t[i].text == ">" ||
                         t[i].text == "<=" || t[i].text == ">=" ||
                         t[i].text == "==" || t[i].text == "!="))
                        guard = true;
                    if (t[i].kind == TokKind::Identifier &&
                        isCheckMacro(t[i].text))
                        guard = true;
                }
                if (guard)
                    for (std::size_t i = s; i < e; ++i)
                        if (t[i].kind == TokKind::Identifier &&
                            tainted.count(t[i].text)) {
                            validated.insert(t[i].text);
                            tainted.erase(t[i].text);
                        }
            }

            // (d) violation: resize/reserve/new[] sized by tainted data.
            for (std::size_t i = s; i + 1 < e; ++i) {
                const bool alloc = (ident(t[i], "resize") ||
                                    ident(t[i], "reserve")) &&
                                   punct(t[i + 1], "(");
                const bool arr = ident(t[i], "new");
                if (!alloc && !arr) continue;
                std::size_t argB = 0, argE = 0;
                if (alloc) {
                    argB = i + 1;
                    argE = matchForward(t, argB);
                } else {
                    // new T[expr]
                    std::size_t k = i + 1;
                    while (k < e && !punct(t[k], "[") && !punct(t[k], ";"))
                        ++k;
                    if (k >= e || !punct(t[k], "[")) continue;
                    argB = k;
                    argE = matchForward(t, argB);
                }
                if (argE >= fn.endTok) continue;
                bool bad = containsRawRead(t, argB, argE);
                std::string via = "a raw length-prefix read";
                for (std::size_t k = argB + 1; !bad && k < argE; ++k)
                    if (t[k].kind == TokKind::Identifier &&
                        tainted.count(t[k].text)) {
                        bad = true;
                        via = "'" + t[k].text + "' (raw length-prefix read)";
                    }
                if (bad)
                    out.push_back(Finding{
                        f.path, t[i].line, "copernicus-untrusted-length",
                        "allocation sized by " + via + " in " +
                            fn.qualified +
                            " without a readCount()/cap check first — a "
                            "hostile prefix buys a multi-GiB allocation "
                            "before parsing fails"});
            }

            s = e + 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Check 4: exhaustive switches over wire/WAL tag enums, no default:
// ---------------------------------------------------------------------------

void checkSwitchEnum(const LexedFile& f, const TreeContext& tree,
                     std::vector<Finding>& out) {
    if (tree.enums.empty()) return;
    const auto& t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!ident(t[i], "switch") || !punct(t[i + 1], "(")) continue;
        const std::size_t condClose = matchForward(t, i + 1);
        if (condClose + 1 >= t.size() || !punct(t[condClose + 1], "{"))
            continue;
        const std::size_t bodyOpen = condClose + 1;
        const std::size_t bodyClose = matchForward(t, bodyOpen);
        if (bodyClose >= t.size()) continue;

        // Collect case labels and default: at this switch's own depth.
        const EnumDef* target = nullptr;
        std::set<std::string> used;
        int defaultLine = 0;
        int depth = 0;
        for (std::size_t k = bodyOpen; k < bodyClose; ++k) {
            if (punct(t[k], "{")) ++depth;
            else if (punct(t[k], "}")) --depth;
            if (depth != 1) continue;
            if (ident(t[k], "default") && k + 1 < bodyClose &&
                punct(t[k + 1], ":"))
                defaultLine = t[k].line;
            if (!ident(t[k], "case")) continue;
            // Label tokens up to ':' (skipping '::').
            std::size_t e = k + 1;
            while (e < bodyClose && !(punct(t[e], ":")) ) ++e;
            // Pattern ...  Qualifier :: Enumerator  — identify the enum by
            // the identifier right before the last "::".
            for (std::size_t m = k + 1; m + 2 < e + 1 && m + 2 <= e; ++m) {
                if (t[m].kind == TokKind::Identifier &&
                    punct(t[m + 1], "::") &&
                    t[m + 2].kind == TokKind::Identifier) {
                    for (const auto& def : tree.enums)
                        if (def.name == t[m].text) {
                            target = &def;
                            used.insert(t[m + 2].text);
                        }
                }
            }
            k = e;
        }
        if (!target) continue;

        if (defaultLine != 0)
            out.push_back(Finding{
                f.path, defaultLine, "copernicus-switch-enum",
                "default: arm in a switch over " + target->name +
                    " — enumerate every case so adding an enumerator is a "
                    "compile-time/lint-time event, and handle the "
                    "out-of-range byte before or after the switch"});
        std::vector<std::string> missing;
        for (const auto& en : target->enumerators)
            if (used.count(en) == 0) missing.push_back(en);
        if (!missing.empty()) {
            std::string list;
            for (const auto& m : missing)
                list += (list.empty() ? "" : ", ") + m;
            out.push_back(Finding{
                f.path, t[i].line, "copernicus-switch-enum",
                "switch over " + target->name +
                    " does not enumerate: " + list});
        }
    }
}

// ---------------------------------------------------------------------------
// Check 5: blocking calls on event-loop-reachable code
// ---------------------------------------------------------------------------

void checkBlocking(const LexedFile& f, const Config& cfg,
                   std::vector<Finding>& out) {
    if (!pathInAny(f.path, cfg.nondetDirs)) return;

    auto allowed = [&](const std::string& fnName) {
        for (const auto& [file, fn] : cfg.blockingAllow)
            if (file == f.path && (fn == "*" || fn == fnName)) return true;
        return false;
    };

    static const char* const kBlocking[] = {
        "fdatasync", "fsync",       "posix_fallocate", "ftruncate",
        "pread",     "pwrite",      "mmap",            "munmap",
        "sleep_for", "sleep_until", "usleep",          "nanosleep",
    };
    // Global-scope-qualified POSIX calls: `::read(`, `::write(`, `::open(`.
    static const char* const kGlobalBlocking[] = {"read", "write", "open"};

    const auto& t = f.tokens;
    const auto functions = findFunctions(f);
    auto enclosing = [&](std::size_t tokIdx) -> const FunctionSpan* {
        for (const auto& fn : functions)
            if (tokIdx >= fn.beginTok && tokIdx < fn.endTok) return &fn;
        return nullptr;
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier) continue;
        bool hit = false;
        for (const char* b : kBlocking)
            if (t[i].text == b) hit = true;
        if (!hit && i > 0 && punct(t[i - 1], "::") &&
            (i < 2 || t[i - 2].kind != TokKind::Identifier) &&
            i + 1 < t.size() && punct(t[i + 1], "(")) {
            for (const char* b : kGlobalBlocking)
                if (t[i].text == b) hit = true;
        }
        if (!hit) continue;
        const FunctionSpan* fn = enclosing(i);
        const std::string fnName = fn ? fn->name : "<file scope>";
        if (allowed(fnName)) continue;
        out.push_back(Finding{
            f.path, t[i].line, "copernicus-blocking",
            t[i].text + " in " + (fn ? fn->qualified : fnName) +
                " — blocking syscalls stall every tenant sharing the "
                "event loop; route durability through the WAL group-commit "
                "path or add a lint_config blocking-allow entry with a "
                "justification"});
    }
}

// ---------------------------------------------------------------------------
// Check 6: headers only tests reach
// ---------------------------------------------------------------------------

std::vector<std::string> quotedIncludes(const LexedFile& f) {
    std::vector<std::string> out;
    for (const auto& t : f.tokens) {
        if (t.kind != TokKind::Preprocessor) continue;
        const std::string& s = t.text; // starts at '#'
        const auto p = s.find_first_not_of(" \t", 1);
        if (p == std::string::npos || s.compare(p, 7, "include") != 0)
            continue;
        const auto open = s.find('"', p + 7);
        const auto close =
            open == std::string::npos ? open : s.find('"', open + 1);
        if (close == std::string::npos) continue;
        out.push_back(s.substr(open + 1, close - open - 1));
    }
    return out;
}

void checkTestOnlyHeaders(const std::vector<std::string>& headers,
                          const std::vector<LexedFile>& reachFiles,
                          const Config& cfg, std::vector<Finding>& out) {
    namespace fs = std::filesystem;
    const std::set<std::string> known(headers.begin(), headers.end());
    std::set<std::string> reached;
    for (const auto& f : reachFiles) {
        const fs::path dir = fs::path(f.path).parent_path();
        for (const auto& inc : quotedIncludes(f)) {
            std::vector<fs::path> candidates{dir / inc};
            for (const auto& root : cfg.headerDirs)
                candidates.push_back(fs::path(root) / inc);
            for (const auto& c : candidates) {
                const std::string h = c.lexically_normal().generic_string();
                if (known.count(h) == 0) continue;
                // A header's own .cpp does not count as a use.
                if (fs::path(h).replace_extension(".cpp").generic_string() !=
                    f.path)
                    reached.insert(h);
                break;
            }
        }
    }
    for (const auto& h : headers) {
        if (!pathInAny(h, cfg.headerDirs) || reached.count(h) > 0) continue;
        out.push_back(Finding{
            h, 1, "copernicus-test-only-header",
            "only tests and its own .cpp include this header — code stays "
            "only if a pipeline, bench, example, the CLI or a paper_map "
            "row reaches it; delete it with its tests, or move it to "
            "tests/support"});
    }
}

} // namespace coplint
