#include "lint.hpp"

#include <algorithm>
#include <sstream>

namespace coplint {

std::string Finding::render() const {
    std::ostringstream os;
    os << file << ":" << line << ": [" << check << "] " << message;
    return os.str();
}

const std::vector<std::string>& allCheckNames() {
    static const std::vector<std::string> names = {
        "copernicus-bare-mutex",     "copernicus-nondeterminism",
        "copernicus-untrusted-length", "copernicus-switch-enum",
        "copernicus-blocking",       "copernicus-test-only-header",
        "copernicus-nolint",
    };
    return names;
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

bool parseConfig(const std::string& text, Config& out, std::string& error) {
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        std::istringstream ls(line);
        std::string directive;
        if (!(ls >> directive)) continue; // blank / comment-only
        std::string a, b;
        ls >> a >> b;
        auto need = [&](const std::string& v, const char* what) {
            if (!v.empty()) return true;
            error = "lint_config:" + std::to_string(lineNo) + ": " +
                    directive + " needs " + what;
            return false;
        };
        if (directive == "lint-dir") {
            if (!need(a, "a path")) return false;
            out.lintDirs.push_back(a);
        } else if (directive == "skip-dir") {
            if (!need(a, "a path")) return false;
            out.skipDirs.push_back(a);
        } else if (directive == "mutex-exempt") {
            if (!need(a, "a path prefix")) return false;
            out.mutexExempt.push_back(a);
        } else if (directive == "nondet-dir") {
            if (!need(a, "a path prefix")) return false;
            out.nondetDirs.push_back(a);
        } else if (directive == "untrusted-file") {
            if (!need(a, "a file path")) return false;
            out.untrustedFiles.push_back(a);
        } else if (directive == "blocking-allow") {
            if (!need(a, "a file path")) return false;
            out.blockingAllow.emplace_back(a, b.empty() ? "*" : b);
        } else if (directive == "switch-enum") {
            if (!need(a, "an enum name") || !need(b, "a header path"))
                return false;
            out.switchEnums.emplace_back(a, b);
        } else if (directive == "header-dir") {
            if (!need(a, "a path prefix")) return false;
            out.headerDirs.push_back(a);
        } else if (directive == "reach-dir") {
            if (!need(a, "a path")) return false;
            out.reachDirs.push_back(a);
        } else {
            error = "lint_config:" + std::to_string(lineNo) +
                    ": unknown directive '" + directive + "'";
            return false;
        }
    }
    return true;
}

bool checkConfigPaths(const Config& cfg, const std::filesystem::path& root,
                      std::string& error) {
    auto missing = [&](const char* directive, const std::string& path) {
        if (std::filesystem::is_regular_file(root / path)) return false;
        error = std::string("lint_config: ") + directive + " " + path +
                ": no such file under " + root.string();
        return true;
    };
    for (const auto& path : cfg.untrustedFiles)
        if (missing("untrusted-file", path)) return false;
    for (const auto& entry : cfg.blockingAllow)
        if (missing("blocking-allow", entry.first)) return false;
    for (const auto& entry : cfg.switchEnums)
        if (missing("switch-enum", entry.second)) return false;
    return true;
}

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

namespace {

bool hasPrefix(const std::string& s, const std::string& prefix) {
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool isIdent(const Token& t, const char* text) {
    return t.kind == TokKind::Identifier && t.text == text;
}

} // namespace

bool pathInAny(const std::string& path,
               const std::vector<std::string>& prefixes) {
    for (const auto& p : prefixes)
        if (hasPrefix(path, p)) return true;
    return false;
}

/// Finds the index of the matching close for the open bracket at `open`
/// (tokens[open] must be "(", "{" or "["). Returns tokens.size() when
/// unbalanced. Treats ">>" as opaque (not an angle matcher).
std::size_t matchForward(const std::vector<Token>& toks, std::size_t open) {
    const std::string& o = toks[open].text;
    const std::string close = o == "(" ? ")" : o == "{" ? "}" : "]";
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Punct) continue;
        if (toks[i].text == o) ++depth;
        else if (toks[i].text == close && --depth == 0) return i;
    }
    return toks.size();
}

/// Matches a template argument list starting at the "<" at `open`;
/// understands ">>" closing two lists. Returns the index of the token
/// containing the final ">" (which may be a ">>" token).
std::size_t matchAngle(const std::vector<Token>& toks, std::size_t open) {
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Punct) continue;
        if (toks[i].text == "<") ++depth;
        else if (toks[i].text == ">") {
            if (--depth == 0) return i;
        } else if (toks[i].text == ">>") {
            depth -= 2;
            if (depth <= 0) return i;
        } else if (toks[i].text == ";" || toks[i].text == "{") {
            break; // not a template argument list after all
        }
    }
    return toks.size();
}

// ---------------------------------------------------------------------------
// First-pass collectors
// ---------------------------------------------------------------------------

void collectEnumDefs(const LexedFile& f, const std::vector<std::string>& names,
                     std::vector<EnumDef>& out) {
    const auto& t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (!isIdent(t[i], "enum")) continue;
        std::size_t j = i + 1;
        if (isIdent(t[j], "class") || isIdent(t[j], "struct")) ++j;
        if (j >= t.size() || t[j].kind != TokKind::Identifier) continue;
        const std::string& name = t[j].text;
        if (std::find(names.begin(), names.end(), name) == names.end())
            continue;
        ++j;
        // Optional underlying type: ": std::uint8_t".
        if (j < t.size() && t[j].text == ":") {
            ++j;
            while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
        }
        if (j >= t.size() || t[j].text != "{") continue; // fwd declaration
        const std::size_t close = matchForward(t, j);
        EnumDef def;
        def.name = name;
        // Enumerators: identifiers at depth 1 that open a new entry (the
        // previous meaningful token is "{" or ",").
        bool expectName = true;
        for (std::size_t k = j + 1; k < close; ++k) {
            if (expectName && t[k].kind == TokKind::Identifier) {
                def.enumerators.push_back(t[k].text);
                expectName = false;
            } else if (t[k].kind == TokKind::Punct && t[k].text == ",") {
                expectName = true;
            }
        }
        out.push_back(std::move(def));
    }
}

void collectUnorderedVars(const LexedFile& f, std::set<std::string>& out) {
    static const char* const kUnordered[] = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    const auto& t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier) continue;
        bool hit = false;
        for (const char* u : kUnordered)
            if (t[i].text == u) {
                hit = true;
                break;
            }
        if (!hit || t[i + 1].text != "<") continue;
        std::size_t close = matchAngle(t, i + 1);
        if (close >= t.size()) continue;
        std::size_t j = close + 1;
        if (j >= t.size() || t[j].kind != TokKind::Identifier) continue;
        // Declarator: "unordered_map<...> name ;|=|{|," — a call or cast
        // would have "(" or "::" next instead.
        if (j + 1 < t.size() &&
            (t[j + 1].text == ";" || t[j + 1].text == "=" ||
             t[j + 1].text == "{" || t[j + 1].text == ","))
            out.insert(t[j].text);
    }
}

// ---------------------------------------------------------------------------
// Function segmentation
// ---------------------------------------------------------------------------

std::vector<FunctionSpan> findFunctions(const LexedFile& f) {
    const auto& t = f.tokens;
    std::vector<FunctionSpan> out;
    static const char* const kControl[] = {"if",     "while", "for",
                                           "switch", "catch", "return"};
    std::size_t i = 0;
    // Stack of (closeIndex) for braces inside the current function.
    std::vector<std::size_t> inFunctionUntil;
    while (i < t.size()) {
        if (t[i].kind == TokKind::Punct && t[i].text == "{") {
            if (!inFunctionUntil.empty()) {
                ++i;
                continue; // nested block of a recorded function
            }
            // Candidate function body? Walk back over specifiers.
            std::size_t p = i;
            auto prev = [&](std::size_t k) {
                return k > 0 ? k - 1 : std::size_t(0);
            };
            std::size_t q = prev(p);
            while (q > 0 && t[q].kind == TokKind::Identifier &&
                   (t[q].text == "const" || t[q].text == "noexcept" ||
                    t[q].text == "override" || t[q].text == "final"))
                q = prev(q);
            // Trailing return type: ") -> Type {". Walk back to ")".
            while (q > 0 && t[q].text != ")" && t[q].text != ";" &&
                   t[q].text != "{" && t[q].text != "}" && t[q].text != "=")
                q = prev(q);
            if (q > 0 && t[q].text == ")") {
                // Find matching "(" backwards.
                int depth = 0;
                std::size_t openParen = q;
                for (std::size_t k = q;; --k) {
                    if (t[k].kind == TokKind::Punct) {
                        if (t[k].text == ")") ++depth;
                        else if (t[k].text == "(" && --depth == 0) {
                            openParen = k;
                            break;
                        }
                    }
                    if (k == 0) break;
                }
                if (openParen > 0 && openParen != q) {
                    std::size_t n = prev(openParen);
                    bool control = false;
                    if (t[n].kind == TokKind::Identifier)
                        for (const char* c : kControl)
                            if (t[n].text == c) control = true;
                    // Lambda bodies at namespace scope ("] () {") and
                    // init-parens are skipped: not a named function head.
                    if (!control && t[n].kind == TokKind::Identifier) {
                        FunctionSpan fn;
                        fn.name = t[n].text;
                        if (t[n].text == "operator") fn.name = "operator()";
                        // Qualified chain: A::B::name (and ~dtor).
                        std::string qual = fn.name;
                        std::size_t w = n;
                        if (w > 0 && t[w - 1].text == "~") {
                            fn.name = "~" + fn.name;
                            qual = fn.name;
                            --w;
                        }
                        while (w >= 2 && t[w - 1].text == "::" &&
                               t[w - 2].kind == TokKind::Identifier) {
                            qual = t[w - 2].text + "::" + qual;
                            w -= 2;
                        }
                        fn.qualified = qual;
                        fn.beginTok = i;
                        const std::size_t close = matchForward(t, i);
                        fn.endTok = close < t.size() ? close + 1 : t.size();
                        inFunctionUntil.push_back(fn.endTok);
                        out.push_back(std::move(fn));
                        ++i;
                        continue;
                    }
                }
            }
            ++i;
            continue;
        }
        if (!inFunctionUntil.empty() && i >= inFunctionUntil.back())
            inFunctionUntil.pop_back();
        ++i;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

namespace {

struct Suppression {
    std::vector<std::string> checks;
    int line = 0;      ///< line the suppression applies to
    bool hasReason = false;
    int commentLine = 0;
};

/// Extracts NOLINT / NOLINTNEXTLINE suppressions from a comment.
void parseNolint(const Comment& c, std::vector<Suppression>& out) {
    const std::string& s = c.text;
    std::size_t pos = 0;
    while ((pos = s.find("NOLINT", pos)) != std::string::npos) {
        bool nextLine = s.compare(pos, 14, "NOLINTNEXTLINE") == 0;
        std::size_t p = pos + (nextLine ? 14 : 6);
        pos = p;
        if (p >= s.size() || s[p] != '(') continue;
        const std::size_t close = s.find(')', p);
        if (close == std::string::npos) continue;
        Suppression sup;
        std::string inner = s.substr(p + 1, close - p - 1);
        std::istringstream names(inner);
        std::string name;
        while (std::getline(names, name, ',')) {
            const auto b = name.find_first_not_of(" \t");
            const auto e = name.find_last_not_of(" \t");
            if (b != std::string::npos)
                sup.checks.push_back(name.substr(b, e - b + 1));
        }
        // Mandatory reason: "): <non-empty text>".
        std::size_t r = close + 1;
        while (r < s.size() && (s[r] == ' ' || s[r] == '\t')) ++r;
        if (r < s.size() && s[r] == ':') {
            ++r;
            while (r < s.size() && (s[r] == ' ' || s[r] == '\t')) ++r;
            sup.hasReason = r < s.size() &&
                            s.find_first_not_of(" \t\r\n", r) !=
                                std::string::npos;
        }
        sup.commentLine = c.firstLine;
        sup.line = nextLine ? c.lastLine + 1 : c.firstLine;
        out.push_back(std::move(sup));
        pos = close;
    }
}

} // namespace

static void applySuppressions(const LexedFile& f, std::vector<Finding>& fs) {
    std::vector<Suppression> sups;
    for (const auto& c : f.comments) parseNolint(c, sups);
    // Also: multi-line block comments suppress every line they span.
    std::vector<Finding> kept;
    std::vector<bool> used(sups.size(), false);
    for (auto& fd : fs) {
        bool drop = false;
        for (std::size_t i = 0; i < sups.size(); ++i) {
            const auto& s = sups[i];
            if (s.line != fd.line) continue;
            const bool names =
                std::find(s.checks.begin(), s.checks.end(), fd.check) !=
                s.checks.end();
            if (!names) continue;
            used[i] = true;
            if (s.hasReason) {
                drop = true;
            } // reasonless: finding stays AND the nolint check fires below
        }
        if (!drop) kept.push_back(std::move(fd));
    }
    for (std::size_t i = 0; i < sups.size(); ++i) {
        const auto& s = sups[i];
        if (s.hasReason) continue;
        // A reasonless suppression is a finding whether or not it matched
        // anything: the policy is that every suppression documents itself.
        kept.push_back(Finding{
            f.path, s.commentLine, "copernicus-nolint",
            "NOLINT suppression without a reason; write "
            "`NOLINT(<check>): <why this is safe>`"});
    }
    // Unknown check names in suppressions are flagged too — a typo would
    // otherwise silently fail to suppress in some future refactor.
    for (const auto& s : sups) {
        for (const auto& name : s.checks) {
            const auto& all = allCheckNames();
            if (std::find(all.begin(), all.end(), name) == all.end())
                kept.push_back(Finding{f.path, s.commentLine,
                                       "copernicus-nolint",
                                       "unknown check '" + name +
                                           "' in NOLINT suppression"});
        }
    }
    fs = std::move(kept);
}

std::vector<Finding> lintFile(const LexedFile& f, const Config& cfg,
                              const TreeContext& tree) {
    std::vector<Finding> out;
    checkBareMutex(f, cfg, out);
    checkNondeterminism(f, cfg, tree, out);
    checkUntrustedLength(f, cfg, out);
    checkSwitchEnum(f, tree, out);
    checkBlocking(f, cfg, out);
    applySuppressions(f, out);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace coplint
