/// copernicus_lint driver.
///
///   copernicus_lint --root <repo> [--config <file>] [--check <name>]...
///                   [--list-checks] [file...]
///
/// With no positional files, walks the lint-dir roots from the config
/// (skipping skip-dir subtrees) over .cpp/.cc/.hpp/.hh/.h sources; the
/// test-only-header check also reads every source under the reach-dir
/// roots, to collect who includes each header. Emits
/// `file:line: [check] message` per finding; exit 1 when any finding
/// survives suppression, 2 on usage/config/IO errors.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "lint.hpp"

namespace fs = std::filesystem;
using namespace coplint;

namespace {

bool readFile(const fs::path& p, std::string& out) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool isHeader(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".hh" || ext == ".h";
}

bool isSource(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".cc" || isHeader(p);
}

std::string relPath(const fs::path& root, const fs::path& p) {
    std::string s = fs::relative(p, root).generic_string();
    return s;
}

} // namespace

int main(int argc, char** argv) {
    fs::path root = ".";
    fs::path configPath;
    std::vector<std::string> onlyChecks;
    std::vector<std::string> files;
    bool listChecks = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "copernicus_lint: " << flag
                          << " requires an argument\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--root") {
            root = need("--root");
        } else if (a == "--config") {
            configPath = need("--config");
        } else if (a == "--check") {
            onlyChecks.push_back(need("--check"));
        } else if (a == "--list-checks") {
            listChecks = true;
        } else if (a == "--help" || a == "-h") {
            std::cout << "usage: copernicus_lint --root <repo> "
                         "[--config <file>] [--check <name>]... "
                         "[--list-checks] [file...]\n";
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "copernicus_lint: unknown option " << a << "\n";
            return 2;
        } else {
            files.push_back(a);
        }
    }

    if (listChecks) {
        for (const auto& name : allCheckNames()) std::cout << name << "\n";
        return 0;
    }
    for (const auto& c : onlyChecks) {
        const auto& all = allCheckNames();
        if (std::find(all.begin(), all.end(), c) == all.end()) {
            std::cerr << "copernicus_lint: unknown check '" << c
                      << "' (see --list-checks)\n";
            return 2;
        }
    }

    if (configPath.empty()) configPath = root / "tools" / "lint" / "lint_config";
    std::string configText;
    if (!readFile(configPath, configText)) {
        std::cerr << "copernicus_lint: cannot read config " << configPath
                  << "\n";
        return 2;
    }
    Config cfg;
    std::string err;
    if (!parseConfig(configText, cfg, err) ||
        !checkConfigPaths(cfg, root, err)) {
        std::cerr << "copernicus_lint: " << configPath.string() << ": " << err
                  << "\n";
        return 2;
    }

    // Repo-relative source files under `dir`, minus skip-dir subtrees.
    auto walk = [&](const std::string& dir, std::vector<std::string>& out) {
        const fs::path base = root / dir;
        if (!fs::exists(base)) return;
        for (const auto& ent : fs::recursive_directory_iterator(base)) {
            if (!ent.is_regular_file() || !isSource(ent.path())) continue;
            std::string rel = relPath(root, ent.path());
            if (!pathInAny(rel, cfg.skipDirs)) out.push_back(std::move(rel));
        }
    };

    // Resolve the file set: explicit positional files (repo-relative or
    // absolute), else walk the configured roots.
    std::vector<std::string> rels;
    if (!files.empty()) {
        for (const auto& f : files) {
            fs::path p = fs::path(f).is_absolute() ? fs::path(f) : root / f;
            if (!fs::exists(p)) {
                std::cerr << "copernicus_lint: no such file: " << f << "\n";
                return 2;
            }
            rels.push_back(relPath(root, p));
        }
    } else {
        for (const auto& dir : cfg.lintDirs) walk(dir, rels);
    }
    std::sort(rels.begin(), rels.end());
    rels.erase(std::unique(rels.begin(), rels.end()), rels.end());

    // Pass 1: lex everything (plus enum-defining headers that may sit
    // outside the file set) and collect tree-wide facts.
    std::vector<LexedFile> lexed;
    lexed.reserve(rels.size());
    for (const auto& rel : rels) {
        std::string src;
        if (!readFile(root / rel, src)) {
            std::cerr << "copernicus_lint: cannot read " << rel << "\n";
            return 2;
        }
        lexed.push_back(lex(src, rel));
    }

    TreeContext tree;
    std::vector<std::string> enumNames;
    for (const auto& [name, header] : cfg.switchEnums) {
        enumNames.push_back(name);
        if (std::find(rels.begin(), rels.end(), header) == rels.end()) {
            std::string src;
            if (!readFile(root / header, src)) {
                std::cerr << "copernicus_lint: switch-enum header not found: "
                          << header << "\n";
                return 2;
            }
            collectEnumDefs(lex(src, header), enumNames, tree.enums);
        }
    }
    for (const auto& lf : lexed) {
        collectEnumDefs(lf, enumNames, tree.enums);
        // Unordered-container names are only gathered inside the
        // nondeterminism scope — a name-keyed match against, say, a
        // util-internal unordered_set would false-positive on an
        // identically named vector in core.
        if (pathInAny(lf.path, cfg.nondetDirs))
            collectUnorderedVars(lf, tree.unorderedVars);
    }
    for (const auto& [name, header] : cfg.switchEnums) {
        bool found = false;
        for (const auto& def : tree.enums)
            if (def.name == name) found = true;
        if (!found) {
            std::cerr << "copernicus_lint: enum '" << name
                      << "' not found in " << header << "\n";
            return 2;
        }
    }

    // Pass 2: run the checks.
    std::vector<Finding> findings;
    for (const auto& lf : lexed) {
        auto fs2 = lintFile(lf, cfg, tree);
        findings.insert(findings.end(), fs2.begin(), fs2.end());
    }
    // Tree-wide pass: headers in the file set that only tests include.
    if (!cfg.headerDirs.empty()) {
        std::vector<std::string> headers;
        for (const auto& rel : rels)
            if (isHeader(rel)) headers.push_back(rel);
        std::vector<std::string> reachRels;
        for (const auto& dir : cfg.reachDirs) walk(dir, reachRels);
        std::vector<LexedFile> reach;
        reach.reserve(reachRels.size());
        for (const auto& rel : reachRels) {
            std::string src;
            if (!readFile(root / rel, src)) {
                std::cerr << "copernicus_lint: cannot read " << rel << "\n";
                return 2;
            }
            reach.push_back(lex(src, rel));
        }
        checkTestOnlyHeaders(headers, reach, cfg, findings);
    }
    if (!onlyChecks.empty()) {
        findings.erase(
            std::remove_if(findings.begin(), findings.end(),
                           [&](const Finding& f) {
                               return std::find(onlyChecks.begin(),
                                                onlyChecks.end(),
                                                f.check) == onlyChecks.end();
                           }),
            findings.end());
    }
    std::sort(findings.begin(), findings.end());

    for (const auto& f : findings) std::cout << f.render() << "\n";
    std::cerr << "copernicus_lint: " << rels.size() << " files, "
              << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s") << "\n";
    return findings.empty() ? 0 : 1;
}
