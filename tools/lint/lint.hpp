#pragma once

/// \file lint.hpp
/// copernicus_lint — repo-invariant static analysis for the Copernicus
/// tree. Six checks; the first five are suppressible inline with a
/// written reason:
///
///   copernicus-bare-mutex        std::mutex / lock_guard / scoped_lock /
///                                condition_variable ... outside src/util/
///                                (everything goes through util::Mutex so
///                                the thread-safety annotations see every
///                                lock)
///   copernicus-nondeterminism    rand() / random_device / system_clock /
///                                getenv and iteration over unordered
///                                containers in the replay- and
///                                trace-hash-critical planes (src/core,
///                                src/net)
///   copernicus-untrusted-length  resize/reserve/new[] sized by a raw
///                                length-prefix read without a readCount /
///                                cap check first (wire / WAL / codec
///                                decode surfaces)
///   copernicus-switch-enum       switches over wire/WAL tag enums must
///                                enumerate every enumerator and carry no
///                                default: arm
///   copernicus-blocking          fdatasync / fsync / sleep_for / raw
///                                ::read / ::write etc. on event-loop
///                                reachable code outside the allow-listed
///                                WAL/segment-store paths
///   copernicus-test-only-header  a header under a header-dir that no
///                                reach-dir file includes except its own
///                                .cpp, i.e. only tests reach it; a
///                                tree-wide check with no exceptions
///
/// Suppression grammar (reason is mandatory — a reasonless NOLINT is
/// itself a finding):
///
///   code;  // NOLINT(copernicus-blocking): why this one is safe
///   // NOLINTNEXTLINE(copernicus-bare-mutex): why
///   code;
///
/// The nondeterminism check additionally honors an order-insensitivity
/// annotation on (or immediately above) an unordered-container loop:
///
///   for (const auto& id : seen_)  // order-insensitive: count only
///
/// Configuration lives in tools/lint/lint_config (see that file for the
/// line grammar); checks are data-driven so the fixture suite can run
/// them against synthetic trees.

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace coplint {

struct Finding {
    std::string file;
    int line = 0;
    std::string check;   ///< "copernicus-..." name
    std::string message;

    std::string render() const;
    bool operator<(const Finding& o) const {
        if (file != o.file) return file < o.file;
        if (line != o.line) return line < o.line;
        if (check != o.check) return check < o.check;
        return message < o.message;
    }
};

/// Parsed lint_config. All paths are repo-relative with forward slashes;
/// directory entries are prefix matches, file entries exact matches.
struct Config {
    std::vector<std::string> lintDirs;     ///< tree roots to walk
    std::vector<std::string> skipDirs;     ///< subtrees never linted
    std::vector<std::string> mutexExempt;  ///< bare-mutex allowed here
    std::vector<std::string> nondetDirs;   ///< nondeterminism + blocking scope
    std::vector<std::string> untrustedFiles; ///< untrusted-length scope
    /// (file, function) pairs allowed to block; function "*" = whole file.
    std::vector<std::pair<std::string, std::string>> blockingAllow;
    /// (enum name, defining header) pairs for the switch check.
    std::vector<std::pair<std::string, std::string>> switchEnums;
    /// Headers the test-only-header check covers; also the roots quoted
    /// includes resolve against.
    std::vector<std::string> headerDirs;
    /// Trees whose quoted includes count as a use of a header.
    std::vector<std::string> reachDirs;
};

/// Parses the config text; returns false and sets `error` on a malformed
/// line (unknown directive or missing operand).
bool parseConfig(const std::string& text, Config& out, std::string& error);

/// Returns false and sets `error` when an untrusted-file, blocking-allow
/// or switch-enum path names no file under `root`: a stale entry would
/// otherwise silently scope its check to nothing.
bool checkConfigPaths(const Config& cfg, const std::filesystem::path& root,
                      std::string& error);

/// An enum class definition recovered from a header.
struct EnumDef {
    std::string name;
    std::vector<std::string> enumerators;
};

/// Cross-file facts gathered in a first pass over every lexed file.
struct TreeContext {
    std::vector<EnumDef> enums;
    /// Variable names declared anywhere with an unordered_{map,set,
    /// multimap,multiset} type. Name-keyed on purpose: the iteration
    /// check must catch a loop in a .cpp over a member declared in the
    /// matching header without doing real semantic analysis.
    std::set<std::string> unorderedVars;
};

/// First-pass collectors.
void collectEnumDefs(const LexedFile& f, const std::vector<std::string>& names,
                     std::vector<EnumDef>& out);
void collectUnorderedVars(const LexedFile& f, std::set<std::string>& out);

/// Individual checks (exposed for the unit/golden tests).
void checkBareMutex(const LexedFile& f, const Config& cfg,
                    std::vector<Finding>& out);
void checkNondeterminism(const LexedFile& f, const Config& cfg,
                         const TreeContext& tree, std::vector<Finding>& out);
void checkUntrustedLength(const LexedFile& f, const Config& cfg,
                          std::vector<Finding>& out);
void checkSwitchEnum(const LexedFile& f, const TreeContext& tree,
                     std::vector<Finding>& out);
void checkBlocking(const LexedFile& f, const Config& cfg,
                   std::vector<Finding>& out);

/// Spellings of the `#include "..."` directives in `f`.
std::vector<std::string> quotedIncludes(const LexedFile& f);

/// Tree-wide check: flags each of `headers` (repo-relative) that lies
/// under a header-dir and is included by no file in `reachFiles` other
/// than its own .cpp. A quoted include resolves against the including
/// file's directory first, then each header-dir.
void checkTestOnlyHeaders(const std::vector<std::string>& headers,
                          const std::vector<LexedFile>& reachFiles,
                          const Config& cfg, std::vector<Finding>& out);

/// Runs every check on one file, then applies NOLINT suppressions.
/// Reasonless suppressions surface as copernicus-nolint findings.
std::vector<Finding> lintFile(const LexedFile& f, const Config& cfg,
                              const TreeContext& tree);

/// Function-span segmentation used by the untrusted-length and blocking
/// checks (exposed for tests). Heuristic, token-level: a `){` at file or
/// class scope opens a function named by the identifier chain before the
/// matching `(`; lambdas and nested blocks inherit the enclosing name.
struct FunctionSpan {
    std::string name;      ///< unqualified (last identifier)
    std::string qualified; ///< e.g. "Wal::flush"
    std::size_t beginTok = 0; ///< index of the opening `{`
    std::size_t endTok = 0;   ///< index one past the closing `}`
};
std::vector<FunctionSpan> findFunctions(const LexedFile& f);

/// All check names, for --list-checks and arg validation.
const std::vector<std::string>& allCheckNames();

/// Token-stream helpers shared by the checks (and their tests).
bool pathInAny(const std::string& path,
               const std::vector<std::string>& prefixes);
std::size_t matchForward(const std::vector<Token>& toks, std::size_t open);
std::size_t matchAngle(const std::vector<Token>& toks, std::size_t open);

} // namespace coplint
