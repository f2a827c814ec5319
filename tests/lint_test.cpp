/// Tests for copernicus_lint: lexer unit tests (raw strings, comment
/// handling, line splices, suppression grammar) and golden-output tests
/// over the committed fixtures in tests/lint_fixtures/. Each fixture
/// pairs with a <name>.expected file holding the exact findings; good
/// fixtures pair with an empty one.

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "lint.hpp"

using namespace coplint;

namespace {

std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

const std::filesystem::path kFixtureDir = COP_LINT_FIXTURE_DIR;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LintLexer, RawStringSwallowsCommentAndQuoteLookalikes) {
    const auto f = lex(R"src(auto s = R"x(no // comment "quotes" )" here)x"; int y;)src",
                       "t.cpp");
    ASSERT_TRUE(f.comments.empty());
    std::size_t strings = 0;
    std::string body;
    for (const auto& t : f.tokens)
        if (t.kind == TokKind::String) {
            ++strings;
            body = t.text;
        }
    EXPECT_EQ(strings, 1u);
    EXPECT_EQ(body, "no // comment \"quotes\" )\" here");
    bool sawY = false;
    for (const auto& t : f.tokens)
        if (t.kind == TokKind::Identifier && t.text == "y") sawY = true;
    EXPECT_TRUE(sawY);
}

TEST(LintLexer, BlockCommentsDoNotNest) {
    const auto f = lex("/* outer /* still the same comment */ int x;", "t.cpp");
    ASSERT_EQ(f.comments.size(), 1u);
    EXPECT_TRUE(f.comments[0].block);
    EXPECT_NE(f.comments[0].text.find("still the same comment"),
              std::string::npos);
    ASSERT_EQ(f.tokens.size(), 3u); // int x ;
    EXPECT_EQ(f.tokens[0].text, "int");
    EXPECT_EQ(f.tokens[1].text, "x");
}

TEST(LintLexer, BackslashContinuedLineCommentSpansLines) {
    const auto f = lex("// first \\\n second\nint z;", "t.cpp");
    ASSERT_EQ(f.comments.size(), 1u);
    EXPECT_EQ(f.comments[0].firstLine, 1);
    EXPECT_EQ(f.comments[0].lastLine, 2);
    EXPECT_NE(f.comments[0].text.find("second"), std::string::npos);
    ASSERT_EQ(f.tokens.size(), 3u);
    EXPECT_EQ(f.tokens[0].text, "int");
    EXPECT_EQ(f.tokens[0].line, 3);
}

TEST(LintLexer, LineSpliceInsideIdentifier) {
    const auto f = lex("in\\\nt x;", "t.cpp");
    ASSERT_GE(f.tokens.size(), 2u);
    EXPECT_EQ(f.tokens[0].text, "int");
    EXPECT_EQ(f.tokens[0].line, 1);
    EXPECT_EQ(f.tokens[1].text, "x");
    EXPECT_EQ(f.tokens[1].line, 2);
}

TEST(LintLexer, PreprocessorLineIsOneToken) {
    const auto f = lex("#include <mutex>\nstd::mutex m;", "t.cpp");
    ASSERT_FALSE(f.tokens.empty());
    EXPECT_EQ(f.tokens[0].kind, TokKind::Preprocessor);
    EXPECT_NE(f.tokens[0].text.find("include"), std::string::npos);
    // The real std::mutex use is separate tokens on line 2.
    EXPECT_EQ(f.tokens[1].text, "std");
    EXPECT_EQ(f.tokens[1].line, 2);
}

TEST(LintLexer, DigitSeparatorsAndCharLiterals) {
    const auto f = lex("auto n = 1'000'000; char c = '\\'';", "t.cpp");
    bool sawNum = false, sawChar = false;
    for (const auto& t : f.tokens) {
        if (t.kind == TokKind::Number && t.text == "1000000") sawNum = true;
        if (t.kind == TokKind::CharLit) sawChar = true;
    }
    EXPECT_TRUE(sawNum);
    EXPECT_TRUE(sawChar);
}

// ---------------------------------------------------------------------------
// Config + function segmentation
// ---------------------------------------------------------------------------

TEST(LintConfig, RejectsUnknownDirective) {
    Config cfg;
    std::string err;
    EXPECT_FALSE(parseConfig("lint-dir src\nbogus-directive x\n", cfg, err));
    EXPECT_NE(err.find("bogus-directive"), std::string::npos);
    EXPECT_NE(err.find(":2"), std::string::npos);
}

TEST(LintConfig, RejectsPathsMissingUnderRoot) {
    Config good;
    std::string err;
    ASSERT_TRUE(parseConfig(slurp(kFixtureDir / "lint_config"), good, err))
        << err;
    EXPECT_TRUE(checkConfigPaths(good, kFixtureDir, err)) << err;

    for (const char* line : {"untrusted-file core/no_such_decode.cpp\n",
                             "blocking-allow core/no_such_decode.cpp flush\n",
                             "switch-enum Fruit core/no_such_decode.cpp\n"}) {
        SCOPED_TRACE(line);
        Config cfg;
        err.clear();
        ASSERT_TRUE(parseConfig(line, cfg, err)) << err;
        EXPECT_FALSE(checkConfigPaths(cfg, kFixtureDir, err));
        EXPECT_NE(err.find("core/no_such_decode.cpp"), std::string::npos)
            << err;
    }
}

TEST(LintConfig, ParsesAllDirectives) {
    Config cfg;
    std::string err;
    ASSERT_TRUE(parseConfig("lint-dir src # trailing comment\n"
                            "skip-dir src/gen\n"
                            "mutex-exempt src/util/\n"
                            "nondet-dir src/core/\n"
                            "untrusted-file src/core/wal.cpp\n"
                            "blocking-allow src/core/wal.cpp flush\n"
                            "blocking-allow src/core/store.cpp *\n"
                            "switch-enum Fruit fruit.hpp\n"
                            "header-dir src/\n"
                            "reach-dir bench\n",
                            cfg, err))
        << err;
    EXPECT_EQ(cfg.lintDirs, std::vector<std::string>{"src"});
    EXPECT_EQ(cfg.blockingAllow.size(), 2u);
    EXPECT_EQ(cfg.blockingAllow[1].second, "*");
    ASSERT_EQ(cfg.switchEnums.size(), 1u);
    EXPECT_EQ(cfg.switchEnums[0].first, "Fruit");
    EXPECT_EQ(cfg.headerDirs, std::vector<std::string>{"src/"});
    EXPECT_EQ(cfg.reachDirs, std::vector<std::string>{"bench"});
}

TEST(LintFunctions, QualifiedNamesAndDestructors) {
    const auto f = lex("void Wal::flush() { fdatasync(fd_); }\n"
                       "Wal::~Wal() { seal(); }\n"
                       "static int helper(int a) { return a; }\n",
                       "t.cpp");
    const auto fns = findFunctions(f);
    ASSERT_EQ(fns.size(), 3u);
    EXPECT_EQ(fns[0].qualified, "Wal::flush");
    EXPECT_EQ(fns[0].name, "flush");
    EXPECT_EQ(fns[1].qualified, "Wal::~Wal");
    EXPECT_EQ(fns[2].name, "helper");
}

TEST(LintEnums, CollectsEnumeratorsWithValues) {
    const auto f = lex(slurp(kFixtureDir / "fruit.hpp"), "fruit.hpp");
    std::vector<EnumDef> defs;
    collectEnumDefs(f, {"Fruit"}, defs);
    ASSERT_EQ(defs.size(), 1u);
    EXPECT_EQ(defs[0].enumerators,
              (std::vector<std::string>{"Apple", "Banana", "Cherry"}));
}

// ---------------------------------------------------------------------------
// Suppression grammar (via lintFile on synthetic sources)
// ---------------------------------------------------------------------------

Config syntheticConfig() {
    Config cfg;
    std::string err;
    EXPECT_TRUE(parseConfig("nondet-dir core/\n", cfg, err)) << err;
    return cfg;
}

TEST(LintSuppression, ReasonedNolintSilences) {
    const auto f = lex("void f() {\n"
                       "  std::random_device rd; // NOLINT(copernicus-"
                       "nondeterminism): demo only\n"
                       "}\n",
                       "core/x.cpp");
    const auto findings = lintFile(f, syntheticConfig(), TreeContext{});
    EXPECT_TRUE(findings.empty());
}

TEST(LintSuppression, ReasonlessNolintIsItselfAFinding) {
    const auto f = lex("void f() {\n"
                       "  std::random_device rd; // NOLINT(copernicus-"
                       "nondeterminism)\n"
                       "}\n",
                       "core/x.cpp");
    const auto findings = lintFile(f, syntheticConfig(), TreeContext{});
    ASSERT_EQ(findings.size(), 2u); // original finding + nolint finding
    EXPECT_EQ(findings[0].check, "copernicus-nolint");
    EXPECT_EQ(findings[1].check, "copernicus-nondeterminism");
}

TEST(LintSuppression, NolintNextLineCoversTheNextLine) {
    const auto f = lex("void f() {\n"
                       "  // NOLINTNEXTLINE(copernicus-nondeterminism): demo\n"
                       "  std::random_device rd;\n"
                       "}\n",
                       "core/x.cpp");
    const auto findings = lintFile(f, syntheticConfig(), TreeContext{});
    EXPECT_TRUE(findings.empty());
}

TEST(LintSuppression, UnknownCheckNameIsFlagged) {
    const auto f = lex("void f() {\n"
                       "  int x = 0; // NOLINT(copernicus-tpyo): oops\n"
                       "  (void)x;\n"
                       "}\n",
                       "core/x.cpp");
    const auto findings = lintFile(f, syntheticConfig(), TreeContext{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "copernicus-nolint");
    EXPECT_NE(findings[0].message.find("copernicus-tpyo"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden fixtures
// ---------------------------------------------------------------------------

class LintGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(LintGolden, MatchesExpectedFindings) {
    const std::string rel = GetParam();

    Config cfg;
    std::string err;
    ASSERT_TRUE(parseConfig(slurp(kFixtureDir / "lint_config"), cfg, err))
        << err;

    // Tree context mirrors the driver: enums from the configured headers,
    // unordered-container names from nondet-scoped fixture files only.
    static const char* const kAll[] = {
        "core/bad_mutex.cpp",   "core/bad_nondet.cpp", "core/good_nondet.cpp",
        "core/decode.cpp",      "core/bad_switch.cpp", "core/good_switch.cpp",
        "core/bad_blocking.cpp", "core/wal_like.cpp",  "core/suppressed.cpp",
        "exempt/good_mutex.cpp"};
    TreeContext tree;
    std::vector<std::string> enumNames;
    for (const auto& [name, header] : cfg.switchEnums) {
        enumNames.push_back(name);
        collectEnumDefs(lex(slurp(kFixtureDir / header), header), enumNames,
                        tree.enums);
    }
    for (const char* p : kAll)
        if (pathInAny(p, cfg.nondetDirs))
            collectUnorderedVars(lex(slurp(kFixtureDir / p), p),
                                 tree.unorderedVars);

    const auto lexed = lex(slurp(kFixtureDir / rel), rel);
    const auto findings = lintFile(lexed, cfg, tree);
    std::string got;
    for (const auto& f : findings) got += f.render() + "\n";

    EXPECT_EQ(got, slurp(kFixtureDir / (rel + ".expected")));
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, LintGolden,
    ::testing::Values("core/bad_mutex.cpp", "exempt/good_mutex.cpp",
                      "core/bad_nondet.cpp", "core/good_nondet.cpp",
                      "core/decode.cpp", "core/bad_switch.cpp",
                      "core/good_switch.cpp", "core/bad_blocking.cpp",
                      "core/wal_like.cpp", "core/suppressed.cpp"),
    [](const ::testing::TestParamInfo<const char*>& paramInfo) {
        std::string name = paramInfo.param;
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
        return name;
    });

// ---------------------------------------------------------------------------
// Test-only headers (tree-wide; fixture tree under lib/, app/ and unit/)
// ---------------------------------------------------------------------------

class LintTestOnlyHeader : public ::testing::TestWithParam<const char*> {};

TEST_P(LintTestOnlyHeader, MatchesExpectedFindings) {
    const std::string rel = GetParam();

    Config cfg;
    std::string err;
    ASSERT_TRUE(parseConfig(slurp(kFixtureDir / "lint_config"), cfg, err))
        << err;

    // Mirror the driver: every fixture header is a candidate, and every
    // source under a reach-dir supplies includes.
    std::vector<std::string> headers;
    std::vector<LexedFile> reach;
    for (const auto& ent :
         std::filesystem::recursive_directory_iterator(kFixtureDir)) {
        if (!ent.is_regular_file()) continue;
        const std::string p =
            std::filesystem::relative(ent.path(), kFixtureDir)
                .generic_string();
        const auto ext = ent.path().extension();
        if (ext == ".hpp") headers.push_back(p);
        if ((ext == ".hpp" || ext == ".cpp") && pathInAny(p, cfg.reachDirs))
            reach.push_back(lex(slurp(ent.path()), p));
    }
    std::vector<Finding> findings;
    checkTestOnlyHeaders(headers, reach, cfg, findings);
    std::string got;
    for (const auto& f : findings)
        if (f.file == rel) got += f.render() + "\n";

    EXPECT_EQ(got, slurp(kFixtureDir / (rel + ".expected")));
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, LintTestOnlyHeader,
    ::testing::Values("lib/orphan.hpp", "lib/used.hpp"),
    [](const ::testing::TestParamInfo<const char*>& paramInfo) {
        std::string name = paramInfo.param;
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
        return name;
    });

TEST(LintTestOnlyHeader, QuotedIncludesSkipAngleAndCommentedOut) {
    const auto f = lex("#include <vector>\n"
                       "#  include \"a/b.hpp\"\n"
                       "// #include \"gone.hpp\"\n"
                       "#define X \"not_an_include.hpp\"\n",
                       "t.cpp");
    EXPECT_EQ(quotedIncludes(f), std::vector<std::string>{"a/b.hpp"});
}

} // namespace
