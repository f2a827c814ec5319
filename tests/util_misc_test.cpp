// Tests for thread pool, serialization, strings and tables.

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>

#include <gtest/gtest.h>

#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace cop {
namespace {

TEST(ThreadPool, SubmitReturnsResults) {
    ThreadPool pool(3);
    auto f1 = pool.submit([] { return 41 + 1; });
    auto f2 = pool.submit([] { return std::string("ok"); });
    EXPECT_EQ(f1.get(), 42);
    EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.forChunks(0, hits.size(),
                   [&](std::size_t, std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i)
                           hits[i].fetch_add(1);
                   });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
    ThreadPool pool(2);
    bool touched = false;
    pool.forChunks(5, 5, [&](std::size_t, std::size_t, std::size_t) {
        touched = true;
    });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
    ThreadPool pool(1);
    std::atomic<int> sum{0};
    pool.forChunks(0, 100, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) sum += int(i);
    });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, NestedForChunksInsidePoolTaskDoesNotDeadlock) {
    // A pool task that itself calls forChunks runs the last chunk on its
    // own thread and waits for the submitted ones, which the other worker
    // drains; the nested reduction must finish with the full range.
    ThreadPool pool(2);
    auto outer = pool.submit([&] {
        return pool.parallelReduceChunked(
            std::size_t{0}, std::size_t{64}, 0L,
            [](std::size_t lo, std::size_t hi) {
                long s = 0;
                for (std::size_t i = lo; i < hi; ++i) s += long(i);
                return s;
            },
            [](long a, long b) { return a + b; });
    });
    EXPECT_EQ(outer.get(), 63L * 64L / 2L);
}

TEST(ThreadPool, ForChunksPartitionsRangeWithDenseChunkIds) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(997);
    std::array<std::atomic<int>, 4> chunkSeen{}; // size() + 1 chunk slots
    pool.forChunks(0, hits.size(),
                   [&](std::size_t c, std::size_t lo, std::size_t hi) {
                       ASSERT_LT(c, chunkSeen.size());
                       chunkSeen[c].fetch_add(1);
                       for (std::size_t i = lo; i < hi; ++i)
                           hits[i].fetch_add(1);
                   });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    for (const auto& c : chunkSeen) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ForChunksGrainedCoversRangeAndRespectsGrain) {
    ThreadPool pool(3);
    // A range below 2 * minGrain must run as a single chunk (the calling
    // thread), larger ranges split but never below the grain.
    for (const std::size_t n : {std::size_t(7), std::size_t(31),
                                std::size_t(64), std::size_t(997)}) {
        const std::size_t minGrain = 16;
        const std::size_t nChunks = pool.chunkCountForGrained(n, minGrain);
        EXPECT_GE(nChunks, 1u);
        EXPECT_LE(nChunks, pool.chunkCountFor(n));
        if (n < 2 * minGrain) {
            EXPECT_EQ(nChunks, 1u);
        }

        std::vector<std::atomic<int>> hits(n);
        std::vector<std::atomic<int>> chunkSeen(nChunks);
        pool.forChunksGrained(
            0, n, minGrain, [&](std::size_t c, std::size_t lo, std::size_t hi) {
                ASSERT_LT(c, chunkSeen.size());
                chunkSeen[c].fetch_add(1);
                for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
            });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
        for (const auto& c : chunkSeen) EXPECT_EQ(c.load(), 1);
    }
}

TEST(ThreadPool, ParallelReduceChunkedSumsDeterministically) {
    ThreadPool pool(4);
    auto sum = [&] {
        return pool.parallelReduceChunked(
            std::size_t{0}, std::size_t{100000}, 0.0,
            [](std::size_t lo, std::size_t hi) {
                double s = 0.0;
                for (std::size_t i = lo; i < hi; ++i) s += double(i) * 1e-3;
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    const double first = sum();
    EXPECT_NEAR(first, 99999.0 * 100000.0 / 2.0 * 1e-3, 1e-3);
    // Chunk-order combine: bitwise identical on every run.
    for (int r = 0; r < 5; ++r) EXPECT_EQ(sum(), first);
}

TEST(ThreadPool, ParallelReducePerIndexMax) {
    ThreadPool pool(3);
    const auto best = pool.parallelReduceChunked(
        std::size_t{0}, std::size_t{1237}, std::size_t{0},
        [](std::size_t lo, std::size_t hi) {
            std::size_t m = 0;
            for (std::size_t i = lo; i < hi; ++i)
                m = std::max(m, (i * 7919) % 1237);
            return m;
        },
        [](std::size_t a, std::size_t b) { return std::max(a, b); });
    EXPECT_EQ(best, 1236u);
}

TEST(ThreadPool, ParallelReduceEmptyRangeReturnsInit) {
    ThreadPool pool(2);
    const int r = pool.parallelReduceChunked(
        std::size_t{5}, std::size_t{5}, -7,
        [](std::size_t lo, std::size_t hi) { return int(hi - lo); },
        [](int a, int b) { return a + b; });
    EXPECT_EQ(r, -7);
}

TEST(ThreadPool, ChunkedCoversRange) {
    ThreadPool pool(3);
    std::atomic<long> total{0};
    pool.forChunks(10, 110, [&](std::size_t, std::size_t lo, std::size_t hi) {
        long s = 0;
        for (std::size_t i = lo; i < hi; ++i) s += long(i);
        total += s;
    });
    EXPECT_EQ(total.load(), (109 * 110 - 9 * 10) / 2);
}

TEST(Logging, DisabledLinesEvaluateNothing) {
    auto& logger = Logger::instance();
    const LogLevel saved = logger.level();
    int evaluated = 0;
    const auto touch = [&] { return ++evaluated; };

    logger.setLevel(LogLevel::Warn);
    COP_LOG_DEBUG("test") << touch();
    if (evaluated == 0)
        COP_LOG_INFO("test") << touch();
    else
        ADD_FAILURE() << "a disabled line evaluated its arguments";
    EXPECT_EQ(evaluated, 0);

    // Muted warnings are still built, so warningCount() sees them.
    logger.setLevel(LogLevel::Off);
    const std::size_t warnings = logger.warningCount();
    COP_LOG_WARN("test") << touch();
    EXPECT_EQ(evaluated, 1);
    EXPECT_EQ(logger.warningCount(), warnings + 1);
    logger.setLevel(saved);
}

TEST(Serialize, RoundTripScalarsAndStrings) {
    BinaryWriter w;
    w.write(std::int32_t(-7));
    w.write(std::uint64_t(1) << 63);
    w.write(3.14159);
    w.write(std::string("hello copernicus"));
    w.write(Vec3{1, 2, 3});
    BinaryReader r(w.buffer());
    EXPECT_EQ(r.read<std::int32_t>(), -7);
    EXPECT_EQ(r.read<std::uint64_t>(), std::uint64_t(1) << 63);
    EXPECT_EQ(r.read<double>(), 3.14159);
    EXPECT_EQ(r.readString(), "hello copernicus");
    EXPECT_EQ(r.readVec3(), Vec3(1, 2, 3));
    EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, RoundTripVectors) {
    BinaryWriter w;
    w.write(std::vector<double>{1.5, 2.5});
    w.write(std::vector<Vec3>{{1, 2, 3}, {4, 5, 6}});
    BinaryReader r(w.buffer());
    EXPECT_EQ(r.readVector<double>(), (std::vector<double>{1.5, 2.5}));
    const auto vs = r.readVec3Vector();
    ASSERT_EQ(vs.size(), 2u);
    EXPECT_EQ(vs[1], Vec3(4, 5, 6));
}

TEST(Serialize, TruncationThrows) {
    BinaryWriter w;
    w.write(3.14);
    BinaryReader r(std::span(w.buffer().data(), 4));
    EXPECT_THROW(r.read<double>(), IoError);
}

TEST(Serialize, HeaderValidation) {
    BinaryWriter w;
    w.writeHeader("ABCD", 3);
    BinaryReader r(w.buffer());
    EXPECT_EQ(r.readHeader("ABCD"), 3u);
    BinaryReader r2(w.buffer());
    EXPECT_THROW(r2.readHeader("WXYZ"), IoError);
}

TEST(Serialize, FileRoundTrip) {
    const auto path =
        (std::filesystem::temp_directory_path() / "cop_serialize_test.bin")
            .string();
    BinaryWriter w;
    w.write(std::string("file payload"));
    writeFile(path, w.buffer());
    const auto bytes = readFile(path);
    BinaryReader r(bytes);
    EXPECT_EQ(r.readString(), "file payload");
    std::filesystem::remove(path);
    EXPECT_THROW(readFile(path), IoError);
}

TEST(StringUtil, SplitJoinTrim) {
    EXPECT_EQ(split("a,b,,c", ','),
              (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_TRUE(startsWith("copernicus", "cop"));
    EXPECT_FALSE(startsWith("co", "cop"));
}

TEST(StringUtil, Formatting) {
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatHours(0.5), "30.0m");
    EXPECT_EQ(formatHours(1.5), "1h 30m");
    EXPECT_EQ(formatHours(72.0), "3d 0.0h");
}

TEST(Table, RendersAlignedColumns) {
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    const auto s = t.render();
    EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), InvalidArgument);
}

TEST(AsciiChart, ProducesPlausibleOutput) {
    std::vector<double> xs, ys;
    for (int i = 1; i <= 50; ++i) {
        xs.push_back(i);
        ys.push_back(i * i);
    }
    const auto chart = asciiChart(xs, ys, 40, 10);
    EXPECT_NE(chart.find('*'), std::string::npos);
    const auto logChart = asciiChart(xs, ys, 40, 10, true, true);
    EXPECT_NE(logChart.find("(log10)"), std::string::npos);
}


TEST(CliArgs, ParsesSubcommandFlagsAndSwitches) {
    const char* argv[] = {"prog", "fold", "--starts", "9",
                          "--rate", "2.5", "--verbose", "--name", "x"};
    CliArgs args(9, argv);
    EXPECT_EQ(args.subcommand(), "fold");
    EXPECT_EQ(args.getInt("starts", 0), 9);
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), 2.5);
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EQ(args.getString("name", ""), "x");
    EXPECT_EQ(args.getInt("missing", 42), 42);
    EXPECT_TRUE(args.unusedKeys().empty());
}

TEST(CliArgs, ReportsUnusedFlags) {
    const char* argv[] = {"prog", "run", "--typo", "1"};
    CliArgs args(4, argv);
    EXPECT_EQ(args.unusedKeys(), std::vector<std::string>{"typo"});
}

TEST(CliArgs, RejectsMalformedInput) {
    const char* bad1[] = {"prog", "run", "stray"};
    EXPECT_THROW(CliArgs(3, bad1), InvalidArgument);
    const char* bad2[] = {"prog", "run", "--n", "abc"};
    CliArgs args(4, bad2);
    EXPECT_THROW(args.getInt("n", 0), InvalidArgument);
    EXPECT_THROW(args.getDouble("n", 0.0), InvalidArgument);
}

TEST(CliArgs, EmptyInvocation) {
    const char* argv[] = {"prog"};
    CliArgs args(1, argv);
    EXPECT_EQ(args.subcommand(), "");
    EXPECT_FALSE(args.has("anything"));
}

} // namespace
} // namespace cop
