// Tiered segment store: LRU spill to disk, cold promotion, replacement
// invalidation, and bounded RAM under sustained load.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "core/segment_store.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cop::core {
namespace {

namespace fs = std::filesystem;

SharedBytes blobOf(std::size_t n, std::uint8_t fill) {
    std::vector<std::uint8_t> v(n, fill);
    return SharedBytes(std::move(v));
}

std::vector<std::uint8_t> randomBytes(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = std::uint8_t(rng.next());
    return out;
}

struct TempDir {
    fs::path path;
    TempDir() {
        path = fs::temp_directory_path() /
               ("cop_store_test_" + std::to_string(Rng(
                                        std::uint64_t(::getpid()))
                                        .next()));
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

TEST(SegmentStore, UnboundedStoreNeverSpills) {
    SegmentStore store; // ramBytes = 0: the seed behavior
    for (std::uint64_t k = 0; k < 100; ++k) store.put(k, blobOf(4096, k));
    for (std::uint64_t k = 0; k < 100; ++k) {
        auto b = store.get(k);
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(b->size(), 4096u);
    }
    EXPECT_EQ(store.stats().spills, 0u);
    EXPECT_EQ(store.stats().misses, 0u);
}

TEST(SegmentStore, HotHitsAreZeroCopy) {
    SegmentStore store;
    auto blob = blobOf(1000, 7);
    store.put(1, blob);
    auto fetched = store.get(1);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_TRUE(fetched->sharesBufferWith(blob));
    EXPECT_EQ(store.stats().hits, 1u);
}

TEST(SegmentStore, SpillsColdBlobsAndPromotesBack) {
    TempDir tmp;
    StoreConfig cfg;
    cfg.ramBytes = 16 * 1024; // room for ~4 hot blobs
    cfg.dir = tmp.path.string();
    SegmentStore store(cfg);

    std::vector<std::vector<std::uint8_t>> originals;
    for (std::uint64_t k = 0; k < 32; ++k) {
        std::vector<std::uint8_t> v(4096);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = std::uint8_t(k * 31 + i);
        originals.push_back(v);
        store.put(k, SharedBytes(std::move(v)));
    }
    EXPECT_LE(store.stats().ramBytesUsed, cfg.ramBytes);
    EXPECT_GT(store.stats().spills, 0u);
    EXPECT_EQ(store.size(), 32u);

    // Every blob — hot or spilled — reads back byte-identical.
    for (std::uint64_t k = 0; k < 32; ++k) {
        auto b = store.get(k);
        ASSERT_TRUE(b.has_value()) << "key " << k;
        ASSERT_EQ(b->size(), originals[k].size());
        EXPECT_EQ(0, std::memcmp(b->bytes().data(), originals[k].data(),
                                 b->size()))
            << "key " << k;
    }
    EXPECT_GT(store.stats().misses, 0u); // some came off disk
    EXPECT_LE(store.stats().ramBytesUsed, cfg.ramBytes);
}

TEST(SegmentStore, OwnTempDirIsRemovedButCallersDirStays) {
    // No dir configured: the store names one under the temp dir on its
    // first spill and removes it on destruction.
    std::string ownDir;
    {
        SegmentStore store(StoreConfig{.ramBytes = 1024, .dir = {}});
        for (std::uint64_t k = 0; k < 4; ++k) store.put(k, blobOf(1024, k));
        ASSERT_GT(store.stats().spills, 0u);
        ownDir = store.config().dir;
        ASSERT_FALSE(ownDir.empty());
        EXPECT_TRUE(fs::is_directory(ownDir));
    }
    EXPECT_FALSE(fs::exists(ownDir));

    // A caller's dir survives the store; only the segments go.
    TempDir tmp;
    {
        SegmentStore store(
            StoreConfig{.ramBytes = 1024, .dir = tmp.path.string()});
        for (std::uint64_t k = 0; k < 4; ++k) store.put(k, blobOf(1024, k));
        ASSERT_GT(store.stats().spills, 0u);
    }
    EXPECT_TRUE(fs::is_directory(tmp.path));
    EXPECT_TRUE(fs::is_empty(tmp.path));
}

TEST(SegmentStore, CleanReEvictionDoesNotRecompress) {
    TempDir tmp;
    StoreConfig cfg;
    cfg.ramBytes = 8 * 1024;
    cfg.dir = tmp.path.string();
    SegmentStore store(cfg);
    // Fill past the cap, then fetch an evicted blob (promote) and push it
    // back out: the cold copy is still valid, no second spill needed.
    for (std::uint64_t k = 0; k < 8; ++k) store.put(k, blobOf(4096, k));
    const auto spillsBefore = store.stats().spills;
    ASSERT_TRUE(store.get(0).has_value()); // promote key 0
    for (std::uint64_t k = 8; k < 12; ++k) store.put(k, blobOf(4096, k));
    EXPECT_GT(store.stats().evictions, 0u);
    // Key 0's re-eviction was clean: total spills grew only for the new
    // keys, not for 0 again.
    EXPECT_LE(store.stats().spills - spillsBefore, 4u);
    auto b = store.get(0);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ((*b).bytes()[0], 0);
}

TEST(SegmentStore, ReplaceInvalidatesColdCopy) {
    TempDir tmp;
    StoreConfig cfg;
    cfg.ramBytes = 4 * 1024;
    cfg.dir = tmp.path.string();
    SegmentStore store(cfg);
    store.put(1, blobOf(4096, 1));
    store.put(2, blobOf(4096, 2)); // evicts 1 to disk
    store.put(1, blobOf(4096, 99)); // replace: the cold copy is stale now
    store.put(3, blobOf(4096, 3));  // evict 1 again -> recompression
    auto b = store.get(1);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ((*b).bytes()[0], 99);
    EXPECT_GT(store.stats().recompressions, 0u);
}

TEST(SegmentStore, EraseDropsBothTiersAndUnlinksDeadSegments) {
    TempDir tmp;
    StoreConfig cfg;
    cfg.ramBytes = 4 * 1024;
    cfg.dir = tmp.path.string();
    cfg.maxSegmentBytes = 16 * 1024;
    {
        SegmentStore store(cfg);
        // Incompressible blobs: stored-frame spills at full size roll the
        // segment file several times.
        for (std::uint64_t k = 0; k < 16; ++k)
            store.put(k, SharedBytes(randomBytes(4096, k)));
        EXPECT_GT(store.stats().segmentsCreated, 1u);
        for (std::uint64_t k = 0; k < 16; ++k)
            EXPECT_TRUE(store.erase(k));
        EXPECT_FALSE(store.erase(0)); // already gone
        EXPECT_EQ(store.size(), 0u);
        EXPECT_EQ(store.stats().coldBytesLive, 0u);
        // Each drained rolled-over segment was unlinked; only the open
        // active segment may remain (reused by future spills).
        EXPECT_GE(store.stats().segmentsUnlinked,
                  store.stats().segmentsCreated - 1);
    }
    // Destructor leaves the directory empty (RAM-relief tier, not
    // durability).
    EXPECT_TRUE(fs::is_empty(tmp.path));
}

TEST(SegmentStore, SizeOfAndContainsSeeBothTiers) {
    TempDir tmp;
    StoreConfig cfg;
    cfg.ramBytes = 4 * 1024;
    cfg.dir = tmp.path.string();
    SegmentStore store(cfg);
    store.put(1, blobOf(3000, 1));
    store.put(2, blobOf(4096, 2)); // spills 1
    EXPECT_TRUE(store.contains(1));
    EXPECT_TRUE(store.contains(2));
    EXPECT_FALSE(store.contains(3));
    EXPECT_EQ(store.sizeOf(1), 3000u);
    EXPECT_EQ(store.sizeOf(2), 4096u);
    EXPECT_EQ(store.sizeOf(3), 0u);
    EXPECT_FALSE(store.get(3).has_value());
}

TEST(SegmentStore, ClearWipesEverything) {
    TempDir tmp;
    StoreConfig cfg;
    cfg.ramBytes = 4 * 1024;
    cfg.dir = tmp.path.string();
    SegmentStore store(cfg);
    for (std::uint64_t k = 0; k < 8; ++k) store.put(k, blobOf(4096, k));
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.stats().ramBytesUsed, 0u);
    EXPECT_EQ(store.stats().coldBytesLive, 0u);
    EXPECT_FALSE(store.get(0).has_value());
    store.put(5, blobOf(100, 5)); // still usable after clear
    EXPECT_TRUE(store.get(5).has_value());
}

TEST(SegmentStore, CompressionShrinksSpilledTrajectoryBytes) {
    TempDir tmp;
    StoreConfig cfg;
    cfg.ramBytes = 1024;
    cfg.dir = tmp.path.string();
    SegmentStore store(cfg);
    // Slowly-varying doubles, the checkpoint workload.
    Rng rng(3);
    std::vector<double> vals(3000);
    double base = 1.0;
    for (auto& v : vals) {
        base += 1e-4 * (rng.uniform() - 0.5);
        v = base;
    }
    std::vector<std::uint8_t> bytes(vals.size() * sizeof(double));
    std::memcpy(bytes.data(), vals.data(), bytes.size());
    store.put(1, SharedBytes(std::move(bytes)));
    store.put(2, blobOf(2048, 0)); // force the spill of key 1
    EXPECT_GT(store.stats().spilledRawBytes, 0u);
    EXPECT_LT(store.stats().spilledCompressedBytes,
              store.stats().spilledRawBytes);
}

} // namespace
} // namespace cop::core
