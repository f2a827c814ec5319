#pragma once

/// \file segment_store.hpp
/// Tiered blob store for the server's trajectory/checkpoint plane. Hot
/// blobs stay as zero-copy SharedBytes in a size-capped RAM tier fronted
/// by an LRU index; when the tier overflows, the least-recently-used blob
/// is compressed (util::codec — XOR/delta pre-filter + LZ byte codec) and
/// appended to a rolling segment file on disk. Cold fetches map a
/// transient window of the segment file (mmap + munmap around the
/// decode), so the resident set stays bounded by the RAM-tier cap no
/// matter how many blobs the project accumulates.
///
/// Tier state machine per entry (see DESIGN.md "Durability & tiered
/// storage"):
///
///     put ──> HOT ──evict──> COLD ──get──> HOT+COLD ──evict──> COLD
///              │                             │    (clean: no re-encode)
///            put (replace) invalidates any cold copy (recompression
///            on the next spill)
///
/// Segment files are append-only; erase() marks bytes dead and a segment
/// is unlinked when its last live blob dies (no in-place compaction).
/// The store is a RAM-relief tier, not a durability layer: files live
/// for the store's lifetime and are removed by the destructor.

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/shared_bytes.hpp"

namespace cop::core {

struct StoreConfig {
    /// RAM-tier cap in bytes; 0 = unbounded (nothing ever spills, the
    /// seed behavior).
    std::size_t ramBytes = 0;
    /// Spill directory. Empty with a nonzero cap = a per-store directory
    /// under the system temp dir, created lazily on first spill and
    /// removed with the store.
    std::string dir;
    /// Roll to a new segment file beyond this many bytes.
    std::size_t maxSegmentBytes = std::size_t(64) << 20;
};

struct StoreStats {
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t hits = 0;        ///< gets served from the RAM tier
    std::uint64_t misses = 0;      ///< gets decoded from a segment file
    std::uint64_t spills = 0;      ///< blobs written to the cold tier
    std::uint64_t evictions = 0;   ///< hot copies dropped by the LRU cap
    std::uint64_t recompressions = 0; ///< re-spills after a replace/dirty
    std::uint64_t erases = 0;
    std::uint64_t spilledRawBytes = 0;
    std::uint64_t spilledCompressedBytes = 0;
    std::uint64_t segmentsCreated = 0;
    std::uint64_t segmentsUnlinked = 0;
    std::size_t ramBytesUsed = 0;  ///< current hot-tier footprint
    std::size_t entries = 0;       ///< current live blobs (hot or cold)
    std::size_t coldBytesLive = 0; ///< live compressed bytes on disk
};

class SegmentStore {
public:
    explicit SegmentStore(StoreConfig cfg = {});
    ~SegmentStore();
    SegmentStore(const SegmentStore&) = delete;
    SegmentStore& operator=(const SegmentStore&) = delete;

    /// Inserts or replaces a blob. Replacing invalidates any cold copy.
    void put(std::uint64_t key, SharedBytes blob);
    /// Fetches a blob, promoting a cold copy back into the RAM tier.
    /// Returns nullopt for unknown keys; throws IoError if a segment
    /// frame fails validation (truncated file, CRC mismatch).
    std::optional<SharedBytes> get(std::uint64_t key);
    /// Drops a blob from both tiers. Returns false for unknown keys.
    bool erase(std::uint64_t key);
    bool contains(std::uint64_t key) const;
    /// Raw (uncompressed) size of a blob, 0 for unknown keys.
    std::size_t sizeOf(std::uint64_t key) const;
    std::size_t size() const { return entries_.size(); }
    /// Wipes both tiers (crash simulation / recovery rebuild).
    void clear();

    const StoreStats& stats() const;
    const StoreConfig& config() const { return cfg_; }

private:
    struct SegmentRef {
        std::uint64_t segment = 0; ///< index into segments_
        std::uint64_t offset = 0;  ///< frame offset within the file
        std::uint32_t frameLen = 0;
        std::uint32_t rawLen = 0;
    };
    struct Entry {
        SharedBytes hot;                 ///< empty when cold-only
        std::optional<SegmentRef> cold;
        bool hotValid = false;
        std::list<std::uint64_t>::iterator lruPos; ///< valid iff hotValid
        bool everSpilled = false;
        std::uint32_t rawLen = 0;
    };
    struct Segment {
        std::string path;
        int fd = -1;
        std::uint64_t bytes = 0;     ///< append offset
        std::uint64_t liveBlobs = 0;
        std::uint64_t liveBytes = 0; ///< live frame bytes (stats)
        bool open = false;
    };

    void touch(Entry& e, std::uint64_t key);
    void dropHot(std::uint64_t key, Entry& e);
    void enforceCap();
    void spill(std::uint64_t key, Entry& e);
    SegmentRef appendFrame(const std::vector<std::uint8_t>& frame,
                           std::uint32_t rawLen);
    std::vector<std::uint8_t> readFrame(const SegmentRef& ref);
    void releaseCold(Entry& e);
    Segment& activeSegment();
    void ensureDir();

    StoreConfig cfg_;
    std::map<std::uint64_t, Entry> entries_;
    std::list<std::uint64_t> lru_; ///< front = most recent, hot keys only
    std::vector<Segment> segments_;
    std::size_t ramBytes_ = 0;
    bool dirReady_ = false;
    bool ownsDir_ = false; ///< cfg_.dir was named by ensureDir()
    mutable StoreStats stats_;
};

} // namespace cop::core
