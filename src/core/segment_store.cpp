#include "core/segment_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/codec.hpp"
#include "util/error.hpp"

namespace cop::core {

namespace fs = std::filesystem;

SegmentStore::SegmentStore(StoreConfig cfg) : cfg_(std::move(cfg)) {}

SegmentStore::~SegmentStore() {
    for (Segment& seg : segments_) {
        if (seg.fd >= 0) ::close(seg.fd);
        if (!seg.path.empty()) ::unlink(seg.path.c_str());
    }
}

void SegmentStore::ensureDir() {
    if (dirReady_) return;
    if (cfg_.dir.empty()) {
        const fs::path base = fs::temp_directory_path() /
                              ("cop_store_" + std::to_string(::getpid()) +
                               "_" + std::to_string(std::uintptr_t(this)));
        cfg_.dir = base.string();
    }
    std::error_code ec;
    fs::create_directories(cfg_.dir, ec);
    COP_IO_CHECK(!ec,
               "segment store: cannot create spill dir " + cfg_.dir);
    dirReady_ = true;
}

SegmentStore::Segment& SegmentStore::activeSegment() {
    if (!segments_.empty() && segments_.back().open &&
        segments_.back().bytes < cfg_.maxSegmentBytes)
        return segments_.back();
    if (!segments_.empty() && segments_.back().open)
        segments_.back().open = false; // sealed, fd kept for reads
    ensureDir();
    Segment seg;
    seg.path = (fs::path(cfg_.dir) /
                ("seg_" + std::to_string(segments_.size()) + ".cpz"))
                   .string();
    seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
    COP_IO_CHECK(seg.fd >= 0,
               "segment store: cannot open " + seg.path);
    seg.open = true;
    segments_.push_back(seg);
    ++stats_.segmentsCreated;
    return segments_.back();
}

SegmentStore::SegmentRef
SegmentStore::appendFrame(const std::vector<std::uint8_t>& frame,
                          std::uint32_t rawLen) {
    Segment& seg = activeSegment();
    SegmentRef ref;
    ref.segment = std::uint64_t(&seg - segments_.data());
    ref.offset = seg.bytes;
    ref.frameLen = std::uint32_t(frame.size());
    ref.rawLen = rawLen;
    std::size_t done = 0;
    while (done < frame.size()) {
        const ssize_t n =
            ::pwrite(seg.fd, frame.data() + done, frame.size() - done,
                     off_t(seg.bytes + done));
        COP_IO_CHECK(n > 0, "segment store: write failed");
        done += std::size_t(n);
    }
    seg.bytes += frame.size();
    seg.liveBlobs += 1;
    seg.liveBytes += frame.size();
    return ref;
}

std::vector<std::uint8_t> SegmentStore::readFrame(const SegmentRef& ref) {
    COP_IO_CHECK(ref.segment < segments_.size(),
               "segment store: dangling segment ref");
    const Segment& seg = segments_[ref.segment];
    COP_IO_CHECK(seg.fd >= 0 &&
                   ref.offset + ref.frameLen <= seg.bytes, "segment store: frame ref outside segment");
    // Transient mmap window: page-align the offset, decode, unmap. The
    // pages join the resident set only for the duration of the fetch, so
    // RSS stays bounded by the RAM tier regardless of cold-tier size.
    const std::size_t page = std::size_t(::sysconf(_SC_PAGESIZE));
    const std::uint64_t mapStart = ref.offset & ~(std::uint64_t(page) - 1);
    const std::size_t mapLen =
        std::size_t(ref.offset - mapStart) + ref.frameLen;
    void* map = ::mmap(nullptr, mapLen, PROT_READ, MAP_PRIVATE, seg.fd,
                       off_t(mapStart));
    COP_IO_CHECK(map != MAP_FAILED, "segment store: mmap failed");
    const auto* bytes = static_cast<const std::uint8_t*>(map) +
                        (ref.offset - mapStart);
    std::vector<std::uint8_t> raw;
    try {
        raw = util::decode({bytes, ref.frameLen}, kMaxBlobBytes);
    } catch (...) {
        ::munmap(map, mapLen);
        throw;
    }
    ::munmap(map, mapLen);
    COP_IO_CHECK(raw.size() == ref.rawLen,
               "segment store: frame raw size mismatch");
    return raw;
}

void SegmentStore::releaseCold(Entry& e) {
    if (!e.cold) return;
    Segment& seg = segments_[e.cold->segment];
    seg.liveBlobs -= 1;
    seg.liveBytes -= e.cold->frameLen;
    stats_.coldBytesLive -= e.cold->frameLen;
    if (seg.liveBlobs == 0 && !seg.open) {
        if (seg.fd >= 0) ::close(seg.fd);
        ::unlink(seg.path.c_str());
        seg.fd = -1;
        seg.path.clear();
        ++stats_.segmentsUnlinked;
    }
    e.cold.reset();
}

void SegmentStore::touch(Entry& e, std::uint64_t key) {
    if (e.hotValid && e.lruPos != lru_.begin())
        lru_.splice(lru_.begin(), lru_, e.lruPos);
    else if (!e.hotValid) {
        lru_.push_front(key);
        e.lruPos = lru_.begin();
        e.hotValid = true;
    }
}

void SegmentStore::dropHot(std::uint64_t key, Entry& e) {
    (void)key;
    if (!e.hotValid) return;
    lru_.erase(e.lruPos);
    ramBytes_ -= e.hot.size();
    e.hot = SharedBytes{};
    e.hotValid = false;
}

void SegmentStore::spill(std::uint64_t key, Entry& e) {
    if (!e.cold) {
        const util::EncodeResult enc = util::encode(e.hot);
        e.cold = appendFrame(enc.frame, std::uint32_t(e.hot.size()));
        ++stats_.spills;
        if (e.everSpilled) ++stats_.recompressions;
        e.everSpilled = true;
        stats_.spilledRawBytes += e.hot.size();
        stats_.spilledCompressedBytes += enc.frame.size();
        stats_.coldBytesLive += enc.frame.size();
    }
    ++stats_.evictions;
    dropHot(key, e);
}

void SegmentStore::enforceCap() {
    if (cfg_.ramBytes == 0) return;
    while (ramBytes_ > cfg_.ramBytes && !lru_.empty()) {
        const std::uint64_t victim = lru_.back();
        spill(victim, entries_.at(victim));
    }
}

void SegmentStore::put(std::uint64_t key, SharedBytes blob) {
    ++stats_.puts;
    Entry& e = entries_[key];
    if (e.hotValid) ramBytes_ -= e.hot.size();
    releaseCold(e); // a replace invalidates any cold copy
    e.rawLen = std::uint32_t(blob.size());
    e.hot = std::move(blob);
    ramBytes_ += e.hot.size();
    touch(e, key);
    enforceCap();
}

std::optional<SharedBytes> SegmentStore::get(std::uint64_t key) {
    ++stats_.gets;
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    Entry& e = it->second;
    if (e.hotValid) {
        ++stats_.hits;
        touch(e, key);
        return e.hot;
    }
    ++stats_.misses;
    SharedBytes blob{readFrame(*e.cold)};
    // Promote: the cold frame stays valid (clean), so a later eviction
    // drops the hot copy without re-encoding.
    e.hot = blob;
    ramBytes_ += e.hot.size();
    touch(e, key);
    enforceCap();
    return blob;
}

bool SegmentStore::erase(std::uint64_t key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    ++stats_.erases;
    dropHot(key, it->second);
    releaseCold(it->second);
    entries_.erase(it);
    return true;
}

bool SegmentStore::contains(std::uint64_t key) const {
    return entries_.count(key) != 0;
}

std::size_t SegmentStore::sizeOf(std::uint64_t key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? 0 : it->second.rawLen;
}

void SegmentStore::clear() {
    entries_.clear();
    lru_.clear();
    ramBytes_ = 0;
    stats_.coldBytesLive = 0;
    for (Segment& seg : segments_) {
        if (seg.fd >= 0) ::close(seg.fd);
        if (!seg.path.empty()) {
            ::unlink(seg.path.c_str());
            ++stats_.segmentsUnlinked;
        }
    }
    segments_.clear();
}

const StoreStats& SegmentStore::stats() const {
    stats_.ramBytesUsed = ramBytes_;
    stats_.entries = entries_.size();
    return stats_;
}

} // namespace cop::core
