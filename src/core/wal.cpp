#include "core/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/codec.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace cop::core {

namespace fs = std::filesystem;

namespace {

constexpr char kLogName[] = "wal.log";
constexpr char kSnapshotName[] = "snapshot.bin";
constexpr std::array<std::uint8_t, 4> kSnapMagic = {'C', 'P', 'W', 'S'};
/// Replay guard: a longer record (or snapshot) is hostile, not torn.
constexpr std::size_t kMaxRecordBytes = std::size_t(64) << 20;
/// Log-file preallocation chunk. Appends go into fallocate()d space via
/// pwrite, so fdatasync never waits on an ext4 metadata-journal commit for
/// file growth — that commit, not the data write, dominates small-batch
/// sync latency. The unwritten tail reads back as zeros; a zero record
/// length marks it at replay.
constexpr std::size_t kPreallocBytes = std::size_t(1) << 20;

std::vector<std::uint8_t> readWholeFile(const std::string& path) {
    std::vector<std::uint8_t> bytes;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return bytes;
    struct stat st {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        bytes.resize(std::size_t(st.st_size));
        std::size_t done = 0;
        while (done < bytes.size()) {
            const ssize_t n =
                ::read(fd, bytes.data() + done, bytes.size() - done);
            if (n <= 0) {
                bytes.resize(done);
                break;
            }
            done += std::size_t(n);
        }
    }
    ::close(fd);
    return bytes;
}

} // namespace

Wal::Wal(WalConfig cfg) : cfg_(std::move(cfg)) {
    COP_REQUIRE(!cfg_.dir.empty(), "wal: directory required");
    std::error_code ec;
    fs::create_directories(cfg_.dir, ec);
    COP_IO_CHECK(!ec, "wal: cannot create dir " + cfg_.dir);
    openLog(/*truncate=*/false);
}

Wal::~Wal() {
    flush();
    // Tidy the preallocated zero tail off a cleanly closed log. A log
    // whose torn tail was never overwritten is left byte-for-byte intact.
    if (fd_ >= 0 && !tailDirty_ && preallocEnd_ > writeOff_)
        (void)::ftruncate(fd_, off_t(writeOff_));
    if (fd_ >= 0) ::close(fd_);
}

void Wal::openLog(bool truncate) {
    if (fd_ >= 0) ::close(fd_);
    const std::string path = (fs::path(cfg_.dir) / kLogName).string();
    const int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
    fd_ = ::open(path.c_str(), flags, 0600);
    COP_IO_CHECK(fd_ >= 0, "wal: cannot open " + path);
    writeOff_ = 0;
    preallocEnd_ = 0;
    tailDirty_ = false;
    if (truncate) return;
    // Find where the valid record prefix ends: that is where appends
    // resume. The scan is lenient — a corrupt log must still open so
    // replay() can report the corruption on its own terms — and
    // non-mutating, so replay() still sees any torn tail.
    const auto bytes = readWholeFile(path);
    std::size_t pos = 0;
    while (bytes.size() - pos >= 8) {
        std::uint32_t len = 0, crc = 0;
        std::memcpy(&len, bytes.data() + pos, 4);
        std::memcpy(&crc, bytes.data() + pos + 4, 4);
        if (len < 1 || len > kMaxRecordBytes ||
            bytes.size() - pos - 8 < len)
            break;
        const auto body = std::span(bytes).subspan(pos + 8, len);
        if (util::crc32(body) != crc) break;
        pos += 8 + len;
    }
    writeOff_ = pos;
    tailDirty_ = pos < bytes.size();
}

void Wal::ensureCapacity(std::size_t bytes) {
    if (preallocEnd_ < writeOff_) preallocEnd_ = writeOff_;
    const std::size_t end = writeOff_ + bytes;
    if (end <= preallocEnd_) return;
    const std::size_t chunk = std::max(kPreallocBytes, end - preallocEnd_);
    COP_IO_CHECK(::posix_fallocate(fd_, off_t(preallocEnd_),
                                   off_t(chunk)) == 0,
                 "wal: preallocation failed");
    preallocEnd_ += chunk;
}

void Wal::armFlush() {
    if (flushArmed_ || !cfg_.loop) return;
    flushArmed_ = true;
    // Zero delay by default: all records appended during one event tick
    // share a single write+fdatasync that fires before any message sent
    // this tick is delivered (link latency > 0).
    cfg_.loop->schedule(cfg_.flushDelay, [this] {
        flushArmed_ = false;
        flush();
    });
}

void Wal::append(WalRecordType type, std::span<const std::uint8_t> body) {
    const std::uint32_t len = std::uint32_t(body.size() + 1);
    const std::size_t at = buffer_.size();
    buffer_.resize(at + 8 + len);
    std::uint8_t* p = buffer_.data() + at;
    std::memcpy(p, &len, 4);
    p[8] = std::uint8_t(type);
    if (!body.empty()) std::memcpy(p + 9, body.data(), body.size());
    const std::uint32_t crc = util::crc32({p + 8, len});
    std::memcpy(p + 4, &crc, 4);
    ++stats_.records;
    ++stats_.recordsSinceSnapshot;
    stats_.bufferedBytes = buffer_.size();
    if (buffer_.size() >= cfg_.flushBytes || !cfg_.loop)
        flush();
    else
        armFlush();
}

void Wal::flush() {
    if (buffer_.empty()) return;
    if (tailDirty_) {
        // Appending over a torn tail is the moment it is really dropped;
        // anything left of it past the new records would read back as a
        // corrupt (not torn) log.
        COP_IO_CHECK(::ftruncate(fd_, off_t(writeOff_)) == 0,
                     "wal: cannot drop torn tail");
        tailDirty_ = false;
    }
    ensureCapacity(buffer_.size());
    std::size_t done = 0;
    while (done < buffer_.size()) {
        const ssize_t n =
            ::pwrite(fd_, buffer_.data() + done, buffer_.size() - done,
                     off_t(writeOff_ + done));
        COP_IO_CHECK(n > 0, "wal: write failed");
        done += std::size_t(n);
    }
    writeOff_ += buffer_.size();
    COP_IO_CHECK(::fdatasync(fd_) == 0, "wal: fdatasync failed");
    ++stats_.flushes;
    ++stats_.syncs;
    stats_.bytesWritten += buffer_.size();
    buffer_.clear();
    stats_.bufferedBytes = 0;
}

void Wal::writeSnapshot(std::span<const std::uint8_t> state) {
    flush();
    const fs::path dir(cfg_.dir);
    const std::string tmp = (dir / (std::string(kSnapshotName) + ".tmp"))
                                .string();
    const std::string dest = (dir / kSnapshotName).string();
    std::vector<std::uint8_t> out;
    out.reserve(state.size() + 16);
    out.insert(out.end(), kSnapMagic.begin(), kSnapMagic.end());
    const std::uint64_t len = state.size();
    const std::uint32_t crc = util::crc32(state);
    out.resize(16);
    std::memcpy(out.data() + 4, &len, 8);
    std::memcpy(out.data() + 12, &crc, 4);
    out.insert(out.end(), state.begin(), state.end());

    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    COP_IO_CHECK(fd >= 0, "wal: cannot open " + tmp);
    std::size_t done = 0;
    while (done < out.size()) {
        const ssize_t n =
            ::write(fd, out.data() + done, out.size() - done);
        if (n <= 0) {
            ::close(fd);
            COP_IO_CHECK(false, "wal: snapshot write failed");
        }
        done += std::size_t(n);
    }
    COP_IO_CHECK(::fdatasync(fd) == 0, "wal: snapshot sync failed");
    ::close(fd);
    COP_IO_CHECK(::rename(tmp.c_str(), dest.c_str()) == 0,
               "wal: snapshot rename failed");
    // The snapshot covers everything the log held; start a fresh log.
    openLog(/*truncate=*/true);
    ++stats_.snapshots;
    stats_.snapshotBytes = out.size();
    stats_.recordsSinceSnapshot = 0;
}

std::vector<std::uint8_t> Wal::loadSnapshot() {
    const std::string path = (fs::path(cfg_.dir) / kSnapshotName).string();
    const std::vector<std::uint8_t> bytes = readWholeFile(path);
    if (bytes.empty()) return {};
    return parseSnapshot(bytes, kMaxRecordBytes);
}

std::vector<std::uint8_t>
Wal::parseSnapshot(std::span<const std::uint8_t> bytes,
                   std::size_t maxBytes) {
    COP_IO_CHECK(bytes.size() >= 16, "wal: snapshot truncated");
    COP_IO_CHECK(std::memcmp(bytes.data(), kSnapMagic.data(), 4) == 0, "wal: bad snapshot magic");
    std::uint64_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&len, bytes.data() + 4, 8);
    std::memcpy(&crc, bytes.data() + 12, 4);
    COP_IO_CHECK(len <= maxBytes, "wal: hostile snapshot length");
    COP_IO_CHECK(bytes.size() - 16 == len,
               "wal: snapshot length mismatch");
    const auto payload = bytes.subspan(16);
    COP_IO_CHECK(util::crc32(payload) == crc,
               "wal: snapshot CRC mismatch");
    return {payload.begin(), payload.end()};
}

std::size_t Wal::parseLog(std::span<const std::uint8_t> bytes,
                          const ReplayHandler& handler,
                          std::size_t maxRecordBytes,
                          std::size_t* tornTail) {
    std::size_t pos = 0;
    if (tornTail) *tornTail = 0;
    while (pos < bytes.size()) {
        if (bytes.size() - pos < 8) { // truncated header = torn append
            if (tornTail) *tornTail = bytes.size() - pos;
            break;
        }
        std::uint32_t len = 0, crc = 0;
        std::memcpy(&len, bytes.data() + pos, 4);
        std::memcpy(&crc, bytes.data() + pos + 4, 4);
        // A zero length is the preallocated (never-written) tail of the
        // log, not a record: nothing past it was ever acknowledged.
        if (len == 0) break;
        COP_IO_CHECK(len <= maxRecordBytes,
                   "wal: hostile record length");
        if (bytes.size() - pos - 8 < len) { // truncated body = torn append
            if (tornTail) *tornTail = bytes.size() - pos;
            break;
        }
        const auto body = bytes.subspan(pos + 8, len);
        if (util::crc32(body) != crc) {
            // A CRC mismatch on the *final* record is a torn append (the
            // length landed, part of the body did not). Earlier in the
            // stream it cannot come from a crash: the log is append-only.
            COP_IO_CHECK(pos + 8 + len == bytes.size(),
                       "wal: mid-log CRC mismatch");
            if (tornTail) *tornTail = bytes.size() - pos;
            break;
        }
        COP_IO_CHECK(body[0] >= 1 && body[0] <= kWalRecordTypeMax,
                   "wal: unknown record type");
        if (handler)
            handler(WalRecordType(body[0]), body.subspan(1));
        pos += 8 + len;
    }
    return pos;
}

void Wal::replay(const ReplayHandler& handler) {
    const std::string path = (fs::path(cfg_.dir) / kLogName).string();
    const std::vector<std::uint8_t> bytes = readWholeFile(path);
    std::size_t torn = 0;
    std::size_t replayed = 0;
    parseLog(bytes,
             [&](WalRecordType t, std::span<const std::uint8_t> body) {
                 ++replayed;
                 handler(t, body);
             },
             kMaxRecordBytes, &torn);
    stats_.replayedRecords += replayed;
    stats_.corruptTailBytes += torn;
}

} // namespace cop::core
