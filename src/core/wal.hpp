#pragma once

/// \file wal.hpp
/// Group-commit write-ahead log for the server's scheduler/lease plane.
/// Every durable mutation (tenant add, push, claim, complete, requeue,
/// lease renew, park/unpark, checkpoint, worker liveness) appends one
/// typed record; records buffer in RAM and a zero-delay flush timer on
/// the event loop turns every burst of same-tick mutations into a single
/// write + fdatasync — the same amortization the wire layer's envelope
/// coalescing applies to frames (DESIGN.md "Durability & tiered
/// storage"). Because every externally visible message has latency > 0,
/// the flush always lands before any effect of the mutation reaches a
/// peer, so group commit is externally indistinguishable from synchronous
/// durability.
///
/// On-disk framing, little-endian:
///   record  := [u32 bodyLen][u32 crc32(body)][body]
///   body    := [u8 WalRecordType][type-specific fields]
/// A snapshot (periodic, temp + rename) captures the whole plane and
/// truncates the log. Recovery loads the snapshot, then replays intact
/// records; a torn tail (truncated length/body, or a CRC mismatch with
/// nothing after it) ends replay cleanly, while corruption *followed by
/// more bytes* — which a crash cannot produce on an append-only log —
/// throws IoError. Replay treats the log as untrusted bytes: lengths are
/// bounds-checked before any allocation (fuzz/wal_fuzz.cpp).

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/event_loop.hpp"

namespace cop::core {

enum class WalRecordType : std::uint8_t {
    TenantAdd = 1,
    Push = 2,
    Claim = 3,
    Complete = 4,
    Requeue = 5,
    RequeueWorker = 6,
    Checkpoint = 7,
    Park = 8,
    ParkDrop = 9,
    ParkCursor = 10,
    Renew = 11,
    WorkerSeen = 12,
    WorkerGone = 13,
    CacheAdd = 14,
    CacheDrop = 15,
};
constexpr std::uint8_t kWalRecordTypeMax = 15;

struct WalConfig {
    std::string dir;                ///< log + snapshot directory
    net::EventLoop* loop = nullptr; ///< arms the group-commit timer
    double flushDelay = 0.0;        ///< flush-window length (sim seconds)
    std::size_t flushBytes = std::size_t(1) << 20; ///< early-flush bound
};

struct WalStats {
    std::uint64_t records = 0;
    std::uint64_t flushes = 0;      ///< write+fdatasync batches
    std::uint64_t syncs = 0;        ///< fdatasync calls (== flushes)
    std::uint64_t bytesWritten = 0;
    std::uint64_t replayedRecords = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t snapshotBytes = 0;
    std::uint64_t corruptTailBytes = 0; ///< torn bytes dropped at recovery
    std::size_t bufferedBytes = 0;
    std::uint64_t recordsSinceSnapshot = 0;
};

class Wal {
public:
    using ReplayHandler =
        std::function<void(WalRecordType, std::span<const std::uint8_t>)>;

    explicit Wal(WalConfig cfg);
    ~Wal();
    Wal(const Wal&) = delete;
    Wal& operator=(const Wal&) = delete;

    /// Buffers one record and arms the flush timer (or flushes inline
    /// once the buffer passes flushBytes).
    void append(WalRecordType type, std::span<const std::uint8_t> body);
    /// Writes and fdatasyncs everything buffered (one syscall pair).
    void flush();

    /// Atomically replaces the snapshot with `state` (temp + rename) and
    /// truncates the log.
    void writeSnapshot(std::span<const std::uint8_t> state);
    /// Loads the snapshot payload; empty if none was ever written.
    /// Validates the snapshot's own magic + CRC.
    std::vector<std::uint8_t> loadSnapshot();
    /// Replays every intact record in the log through `handler`. Torn
    /// tails are tolerated (counted in stats); mid-log corruption throws.
    void replay(const ReplayHandler& handler);

    /// Pure log-stream parser shared by replay() and the fuzz harness:
    /// validates framing, CRCs and type tags over an arbitrary byte
    /// buffer. Returns bytes consumed; `tornTail` reports trailing bytes
    /// that look like an interrupted append rather than corruption.
    static std::size_t parseLog(std::span<const std::uint8_t> bytes,
                                const ReplayHandler& handler,
                                std::size_t maxRecordBytes,
                                std::size_t* tornTail);
    /// Snapshot-container parser (magic + length + CRC), shared with the
    /// fuzz harness. Throws IoError on malformed input.
    static std::vector<std::uint8_t>
    parseSnapshot(std::span<const std::uint8_t> bytes,
                  std::size_t maxBytes);

    const WalStats& stats() const { return stats_; }
    const std::string& dir() const { return cfg_.dir; }

private:
    void openLog(bool truncate);
    void armFlush();
    /// Extends the preallocated region to cover `bytes` more at writeOff_.
    void ensureCapacity(std::size_t bytes);

    WalConfig cfg_;
    int fd_ = -1;
    std::vector<std::uint8_t> buffer_;
    bool flushArmed_ = false;
    /// End of the valid record prefix found at open — the position the
    /// next flush writes to (pwrite, not O_APPEND).
    std::size_t writeOff_ = 0;
    std::size_t preallocEnd_ = 0; ///< file bytes fallocate()d so far
    /// True while bytes past writeOff_ hold a torn tail from a previous
    /// incarnation. replay() must still see (and count) them, so the
    /// first flush — the point where appending over them is committed —
    /// truncates the tail, not the constructor.
    bool tailDirty_ = false;
    WalStats stats_;
};

} // namespace cop::core
