/// \file wal_fuzz.cpp
/// Fuzz harness over the recovery-path untrusted-bytes surface: the WAL
/// log-stream parser with every record body run through the typed event
/// decoder, the snapshot container parser, the blob codec's frame
/// decoder, and the scheduler's snapshot content decoder. These are the
/// byte formats a crashed (or hostile) disk hands the server at
/// recovery, so each must reject malformed input with cop::IoError —
/// never a hostile-length allocation, an out-of-bounds read, or trailing
/// garbage silently accepted.
///
/// Input format: byte 0 selects the surface (mod 4) — 0: Wal::parseLog +
/// event::decode, 1: Wal::parseSnapshot, 2: util::decode, 3:
/// ShardedScheduler::restore over a fresh SegmentStore — and the
/// remaining bytes are the raw file/frame image. cop::Error is the
/// *expected* outcome for malformed input; anything else (std::bad_alloc,
/// std::length_error, UB caught by ASan/UBSan, a crash) is a finding.
///
/// Same three modes as envelope_fuzz (fuzz/CMakeLists.txt,
/// tools/run_fuzz.sh): libFuzzer exploration under clang, deterministic
/// corpus replay via ctest on any toolchain, and `--generate <dir>` to
/// rewrite the committed seed corpus — well-formed images from the real
/// writers plus the hostile shapes recovery must survive (truncated
/// record, bad CRC mid-log, snapshot length/count mismatch, nested codec
/// frame, trailing garbage, hostile length prefixes, out-of-range record
/// fields, a scheduler image with a duplicate or out-of-range pending
/// sequence number or a NaN deficit).

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/plane_events.hpp"
#include "core/scheduler.hpp"
#include "core/segment_store.hpp"
#include "core/wal.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"

namespace {

constexpr std::size_t kMaxBytes = std::size_t(1) << 20;

void fuzzOne(std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return;
    const std::uint8_t surface = bytes[0] % 4;
    const auto body = bytes.subspan(1);
    try {
        switch (surface) {
        case 0: {
            std::size_t torn = 0;
            cop::core::Wal::parseLog(
                body,
                [](cop::core::WalRecordType type,
                   std::span<const std::uint8_t> rec) {
                    // Touch every body byte: OOB here is the bug class
                    // ASan exists to catch.
                    volatile std::uint8_t sink = 0;
                    for (const std::uint8_t b : rec) sink = sink ^ b;
                    (void)sink;
                    // Then decode it as recovery would. A rejected body
                    // must not stop the parser from reaching the next.
                    try {
                        (void)cop::core::event::decode(type, rec);
                    } catch (const cop::Error&) {
                    }
                },
                kMaxBytes, &torn);
            break;
        }
        case 1:
            (void)cop::core::Wal::parseSnapshot(body, kMaxBytes);
            break;
        case 2:
            (void)cop::util::decode(body, kMaxBytes);
            break;
        default: {
            // Unbounded RAM tier: the store never touches the disk here.
            cop::core::SegmentStore store;
            cop::core::ShardedScheduler scheduler(store);
            cop::BinaryReader r(body);
            scheduler.restore(r);
            break;
        }
        }
    } catch (const cop::Error&) {
        // Expected rejection path for malformed input.
    }
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    fuzzOne({data, size});
    return 0;
}

#ifndef COP_FUZZ_LIBFUZZER

// ---- Standalone driver: corpus replay + seed-corpus generation ---------

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

void writeSeed(const fs::path& dir, const std::string& name,
               std::uint8_t surface,
               const std::vector<std::uint8_t>& image) {
    std::vector<std::uint8_t> bytes;
    bytes.push_back(surface);
    bytes.insert(bytes.end(), image.begin(), image.end());
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              std::streamsize(bytes.size()));
}

/// One WAL record frame exactly as Wal::flush writes it:
/// [u32 bodyLen][u32 crc32(body)][body = u8 type + fields].
std::vector<std::uint8_t> logRecord(std::uint8_t type,
                                    std::vector<std::uint8_t> fields) {
    std::vector<std::uint8_t> body;
    body.push_back(type);
    body.insert(body.end(), fields.begin(), fields.end());
    const std::uint32_t len = std::uint32_t(body.size());
    const std::uint32_t crc = cop::util::crc32(body);
    std::vector<std::uint8_t> out;
    for (int i = 0; i < 4; ++i)
        out.push_back(std::uint8_t(len >> (8 * i)));
    for (int i = 0; i < 4; ++i)
        out.push_back(std::uint8_t(crc >> (8 * i)));
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

/// A record whose body is the event's real encoding.
template <typename Event>
std::vector<std::uint8_t> eventRecord(const Event& event) {
    cop::BinaryWriter w;
    event.encode(w);
    return logRecord(std::uint8_t(Event::kType), w.buffer());
}

/// One well-formed record of every WalRecordType, in tag order.
std::vector<std::uint8_t> everyEventLog() {
    namespace ev = cop::core::event;
    const std::vector<std::string> executables = {"mdrun", "fe_sample"};
    const std::vector<cop::core::CommandId> renewed = {7, 8};
    const cop::core::SharedBytes blob(std::vector<std::uint8_t>(64, 3));
    cop::core::CommandSpec spec;
    spec.id = 7;
    spec.projectId = 1;
    spec.executable = "mdrun";
    spec.input = blob;
    cop::core::WorkloadRequestPayload request;
    request.worker = 4;
    request.cores = 2;
    request.executables = executables;
    cop::core::HeartbeatPayload heartbeat;
    heartbeat.worker = 4;
    heartbeat.running = {7};
    heartbeat.projectServers = {0};

    std::vector<std::uint8_t> log;
    const auto add = [&](const auto& event) {
        const auto record = eventRecord(event);
        log.insert(log.end(), record.begin(), record.end());
    };
    add(ev::TenantAdd{1, {}, "msm"});
    add(ev::Push{1, true, spec});
    add(ev::Claim{.worker = 4, .cores = 2, .executables = &executables,
                  .expires = 360.0, .ids = {7}});
    add(ev::Complete{7, 1, true});
    add(ev::Requeue{7, ev::RequeueReason::LeaseExpiry});
    add(ev::RequeueWorker{4});
    add(ev::Checkpoint{7, blob});
    add(ev::Park{request});
    add(ev::ParkDrop{4});
    add(ev::ParkCursor{1, {4}});
    add(ev::Renew{4, 360.0, renewed});
    add(ev::WorkerSeen{4, 12.5, heartbeat});
    add(ev::WorkerGone{4});
    add(ev::CacheAdd{7, 1, 0, blob});
    add(ev::CacheDrop{7});
    return log;
}

std::vector<std::uint8_t> snapshotImage(std::vector<std::uint8_t> state) {
    std::vector<std::uint8_t> out = {'C', 'P', 'W', 'S'};
    const std::uint64_t len = state.size();
    const std::uint32_t crc = cop::util::crc32(state);
    out.resize(16);
    std::memcpy(out.data() + 4, &len, 8);
    std::memcpy(out.data() + 12, &crc, 4);
    out.insert(out.end(), state.begin(), state.end());
    return out;
}

/// A one-tenant scheduler snapshot (ShardedScheduler::serialize) with
/// two pending commands and one in flight, plus the offsets of the
/// fields the hostile seeds patch.
struct SchedulerImage {
    std::vector<std::uint8_t> bytes;
    std::size_t nextSeq = 0;   ///< the queue's push counter (i64)
    std::size_t deficit = 0;   ///< the tenant's DRR deficit (double)
    std::size_t firstSeq = 0;  ///< pending entry 0's seq (i64)
    std::size_t secondSeq = 0; ///< pending entry 1's seq (i64)
};

SchedulerImage schedulerImage() {
    using namespace cop::core;
    SegmentStore store;
    ShardedScheduler scheduler(store);
    const TenantConfig config;
    scheduler.addTenant(1, config);
    CommandSpec spec;
    spec.projectId = 1;
    spec.executable = "mdrun";
    spec.input = SharedBytes(std::vector<std::uint8_t>(48, 5));
    for (CommandId id : {7, 8, 9}) {
        spec.id = id;
        scheduler.push(1, spec);
    }
    (void)scheduler.claim({"mdrun"}, 1, 4); // command 7 goes in flight

    cop::BinaryWriter w;
    scheduler.serialize(w);
    cop::BinaryWriter configBytes;
    config.serialize(configBytes);
    SchedulerImage image;
    image.bytes = w.buffer();
    // Layout: tenant count, tenant id, config, deficit, seven counters,
    // then the queue: nextSeq, headSeq, pending count, (seq, spec)...
    image.deficit = 8 + 8 + configBytes.buffer().size();
    image.nextSeq = image.deficit + 8 + 7 * 8;
    image.firstSeq = image.nextSeq + 8 + 8 + 8;
    cop::BinaryWriter specBytes;
    spec.serialize(specBytes);
    image.secondSeq = image.firstSeq + 8 + specBytes.size();
    return image;
}

int generateCorpus(const fs::path& dir) {
    fs::create_directories(dir);
    using cop::core::WalRecordType;
    const auto push = std::uint8_t(WalRecordType::Push);
    const auto claim = std::uint8_t(WalRecordType::Claim);

    // -- surface 0: the log stream --------------------------------------
    auto log = logRecord(push, {1, 2, 3, 4, 5, 6, 7, 8});
    const auto second = logRecord(claim, {9, 10, 11, 12});
    log.insert(log.end(), second.begin(), second.end());
    writeSeed(dir, "log_wellformed", 0, log);

    // Truncated record: a torn tail mid-body — replay keeps the intact
    // prefix and must not throw.
    writeSeed(dir, "log_truncated_record", 0,
              {log.begin(), log.end() - 5});

    // Bad CRC with a record *after* it: impossible from a crash, must
    // throw IoError (and never deliver the corrupt body).
    auto badCrc = log;
    badCrc[9] ^= 0x55; // inside record 1's body
    writeSeed(dir, "log_bad_crc", 0, badCrc);

    // Type tag past kWalRecordTypeMax: corruption, not a new version.
    auto badType =
        logRecord(cop::core::kWalRecordTypeMax + 1, {1, 2, 3});
    badType.insert(badType.end(), log.begin(), log.end());
    writeSeed(dir, "log_bad_type", 0, badType);

    // Hostile length prefix: must be refused before any allocation.
    auto hugeLen = log;
    hugeLen[0] = 0xFF;
    hugeLen[1] = 0xFF;
    hugeLen[2] = 0xFF;
    hugeLen[3] = 0x7F;
    writeSeed(dir, "log_huge_len", 0, hugeLen);

    // Every record type, well formed: the decoder's accepting paths.
    writeSeed(dir, "log_every_event", 0, everyEventLog());

    // Record fields out of range or past the end of the body: the framing
    // is intact, so only the event decoder can reject them.
    {
        namespace ev = cop::core::event;
        // TenantAdd's byte after the tenant weight (u64 project, f64
        // weight) once chose a claim policy and must now be 0.
        cop::BinaryWriter tenant;
        ev::TenantAdd{1, cop::core::TenantConfig{}, "msm"}.encode(tenant);
        auto badPolicy = tenant.takeBuffer();
        badPolicy[sizeof(std::uint64_t) + sizeof(double)] = 9;
        writeSeed(dir, "log_bad_claim_policy", 0,
                  logRecord(std::uint8_t(WalRecordType::TenantAdd),
                            badPolicy));
        writeSeed(dir, "log_bad_requeue_reason", 0,
                  eventRecord(ev::Requeue{7, ev::RequeueReason(2)}));
        cop::BinaryWriter body;
        body.write(std::int32_t(4));     // worker
        body.write(std::int32_t(1));     // cores
        body.write(std::uint64_t(0));    // no executables
        body.write(360.0);               // lease deadline
        body.write(std::uint64_t(1000)); // ids declared ...
        body.write(std::uint64_t(7));    // ... one present
        writeSeed(dir, "log_claim_ids_past_end", 0,
                  logRecord(claim, body.buffer()));
    }

    // Zero length: the preallocated (never-written) tail of the log —
    // replay must stop cleanly there, not reject the log.
    std::vector<std::uint8_t> zeroLen(8, 0);
    writeSeed(dir, "log_zero_len_record", 0, zeroLen);

    // -- surface 1: the snapshot container -------------------------------
    const std::vector<std::uint8_t> state = {42, 43, 44, 45, 46};
    writeSeed(dir, "snapshot_wellformed", 1, snapshotImage(state));

    // Count mismatch: header claims more payload bytes than follow.
    auto shortSnap = snapshotImage(state);
    shortSnap.resize(shortSnap.size() - 2);
    writeSeed(dir, "snapshot_count_mismatch", 1, shortSnap);

    // Trailing garbage after the declared payload: also a mismatch.
    auto longSnap = snapshotImage(state);
    longSnap.push_back(0xEE);
    writeSeed(dir, "snapshot_trailing_garbage", 1, longSnap);

    auto snapBadCrc = snapshotImage(state);
    snapBadCrc.back() ^= 0x01;
    writeSeed(dir, "snapshot_bad_crc", 1, snapBadCrc);

    auto snapHuge = snapshotImage(state);
    const std::uint64_t huge = std::uint64_t(-1);
    std::memcpy(snapHuge.data() + 4, &huge, 8);
    writeSeed(dir, "snapshot_huge_len", 1, snapHuge);

    // -- surface 2: the blob codec ---------------------------------------
    std::vector<std::uint8_t> blob(512);
    for (std::size_t i = 0; i < blob.size(); ++i)
        blob[i] = std::uint8_t(i / 7);
    const auto frame = cop::util::encode(blob).frame;
    writeSeed(dir, "codec_wellformed", 2, frame);

    // Nested frame: a valid frame as the *payload* of an outer frame,
    // then the outer's rawSize corrupted — the decoder must bound its
    // work by the outer header, never recurse into or trust the inner.
    auto nested = cop::util::encode(frame).frame;
    nested[6] ^= 0x80; // corrupt outer rawSize
    writeSeed(dir, "codec_nested_frame", 2, nested);

    writeSeed(dir, "codec_truncated", 2,
              {frame.begin(), frame.begin() + long(frame.size() / 2)});

    auto frameTrailing = frame;
    frameTrailing.push_back(0x00);
    writeSeed(dir, "codec_trailing_garbage", 2, frameTrailing);

    auto frameHuge = frame;
    std::memcpy(frameHuge.data() + 6, &huge, 8);
    writeSeed(dir, "codec_huge_rawsize", 2, frameHuge);

    // -- surface 3: the scheduler snapshot content -----------------------
    const SchedulerImage image = schedulerImage();
    writeSeed(dir, "scheduler_wellformed", 3, image.bytes);

    // Two pending entries sharing one sequence number: one would vanish
    // from the index while still counted as pending.
    auto dupSeq = image.bytes;
    std::memcpy(dupSeq.data() + image.secondSeq,
                image.bytes.data() + image.firstSeq, 8);
    writeSeed(dir, "scheduler_duplicate_seq", 3, dupSeq);

    // A pending seq at nextSeq: the next live push would collide with it.
    auto seqOutOfRange = image.bytes;
    std::memcpy(seqOutOfRange.data() + image.firstSeq,
                image.bytes.data() + image.nextSeq, 8);
    writeSeed(dir, "scheduler_seq_out_of_range", 3, seqOutOfRange);

    // A NaN deficit would reach claim()'s double-to-int conversion.
    auto nanDeficit = image.bytes;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(nanDeficit.data() + image.deficit, &nan, 8);
    writeSeed(dir, "scheduler_nan_deficit", 3, nanDeficit);

    std::printf("wrote seed corpus to %s\n", dir.string().c_str());
    return 0;
}

int replayFile(const fs::path& file) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", file.string().c_str());
        return 1;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc >= 3 && std::string(argv[1]) == "--generate")
        return generateCorpus(argv[2]);
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <corpus-file-or-dir>...\n"
                     "       %s --generate <dir>\n",
                     argv[0], argv[0]);
        return 2;
    }
    std::size_t replayed = 0;
    for (int i = 1; i < argc; ++i) {
        const fs::path p(argv[i]);
        if (fs::is_directory(p)) {
            for (const auto& entry : fs::directory_iterator(p)) {
                if (!entry.is_regular_file()) continue;
                if (replayFile(entry.path()) != 0) return 1;
                ++replayed;
            }
        } else {
            if (replayFile(p) != 0) return 1;
            ++replayed;
        }
    }
    std::printf("replayed %zu corpus inputs clean\n", replayed);
    return replayed == 0 ? 1 : 0; // an empty corpus is a broken setup
}

#endif // !COP_FUZZ_LIBFUZZER
