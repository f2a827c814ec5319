/// \file envelope_fuzz.cpp
/// Fuzz harness over the untrusted-bytes surface: core::wire payload
/// decoding (everything reachable through wire::decodePayload) and the
/// util::BinaryReader primitives themselves.
///
/// Input format: byte 0 is the claimed net::MessageType tag, unknown and
/// retired tags included; the remaining bytes are the payload handed to
/// the decoder exactly as a hostile peer could. The harness treats
/// cop::Error (IoError on truncation/corruption) as the *expected* outcome
/// for malformed input; anything else — std::bad_alloc from a hostile
/// length prefix, std::length_error, UB caught by ASan/UBSan, a crash — is
/// a finding.
///
/// Three build/run modes (see fuzz/CMakeLists.txt and tools/run_fuzz.sh):
///  - clang + -fsanitize=fuzzer (COP_FUZZ_LIBFUZZER): libFuzzer explores;
///  - any compiler, no libFuzzer: `envelope_fuzz <files-or-dirs>` replays
///    a corpus deterministically (this is the plain-ctest smoke mode);
///  - `envelope_fuzz --generate <dir>` writes the seed corpus: one
///    well-formed envelope per payload type straight from its serializer,
///    plus hand-picked malformed shapes (truncated, trailing bytes,
///    hostile length prefixes).

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/envelope.hpp"
#include "core/wire.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace {

void drainReaderPrimitives(std::span<const std::uint8_t> bytes) {
    using cop::BinaryReader;
    // Each primitive gets a fresh reader: a throw from one must not mask
    // an allocation bug in another.
    try {
        BinaryReader(bytes).readString();
    } catch (const cop::Error&) {
    }
    try {
        BinaryReader(bytes).readBytes();
    } catch (const cop::Error&) {
    }
    try {
        BinaryReader(bytes).readVector<double>();
    } catch (const cop::Error&) {
    }
    try {
        BinaryReader(bytes).readVector<std::uint64_t>();
    } catch (const cop::Error&) {
    }
    try {
        BinaryReader(bytes).readVec3Vector();
    } catch (const cop::Error&) {
    }
    try {
        BinaryReader r(bytes);
        r.readHeader("COPS");
    } catch (const cop::Error&) {
    }
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    if (size < 1) return 0;
    cop::net::Message msg;
    msg.type = static_cast<cop::net::MessageType>(data[0]);
    msg.payload.assign(data + 1, data + size);

    // Must never throw (returns nullopt on malformed), never allocate
    // proportionally to a hostile length prefix, never read out of bounds.
    (void)cop::core::wire::decodePayload(msg);

    drainReaderPrimitives(msg.payload);
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
using cop::core::SharedBytes;
using namespace cop::core;

void writeSeed(const fs::path& dir, const std::string& name,
               cop::net::MessageType type,
               const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> bytes;
    bytes.push_back(std::uint8_t(type));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              std::streamsize(bytes.size()));
}

/// One well-formed seed per payload type, produced by the payload's own
/// serializer so the corpus tracks the wire format by construction.
int generateCorpus(const fs::path& dir) {
    fs::create_directories(dir);

    WorkloadRequestPayload req;
    req.worker = 9;
    req.platform = "linux-x86_64";
    req.cores = 8;
    req.executables = {"mdrun", "fe_sample"};
    req.visited = {1, 2, 3};
    writeSeed(dir, "workload_request", req.kType, req.encode());

    CommandSpec spec;
    spec.id = 42;
    spec.projectId = 7;
    spec.projectServer = 3;
    spec.executable = "mdrun";
    spec.steps = 50000;
    spec.preferredCores = 4;
    spec.priority = 2;
    spec.trajectoryId = 5;
    spec.generation = 1;
    spec.input = SharedBytes{1, 2, 3, 4};
    WorkloadAssignPayload assign;
    assign.commands = {spec};
    writeSeed(dir, "workload_assign", assign.kType, assign.encode());

    HeartbeatPayload hb;
    hb.worker = 9;
    hb.running = {42, 43};
    hb.projectServers = {3, 3};
    writeSeed(dir, "heartbeat", hb.kType, hb.encode());

    CheckpointPayload cp;
    cp.commandId = 42;
    cp.projectId = 7;
    cp.projectServer = 3;
    cp.blob = SharedBytes{5, 6, 7, 8, 9};
    writeSeed(dir, "checkpoint", cp.kType, cp.encode());

    WorkerFailedPayload wf;
    wf.worker = 9;
    wf.commands = {42, 43};
    wf.checkpoints = {SharedBytes{1, 2}, SharedBytes{}};
    writeSeed(dir, "worker_failed", wf.kType, wf.encode());

    CommandResult result;
    result.commandId = 42;
    result.projectId = 7;
    result.trajectoryId = 5;
    result.generation = 1;
    result.success = true;
    result.output = {9, 8, 7};
    result.simSeconds = 1.5;
    CommandOutputPayload out;
    out.result = result;
    out.projectServer = 3;
    writeSeed(dir, "command_output", out.kType, out.encode());

    // A worker's renewal list under tag 13, the retired LeaseRenew type:
    // well-formed bytes under a tag no decoder accepts any more.
    {
        cop::BinaryWriter w;
        w.write(std::int32_t(9));
        w.write(std::uint64_t(3));
        for (std::uint64_t id : {42, 43, 44}) w.write(id);
        writeSeed(dir, "lease_renew", cop::net::MessageType(13),
                  w.takeBuffer());
    }

    HeartbeatSummaryPayload hs;
    hs.edge = 4;
    hs.workers = {9, 10};
    hs.counts = {2, 1};
    hs.commands = {42, 43, 44};
    writeSeed(dir, "heartbeat_summary", hs.kType, hs.encode());

    // Hostile summary shapes: the per-worker counts must stay parallel
    // to the worker list and tile the flattened command list exactly.
    {
        cop::BinaryWriter w;
        w.write(std::int32_t(4));
        w.write(std::uint64_t(2)); // two workers...
        w.write(std::int32_t(9));
        w.write(std::int32_t(10));
        w.write(std::uint64_t(1)); // ...but one count
        w.write(std::uint32_t(1));
        w.write(std::uint64_t(1));
        w.write(std::uint64_t(42));
        writeSeed(dir, "summary_count_mismatch", hs.kType, w.takeBuffer());
    }
    {
        cop::BinaryWriter w;
        w.write(std::int32_t(4));
        w.write(std::uint64_t(1));
        w.write(std::int32_t(9));
        w.write(std::uint64_t(1));
        w.write(std::uint32_t(3)); // claims three commands...
        w.write(std::uint64_t(2)); // ...two present
        w.write(std::uint64_t(42));
        w.write(std::uint64_t(43));
        writeSeed(dir, "summary_tiling_mismatch", hs.kType, w.takeBuffer());
    }

    NoWorkPayload nw;
    nw.worker = 9;
    writeSeed(dir, "no_work", nw.kType, nw.encode());

    ClientRequestPayload creq;
    creq.projectId = 7;
    creq.command = "status";
    writeSeed(dir, "client_request", creq.kType, creq.encode());

    ClientResponsePayload cresp;
    cresp.text = "9 commands pending";
    writeSeed(dir, "client_response", cresp.kType, cresp.encode());

    AckPayload ack;
    ack.ackedMessageId = 1234;
    writeSeed(dir, "ack", ack.kType, ack.encode());

    // A mixed coalesced frame: data + piggybacked ack, the shape the
    // batching endpoint actually emits.
    BatchPayload batch;
    BatchEntry be1;
    be1.type = hb.kType;
    be1.messageId = 77;
    be1.requireAck = true;
    be1.payload = hb.encode();
    BatchEntry be2;
    be2.type = ack.kType;
    be2.messageId = 78;
    be2.payload = ack.encode();
    batch.entries = {be1, be2};
    writeSeed(dir, "batch_mixed", batch.kType, batch.encode());

    // Malformed shapes the decode hardening must keep rejecting.
    auto hbBytes = hb.encode();
    writeSeed(dir, "malformed_truncated", hb.kType,
              {hbBytes.begin(), hbBytes.begin() + long(hbBytes.size() / 2)});
    auto trailing = hbBytes;
    trailing.push_back(0x00);
    writeSeed(dir, "malformed_trailing", hb.kType, trailing);
    auto hostile = hbBytes;
    const std::uint64_t huge = std::uint64_t(-1);
    std::memcpy(hostile.data() + 4, &huge, sizeof(huge));
    writeSeed(dir, "malformed_huge_count", hb.kType, hostile);
    writeSeed(dir, "malformed_empty_payload", hb.kType, {});

    // Batch-specific hostile shapes: a recursion bomb (batch-in-batch),
    // an entry count claiming 2^64-1 sub-envelopes, and trailing garbage
    // after a well-formed batch.
    auto nested = batch;
    nested.entries[0].type = batch.kType;
    nested.entries[0].payload = batch.encode();
    writeSeed(dir, "batch_malformed_nested", batch.kType, nested.encode());
    auto batchBytes = batch.encode();
    auto batchHostile = batchBytes;
    std::memcpy(batchHostile.data(), &huge, sizeof(huge));
    writeSeed(dir, "batch_malformed_huge_count", batch.kType, batchHostile);
    auto batchTrailing = batchBytes;
    batchTrailing.push_back(0xEE);
    writeSeed(dir, "batch_malformed_trailing", batch.kType, batchTrailing);

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
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
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
