// Table-driven malformed-envelope coverage: every framework payload type is
// encoded once, then attacked — truncation at every byte boundary, trailing
// garbage, hostile length prefixes, bad magic / version headers — and must
// fail with IoError (never bad_alloc, never a silent partial decode). Runs
// under plain ctest so the decode hardening does not depend on the fuzzer
// CI job; the committed fuzz corpus replays the same byte shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "core/copernicus.hpp"
#include "core/envelope.hpp"
#include "net/event_loop.hpp"
#include "net/overlay.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace cop::core::wire {
namespace {

struct WireCase {
    std::string name;
    net::MessageType type;
    std::vector<std::uint8_t> bytes;
};

CommandSpec sampleSpec() {
    CommandSpec c;
    c.id = 42;
    c.projectId = 7;
    c.projectServer = 3;
    c.executable = "mdrun";
    c.steps = 50000;
    c.preferredCores = 4;
    c.priority = 2;
    c.trajectoryId = 5;
    c.generation = 1;
    c.input = SharedBytes{1, 2, 3, 4};
    return c;
}

CommandResult sampleResult() {
    CommandResult r;
    r.commandId = 42;
    r.projectId = 7;
    r.trajectoryId = 5;
    r.generation = 1;
    r.success = true;
    r.error = "";
    r.output = {9, 8, 7};
    r.simSeconds = 1.5;
    return r;
}

/// One representative, non-trivial encoding per payload type (all vectors
/// non-empty so the truncation sweep crosses every field kind).
std::vector<WireCase> allPayloadCases() {
    std::vector<WireCase> cases;

    WorkloadRequestPayload req;
    req.worker = 9;
    req.platform = "linux-x86_64";
    req.cores = 8;
    req.executables = {"mdrun", "fe_sample"};
    req.visited = {1, 2, 3};
    cases.push_back({"WorkloadRequest", req.kType, encodeWhole(req)});

    WorkloadAssignPayload assign;
    assign.commands = {sampleSpec()};
    cases.push_back({"WorkloadAssign", assign.kType, encodeWhole(assign)});

    HeartbeatPayload hb;
    hb.worker = 9;
    hb.running = {42, 43};
    hb.projectServers = {3, 3};
    cases.push_back({"Heartbeat", hb.kType, encodeWhole(hb)});

    CheckpointPayload cp;
    cp.commandId = 42;
    cp.projectId = 7;
    cp.projectServer = 3;
    cp.blob = SharedBytes{5, 6, 7, 8, 9};
    cases.push_back({"Checkpoint", cp.kType, encodeWhole(cp)});

    WorkerFailedPayload wf;
    wf.worker = 9;
    wf.commands = {42, 43};
    wf.checkpoints = {SharedBytes{1, 2}, SharedBytes{}};
    cases.push_back({"WorkerFailed", wf.kType, encodeWhole(wf)});

    CommandOutputPayload out;
    out.result = sampleResult();
    out.projectServer = 3;
    cases.push_back({"CommandOutput", out.kType, encodeWhole(out)});

    NoWorkPayload nw;
    nw.worker = 9;
    cases.push_back({"NoWork", nw.kType, encodeWhole(nw)});

    ClientRequestPayload creq;
    creq.projectId = 7;
    creq.command = "status";
    cases.push_back({"ClientRequest", creq.kType, encodeWhole(creq)});

    ClientResponsePayload cresp;
    cresp.text = "9 commands pending";
    cases.push_back({"ClientResponse", cresp.kType, encodeWhole(cresp)});

    HeartbeatSummaryPayload hs;
    hs.edge = 4;
    hs.workers = {9, 10};
    hs.counts = {2, 1};
    hs.commands = {42, 43, 44};
    cases.push_back({"HeartbeatSummary", hs.kType, encodeWhole(hs)});

    AckPayload ack;
    ack.ackedMessageId = 1234;
    cases.push_back({"Ack", ack.kType, encodeWhole(ack)});

    BatchPayload batch;
    BatchEntry be;
    be.type = net::MessageType::Heartbeat;
    be.messageId = 77;
    be.requireAck = false;
    HeartbeatPayload bhb;
    bhb.worker = 9;
    bhb.running = {42};
    bhb.projectServers = {3};
    be.payload = encodeWhole(bhb);
    BatchEntry be2;
    be2.type = net::MessageType::Ack;
    be2.messageId = 78;
    be2.requireAck = false;
    be2.payload = encodeWhole(ack);
    batch.entries = {std::move(be), std::move(be2)};
    cases.push_back({"Batch", batch.kType, encodeWhole(batch)});

    return cases;
}

net::Message messageWith(net::MessageType type,
                         std::vector<std::uint8_t> payload) {
    net::Message msg;
    msg.type = type;
    msg.payload = std::move(payload);
    return msg;
}

TEST(WireMalformed, BaselineRoundTripDecodes) {
    for (const auto& c : allPayloadCases()) {
        SCOPED_TRACE(c.name);
        EXPECT_TRUE(decodePayload(messageWith(c.type, c.bytes)).has_value());
        EXPECT_FALSE(c.bytes.empty());
    }
}

TEST(WireMalformed, TruncatedAtEveryByteBoundaryIsRejected) {
    for (const auto& c : allPayloadCases()) {
        for (std::size_t cut = 0; cut < c.bytes.size(); ++cut) {
            SCOPED_TRACE(c.name + " truncated to " + std::to_string(cut) +
                         "/" + std::to_string(c.bytes.size()) + " bytes");
            std::vector<std::uint8_t> prefix(c.bytes.begin(),
                                             c.bytes.begin() + long(cut));
            EXPECT_FALSE(
                decodePayload(messageWith(c.type, std::move(prefix))));
        }
    }
}

TEST(WireMalformed, TrailingBytesAreRejected) {
    for (const auto& c : allPayloadCases()) {
        for (std::size_t extra : {std::size_t(1), std::size_t(8)}) {
            SCOPED_TRACE(c.name + " +" + std::to_string(extra) + " bytes");
            std::vector<std::uint8_t> padded = c.bytes;
            padded.insert(padded.end(), extra, 0x00);
            EXPECT_FALSE(
                decodePayload(messageWith(c.type, std::move(padded))));
        }
    }
}

// A corrupt 64-bit length prefix must be rejected *before* any allocation
// is attempted: IoError, never std::bad_alloc / std::length_error, and no
// multi-GiB reserve() along the way.
TEST(WireMalformed, HugeLengthPrefixThrowsIoErrorBeforeAllocating) {
    const std::uint64_t hostile[] = {
        std::uint64_t(-1),           // 2^64 - 1
        std::uint64_t(1) << 63,      // huge power of two
        (std::uint64_t(1) << 61) + 1 // n * 8 would wrap 64-bit arithmetic
    };
    for (const std::uint64_t n : hostile) {
        SCOPED_TRACE("n = " + std::to_string(n));
        BinaryWriter w;
        w.write(n);
        w.write(std::uint64_t(0xDEADBEEF)); // a few real bytes after it

        EXPECT_THROW(
            { BinaryReader(w.buffer()).readVector<double>(); }, IoError);
        EXPECT_THROW({ BinaryReader(w.buffer()).readVec3Vector(); }, IoError);
        EXPECT_THROW({ BinaryReader(w.buffer()).readString(); }, IoError);
        EXPECT_THROW({ BinaryReader(w.buffer()).readBytes(); }, IoError);
    }
}

TEST(WireMalformed, HugeElementCountInsidePayloadIsRejected) {
    // Corrupt the `running` count inside an otherwise valid heartbeat.
    HeartbeatPayload hb;
    hb.worker = 9;
    hb.running = {42};
    hb.projectServers = {3};
    std::vector<std::uint8_t> bytes = encodeWhole(hb);
    const std::uint64_t huge = std::uint64_t(-1);
    std::memcpy(bytes.data() + 4, &huge, sizeof(huge)); // after i32 worker
    EXPECT_THROW(decodeWhole<HeartbeatPayload>(bytes), IoError);
    EXPECT_FALSE(decodePayload(
        messageWith(net::MessageType::Heartbeat, std::move(bytes))));
}

// --- HeartbeatSummary digests ----------------------------------------------

TEST(WireMalformed, HeartbeatSummaryRoundTripsFieldForField) {
    HeartbeatSummaryPayload hs;
    hs.edge = 4;
    hs.workers = {9, 10, 11};
    hs.counts = {1, 0, 2};
    hs.commands = {42, 43, 44};
    const auto bytes = encodeWhole(hs);
    // edge, then three length-prefixed arrays: 4 + (8 + 12) + (8 + 12) +
    // (8 + 24).
    EXPECT_EQ(bytes.size(), 76u);
    const auto back = decodeWhole<HeartbeatSummaryPayload>(bytes);
    EXPECT_EQ(back.edge, hs.edge);
    EXPECT_EQ(back.workers, hs.workers);
    EXPECT_EQ(back.counts, hs.counts);
    EXPECT_EQ(back.commands, hs.commands);
}

TEST(WireMalformed, HeartbeatSummaryRejectsWorkerCountMismatch) {
    // Two workers but only one group count: the per-worker grouping no
    // longer tiles, so the digest must be rejected, not mis-attributed.
    BinaryWriter w;
    w.write(std::int32_t(4));    // edge
    w.write(std::uint64_t(2));   // 2 workers
    w.write(std::int32_t(9));
    w.write(std::int32_t(10));
    w.write(std::uint64_t(1));   // ...but 1 count
    w.write(std::uint32_t(1));
    w.write(std::uint64_t(1));   // 1 command
    w.write(std::uint64_t(42));
    EXPECT_THROW(decodeWhole<HeartbeatSummaryPayload>(w.buffer()), IoError);
    EXPECT_FALSE(decodePayload(messageWith(
        net::MessageType::HeartbeatSummary,
        {w.buffer().begin(), w.buffer().end()})));
}

TEST(WireMalformed, HeartbeatSummaryRejectsCountsNotTilingCommands) {
    BinaryWriter w;
    w.write(std::int32_t(4));    // edge
    w.write(std::uint64_t(1));   // 1 worker
    w.write(std::int32_t(9));
    w.write(std::uint64_t(1));   // 1 count...
    w.write(std::uint32_t(3));   // ...claiming 3 commands
    w.write(std::uint64_t(2));   // but only 2 present
    w.write(std::uint64_t(42));
    w.write(std::uint64_t(43));
    EXPECT_THROW(decodeWhole<HeartbeatSummaryPayload>(w.buffer()), IoError);
}

// --- Retry-after hints -----------------------------------------------------

// Both retry-after carriers put the double last on the wire; a hostile
// negative or NaN value must be rejected at decode (a NaN would otherwise
// poison every backoff comparison downstream).
TEST(WireMalformed, RetryAfterRejectsNegativeAndNan) {
    const double hostile[] = {-1.0, -1e300,
                              std::numeric_limits<double>::quiet_NaN()};
    for (const double bad : hostile) {
        SCOPED_TRACE("retryAfter = " + std::to_string(bad));

        NoWorkPayload nw;
        nw.worker = 9;
        nw.retryAfterSeconds = 15.0;
        auto nwBytes = encodeWhole(nw);
        std::memcpy(nwBytes.data() + nwBytes.size() - 8, &bad, 8);
        EXPECT_THROW(decodeWhole<NoWorkPayload>(nwBytes), IoError);

        ClientResponsePayload cr;
        cr.text = "busy";
        cr.accepted = false;
        cr.retryAfterSeconds = 30.0;
        auto crBytes = encodeWhole(cr);
        std::memcpy(crBytes.data() + crBytes.size() - 8, &bad, 8);
        EXPECT_THROW(decodeWhole<ClientResponsePayload>(crBytes), IoError);
    }
}

TEST(WireMalformed, RetryAfterRoundTripsThroughNoWorkAndClientResponse) {
    NoWorkPayload nw;
    nw.worker = 9;
    nw.retryAfterSeconds = 12.5;
    const auto nwBack = decodeWhole<NoWorkPayload>(encodeWhole(nw));
    EXPECT_EQ(nwBack.worker, 9);
    EXPECT_DOUBLE_EQ(nwBack.retryAfterSeconds, 12.5);

    ClientResponsePayload cr;
    cr.text = "busy: over quota";
    cr.accepted = false;
    cr.retryAfterSeconds = 30.0;
    const auto crBack = decodeWhole<ClientResponsePayload>(encodeWhole(cr));
    EXPECT_EQ(crBack.text, cr.text);
    EXPECT_FALSE(crBack.accepted);
    EXPECT_DOUBLE_EQ(crBack.retryAfterSeconds, 30.0);
}

TEST(WireMalformed, BadMagicAndTruncatedHeaderAreRejected) {
    BinaryWriter w;
    w.writeHeader("COPS", 3);
    EXPECT_THROW(
        { BinaryReader(w.buffer()).readHeader("COPX"); }, IoError);

    // Correct magic: the version comes back verbatim for the caller's
    // format-version gate (the pattern every file format here uses).
    EXPECT_EQ(BinaryReader(w.buffer()).readHeader("COPS"), 3u);

    std::vector<std::uint8_t> truncated(w.buffer().begin(),
                                        w.buffer().begin() + 2);
    EXPECT_THROW({ BinaryReader(truncated).readHeader("COPS"); }, IoError);
}

// --- Batch framing ---------------------------------------------------------

TEST(WireMalformed, BatchRoundTripsEmptySingleAndLarge) {
    // Empty batch: legal on the wire (an endpoint never sends one, but the
    // decoder must not choke on it).
    BatchPayload empty;
    const auto emptyBytes = encodeWhole(empty);
    EXPECT_EQ(emptyBytes.size(), 8u); // the entry count alone
    EXPECT_TRUE(decodeWhole<BatchPayload>(emptyBytes).entries.empty());

    // Single and many entries round-trip field-for-field.
    for (std::size_t n : {std::size_t(1), std::size_t(64)}) {
        BatchPayload batch;
        std::size_t wireSize = 8; // entry count
        for (std::size_t i = 0; i < n; ++i) {
            BatchEntry e;
            e.type = i % 2 == 0 ? net::MessageType::Heartbeat
                                : net::MessageType::Ack;
            e.messageId = 1000 + i;
            e.requireAck = i % 3 == 0;
            e.payload.assign(i % 7 + 1, std::uint8_t(i));
            // type + id + ack flag + length prefix, then the payload.
            wireSize += 18 + e.payload.size();
            batch.entries.push_back(std::move(e));
        }
        const auto bytes = encodeWhole(batch);
        EXPECT_EQ(bytes.size(), wireSize);
        const auto back = decodeWhole<BatchPayload>(bytes);
        ASSERT_EQ(back.entries.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(back.entries[i].type, batch.entries[i].type);
            EXPECT_EQ(back.entries[i].messageId, batch.entries[i].messageId);
            EXPECT_EQ(back.entries[i].requireAck, batch.entries[i].requireAck);
            EXPECT_EQ(back.entries[i].payload, batch.entries[i].payload);
        }
    }
}

TEST(WireMalformed, BatchRejectsNestedBatchEntries) {
    // A batch carrying a Batch sub-envelope could recurse on receive;
    // the decoder refuses it outright.
    BatchPayload inner;
    BatchPayload outer;
    BatchEntry e;
    e.type = net::MessageType::Batch;
    e.messageId = 5;
    e.payload = encodeWhole(inner);
    outer.entries.push_back(std::move(e));
    const auto bytes = encodeWhole(outer);
    EXPECT_THROW(decodeWhole<BatchPayload>(bytes), IoError);
    EXPECT_FALSE(
        decodePayload(messageWith(net::MessageType::Batch, bytes)));
}

/// Wire tags no MessageType carries: 0, 5, 8 and 13 belonged to removed
/// types, 0xEE never existed.
constexpr std::uint8_t kUnknownTags[] = {0, 5, 8, 13, 0xEE};

/// A payload that decoded under `tag` while it had a type: 0 aliased
/// WorkloadRequest, 5 and 8 CommandOutput, and 13 (LeaseRenew) carried a
/// worker id and its command ids.
std::vector<std::uint8_t> payloadOnceValidUnder(std::uint8_t tag) {
    const auto cases = allPayloadCases();
    const auto bytesOf = [&](const std::string& name) {
        return std::find_if(cases.begin(), cases.end(),
                            [&](const WireCase& c) { return c.name == name; })
            ->bytes;
    };
    switch (tag) {
    case 0: return bytesOf("WorkloadRequest");
    case 5:
    case 8: return bytesOf("CommandOutput");
    case 13: {
        BinaryWriter w;
        w.write(std::int32_t(9));
        w.write(std::uint64_t(2));
        w.write(std::uint64_t(42));
        w.write(std::uint64_t(43));
        return w.takeBuffer();
    }
    default: return bytesOf("Heartbeat");
    }
}

TEST(WireMalformed, BatchRejectsUnknownEntryTypeTag) {
    BatchPayload batch;
    BatchEntry e;
    e.type = net::MessageType::Heartbeat;
    e.messageId = 5;
    e.payload = {1, 2, 3};
    batch.entries.push_back(std::move(e));
    for (const std::uint8_t tag : kUnknownTags) {
        SCOPED_TRACE("tag " + std::to_string(tag));
        auto bytes = encodeWhole(batch);
        bytes[8] = tag; // the entry's type tag, just past the u64 count
        EXPECT_THROW(decodeWhole<BatchPayload>(bytes), IoError);
    }
}

TEST(WireMalformed, BatchHostileEntryCountIsRejectedBeforeAllocating) {
    // An empty batch whose count field claims 2^64-1 entries: must throw
    // IoError from the count validation, not attempt the allocation.
    BatchPayload batch;
    auto bytes = encodeWhole(batch);
    const std::uint64_t huge = std::uint64_t(-1);
    std::memcpy(bytes.data(), &huge, sizeof(huge));
    EXPECT_THROW(decodeWhole<BatchPayload>(bytes), IoError);
    EXPECT_FALSE(decodePayload(
        messageWith(net::MessageType::Batch, std::move(bytes))));
}

TEST(WireMalformed, EndpointCountsMalformedDropsAndDeliversNothing) {
    net::EventLoop loop;
    net::OverlayNetwork net{loop};
    net::Node a(net, "a", net::KeyPair::generate(1));
    net::Node b(net, "b", net::KeyPair::generate(2));
    a.trust(b.publicKey());
    b.trust(a.publicKey());
    net.connect(a.id(), b.id(), {});

    Endpoint ep(net, b);
    int delivered = 0;
    ep.onEnvelope([&](const Envelope&, const net::Message&) { ++delivered; });

    auto sendRawTo = [&](std::vector<std::uint8_t> payload,
                         net::MessageType type = net::MessageType::Heartbeat) {
        net::Message msg;
        msg.type = type;
        msg.source = a.id();
        msg.destination = b.id();
        msg.id = net.nextMessageId();
        msg.payload = std::move(payload);
        net.send(std::move(msg));
        loop.run();
    };

    HeartbeatPayload hb;
    hb.worker = 9;
    hb.running = {42};
    hb.projectServers = {3};

    sendRawTo({0xAB});                      // garbage
    EXPECT_EQ(ep.stats().malformedDropped, 1u);
    EXPECT_EQ(delivered, 0);

    auto padded = encodeWhole(hb);
    padded.push_back(0x00);                 // valid payload + trailing byte
    sendRawTo(std::move(padded));
    EXPECT_EQ(ep.stats().malformedDropped, 2u);
    EXPECT_EQ(delivered, 0);

    sendRawTo(encodeWhole(hb));             // well-formed still delivers
    EXPECT_EQ(ep.stats().malformedDropped, 2u);
    EXPECT_EQ(delivered, 1);

    // A tag no type carries is malformed whatever its payload, alone or
    // as a batch entry (which drops the whole frame).
    std::uint64_t dropped = 2;
    for (const std::uint8_t tag : kUnknownTags) {
        SCOPED_TRACE("tag " + std::to_string(tag));
        const auto type = net::MessageType(tag);
        sendRawTo(payloadOnceValidUnder(tag), type);
        EXPECT_EQ(ep.stats().malformedDropped, ++dropped);

        BatchPayload batch;
        batch.entries.push_back(BatchEntry{type, std::uint64_t(1000 + tag),
                                           false, payloadOnceValidUnder(tag)});
        sendRawTo(encodeWhole(batch), net::MessageType::Batch);
        EXPECT_EQ(ep.stats().malformedDropped, ++dropped);
    }
    EXPECT_EQ(delivered, 1);
}

TEST(WireMalformed, RelayToUnregisteredProjectServerDeadLetters) {
    // A well-formed CommandOutput for a project this server does not host
    // is relayed to the project server the payload names. The name comes
    // off the wire: ids that are not registered nodes must dead-letter at
    // the overlay (NoRoute), not crash or throw in the relaying server.
    Deployment dep(5);
    auto& server = dep.addServer("s0");
    net::Node rogue(dep.network(), "rogue", net::KeyPair::generate(77));
    rogue.trust(server.node().publicKey());
    server.node().trust(rogue.publicKey());
    dep.network().connect(rogue.id(), server.id(), {});
    Endpoint ep(dep.network(), rogue);

    std::vector<net::NodeId> deadDestinations;
    dep.network().setDeadLetterHandler(
        [&](const net::Message& msg, net::DeadLetterReason reason) {
            EXPECT_EQ(reason, net::DeadLetterReason::NoRoute);
            deadDestinations.push_back(msg.destination);
        });
    for (net::NodeId hostile : {net::NodeId(999), net::NodeId(-5)}) {
        CommandOutputPayload out;
        out.result = sampleResult();
        out.result.projectId = 12345; // not hosted anywhere
        out.projectServer = hostile;
        ep.send(server.id(), out);
    }
    EXPECT_NO_THROW(dep.loop().runUntil(600.0));
    EXPECT_NE(std::find(deadDestinations.begin(), deadDestinations.end(), 999),
              deadDestinations.end());
    EXPECT_NE(std::find(deadDestinations.begin(), deadDestinations.end(), -5),
              deadDestinations.end());
    for (net::NodeId d : deadDestinations) EXPECT_TRUE(d == 999 || d == -5);
    EXPECT_EQ(server.stats().commandsCompleted, 0u);
}

} // namespace
} // namespace cop::core::wire
