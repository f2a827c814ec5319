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
    cases.push_back({"WorkloadRequest", req.kType, req.encode()});

    WorkloadAssignPayload assign;
    assign.commands = {sampleSpec()};
    cases.push_back({"WorkloadAssign", assign.kType, assign.encode()});

    HeartbeatPayload hb;
    hb.worker = 9;
    hb.running = {42, 43};
    hb.projectServers = {3, 3};
    cases.push_back({"Heartbeat", hb.kType, hb.encode()});

    CheckpointPayload cp;
    cp.commandId = 42;
    cp.projectId = 7;
    cp.projectServer = 3;
    cp.blob = SharedBytes{5, 6, 7, 8, 9};
    cases.push_back({"Checkpoint", cp.kType, cp.encode()});

    WorkerFailedPayload wf;
    wf.worker = 9;
    wf.commands = {42, 43};
    wf.checkpoints = {SharedBytes{1, 2}, SharedBytes{}};
    cases.push_back({"WorkerFailed", wf.kType, wf.encode()});

    CommandOutputPayload out;
    out.result = sampleResult();
    out.projectServer = 3;
    cases.push_back({"CommandOutput", out.kType, out.encode()});

    LeaseRenewPayload lr;
    lr.worker = 9;
    lr.commands = {42, 43, 44};
    cases.push_back({"LeaseRenew", lr.kType, lr.encode()});

    NoWorkPayload nw;
    nw.worker = 9;
    cases.push_back({"NoWork", nw.kType, nw.encode()});

    ClientRequestPayload creq;
    creq.projectId = 7;
    creq.command = "status";
    cases.push_back({"ClientRequest", creq.kType, creq.encode()});

    ClientResponsePayload cresp;
    cresp.text = "9 commands pending";
    cases.push_back({"ClientResponse", cresp.kType, cresp.encode()});

    HeartbeatSummaryPayload hs;
    hs.edge = 4;
    hs.workers = {9, 10};
    hs.counts = {2, 1};
    hs.commands = {42, 43, 44};
    cases.push_back({"HeartbeatSummary", hs.kType, hs.encode()});

    AckPayload ack;
    ack.ackedMessageId = 1234;
    cases.push_back({"Ack", ack.kType, ack.encode()});

    BatchPayload batch;
    BatchEntry be;
    be.type = net::MessageType::Heartbeat;
    be.messageId = 77;
    be.requireAck = false;
    HeartbeatPayload bhb;
    bhb.worker = 9;
    bhb.running = {42};
    bhb.projectServers = {3};
    be.payload = bhb.encode();
    BatchEntry be2;
    be2.type = net::MessageType::Ack;
    be2.messageId = 78;
    be2.requireAck = false;
    be2.payload = ack.encode();
    batch.entries = {std::move(be), std::move(be2)};
    cases.push_back({"Batch", batch.kType, batch.encode()});

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
    std::vector<std::uint8_t> bytes = hb.encode();
    const std::uint64_t huge = std::uint64_t(-1);
    std::memcpy(bytes.data() + 4, &huge, sizeof(huge)); // after i32 worker
    EXPECT_THROW(HeartbeatPayload::decode(bytes), IoError);
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
    const auto bytes = hs.encode();
    EXPECT_EQ(bytes.size(), hs.encodedSize());
    const auto back = HeartbeatSummaryPayload::decode(bytes);
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
    EXPECT_THROW(HeartbeatSummaryPayload::decode(w.buffer()), IoError);
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
    EXPECT_THROW(HeartbeatSummaryPayload::decode(w.buffer()), IoError);
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
        auto nwBytes = nw.encode();
        std::memcpy(nwBytes.data() + nwBytes.size() - 8, &bad, 8);
        EXPECT_THROW(NoWorkPayload::decode(nwBytes), IoError);

        ClientResponsePayload cr;
        cr.text = "busy";
        cr.accepted = false;
        cr.retryAfterSeconds = 30.0;
        auto crBytes = cr.encode();
        std::memcpy(crBytes.data() + crBytes.size() - 8, &bad, 8);
        EXPECT_THROW(ClientResponsePayload::decode(crBytes), IoError);
    }
}

TEST(WireMalformed, RetryAfterRoundTripsThroughNoWorkAndClientResponse) {
    NoWorkPayload nw;
    nw.worker = 9;
    nw.retryAfterSeconds = 12.5;
    const auto nwBack = NoWorkPayload::decode(nw.encode());
    EXPECT_EQ(nwBack.worker, 9);
    EXPECT_DOUBLE_EQ(nwBack.retryAfterSeconds, 12.5);

    ClientResponsePayload cr;
    cr.text = "busy: over quota";
    cr.accepted = false;
    cr.retryAfterSeconds = 30.0;
    const auto crBack = ClientResponsePayload::decode(cr.encode());
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
    const auto emptyBytes = empty.encode();
    EXPECT_EQ(emptyBytes.size(), empty.encodedSize());
    EXPECT_TRUE(BatchPayload::decode(emptyBytes).entries.empty());

    // Single and many entries round-trip field-for-field.
    for (std::size_t n : {std::size_t(1), std::size_t(64)}) {
        BatchPayload batch;
        for (std::size_t i = 0; i < n; ++i) {
            BatchEntry e;
            e.type = i % 2 == 0 ? net::MessageType::Heartbeat
                                : net::MessageType::Ack;
            e.messageId = 1000 + i;
            e.requireAck = i % 3 == 0;
            e.payload.assign(i % 7 + 1, std::uint8_t(i));
            batch.entries.push_back(std::move(e));
        }
        const auto bytes = batch.encode();
        EXPECT_EQ(bytes.size(), batch.encodedSize());
        const auto back = BatchPayload::decode(bytes);
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
    e.payload = inner.encode();
    outer.entries.push_back(std::move(e));
    const auto bytes = outer.encode();
    EXPECT_THROW(BatchPayload::decode(bytes), IoError);
    EXPECT_FALSE(
        decodePayload(messageWith(net::MessageType::Batch, bytes)));
}

TEST(WireMalformed, BatchRejectsUnknownEntryTypeTag) {
    BatchPayload batch;
    BatchEntry e;
    e.type = net::MessageType::Heartbeat;
    e.messageId = 5;
    e.payload = {1, 2, 3};
    batch.entries.push_back(std::move(e));
    auto bytes = batch.encode();
    bytes[8] = 0xEE; // the entry's type tag, just past the u64 count
    EXPECT_THROW(BatchPayload::decode(bytes), IoError);
}

TEST(WireMalformed, BatchHostileEntryCountIsRejectedBeforeAllocating) {
    // An empty batch whose count field claims 2^64-1 entries: must throw
    // IoError from the count validation, not attempt the allocation.
    BatchPayload batch;
    auto bytes = batch.encode();
    const std::uint64_t huge = std::uint64_t(-1);
    std::memcpy(bytes.data(), &huge, sizeof(huge));
    EXPECT_THROW(BatchPayload::decode(bytes), IoError);
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

    auto sendRawTo = [&](std::vector<std::uint8_t> payload) {
        net::Message msg;
        msg.type = net::MessageType::Heartbeat;
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

    auto padded = hb.encode();
    padded.push_back(0x00);                 // valid payload + trailing byte
    sendRawTo(std::move(padded));
    EXPECT_EQ(ep.stats().malformedDropped, 2u);
    EXPECT_EQ(delivered, 0);

    sendRawTo(hb.encode());                 // well-formed still delivers
    EXPECT_EQ(ep.stats().malformedDropped, 2u);
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
