// CommandQueue and wire-format tests.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "core/executable.hpp"
#include "core/queue.hpp"
#include "core/wire.hpp"
#include "util/random.hpp"

namespace cop::core {
namespace {

namespace fs = std::filesystem;

CommandSpec makeCmd(CommandId id, const std::string& exe = "mdrun",
                    int cores = 1) {
    CommandSpec c;
    c.id = id;
    c.projectId = 1;
    c.executable = exe;
    c.steps = 100;
    c.preferredCores = cores;
    return c;
}

TEST(CommandQueue, ClaimRespectsExecutableAndCores) {
    SegmentStore store;
    CommandQueue q{store};
    q.push(makeCmd(1, "mdrun", 2));
    q.push(makeCmd(2, "fe_sample", 1));
    q.push(makeCmd(3, "mdrun", 2));

    const auto claimed = q.claim({"mdrun"}, 3, /*worker=*/7);
    ASSERT_EQ(claimed.size(), 1u); // second mdrun needs 2 cores, only 1 left
    EXPECT_EQ(claimed[0].id, 1u);
    EXPECT_EQ(q.pendingCount(), 2u);
    EXPECT_EQ(q.inFlightCount(), 1u);
    EXPECT_EQ(q.holderOf(1).value(), 7);
}

TEST(CommandQueue, ClaimSkipsUnknownExecutables) {
    SegmentStore store;
    CommandQueue q{store};
    q.push(makeCmd(1, "exotic"));
    EXPECT_TRUE(q.claim({"mdrun"}, 8, 1).empty());
    EXPECT_TRUE(q.hasWorkFor({"exotic"}));
    EXPECT_FALSE(q.hasWorkFor({"mdrun"}));
}

TEST(CommandQueue, CompleteRemovesInFlight) {
    SegmentStore store;
    CommandQueue q{store};
    q.push(makeCmd(5));
    q.claim({"mdrun"}, 1, 2);
    const auto spec = q.complete(5);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->id, 5u);
    EXPECT_FALSE(q.complete(5).has_value());
    EXPECT_EQ(q.inFlightCount(), 0u);
}

TEST(CommandQueue, RequeueWorkerRestoresPending) {
    SegmentStore store;
    CommandQueue q{store};
    q.push(makeCmd(1));
    q.push(makeCmd(2));
    q.claim({"mdrun"}, 2, 9);
    EXPECT_EQ(q.pendingCount(), 0u);
    const auto requeued = q.requeueWorker(9);
    EXPECT_EQ(requeued.size(), 2u);
    EXPECT_EQ(q.pendingCount(), 2u);
    EXPECT_EQ(q.inFlightCount(), 0u);
    // Untouched worker: no-op.
    EXPECT_TRUE(q.requeueWorker(10).empty());
}

TEST(CommandQueue, UpdateCheckpointFeedsRequeue) {
    SegmentStore store;
    CommandQueue q{store};
    q.push(makeCmd(1));
    q.claim({"mdrun"}, 1, 3);
    q.updateCheckpoint(1, SharedBytes{0xAB, 0xCD});
    q.requeueWorker(3);
    const auto again = q.claim({"mdrun"}, 1, 4);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].input, (std::vector<std::uint8_t>{0xAB, 0xCD}));
}

TEST(CommandQueue, RejectsInvalidCommands) {
    SegmentStore store;
    CommandQueue q{store};
    EXPECT_THROW(q.push(CommandSpec{}), cop::InvalidArgument);
    auto bad = makeCmd(1);
    bad.preferredCores = 0;
    EXPECT_THROW(q.push(bad), cop::InvalidArgument);
}

/// A spill directory that lives as long as the test.
struct TempDir {
    fs::path path = fs::temp_directory_path() /
                    ("cop_queue_test_" + std::to_string(::getpid()));
    TempDir() { fs::create_directories(path); }
    ~TempDir() { fs::remove_all(path); }
};

TEST(CommandQueue, InputsSpillThroughACappedStore) {
    // Inputs of a few KiB over a store whose RAM tier holds 1 KiB: they
    // live on disk while pending, and the queue must not notice.
    TempDir tmp;
    StoreConfig cfg;
    cfg.ramBytes = 1024;
    cfg.dir = tmp.path.string();
    SegmentStore capped(cfg);
    SegmentStore uncapped;
    CommandQueue q{capped};
    CommandQueue reference{uncapped};

    Rng rng(3);
    std::vector<std::vector<std::uint8_t>> inputs;
    std::size_t total = 0;
    for (CommandId id = 1; id <= 4; ++id) {
        std::vector<std::uint8_t> bytes(2048 + 512 * id);
        for (auto& b : bytes) b = std::uint8_t(rng.uniformInt(4));
        total += bytes.size();
        auto cmd = makeCmd(id);
        cmd.input = SharedBytes(bytes);
        q.push(cmd);
        reference.push(cmd);
        inputs.push_back(std::move(bytes));
    }
    EXPECT_EQ(q.pendingBytes(), total);
    EXPECT_EQ(q.pendingBytes(), reference.pendingBytes());
    EXPECT_GT(capped.stats().spills, 0u);
    EXPECT_EQ(uncapped.stats().spills, 0u);

    const auto claimed = q.claim({"mdrun"}, 4, /*worker=*/1);
    ASSERT_EQ(claimed.size(), 4u);
    for (std::size_t i = 0; i < claimed.size(); ++i)
        EXPECT_EQ(claimed[i].input, inputs[i]) << "command " << i + 1;
    EXPECT_GT(capped.stats().misses, 0u); // some came back from disk
    EXPECT_EQ(q.pendingBytes(), 0u);

    for (CommandId id = 1; id <= 4; ++id) {
        ASSERT_TRUE(q.complete(id).has_value());
        EXPECT_FALSE(capped.contains(id)) << "command " << id;
    }
    EXPECT_EQ(capped.size(), 0u);
}

/// A queue image (CommandQueue::serialize) with two pending commands:
/// nextSeq, headSeq, the pending count, then (seq, spec) per entry.
struct QueueImage {
    std::vector<std::uint8_t> bytes;
    std::size_t firstSeq = 0;  ///< offset of entry 0's seq
    std::size_t secondSeq = 0; ///< offset of entry 1's seq
};

QueueImage twoPendingImage() {
    SegmentStore store;
    CommandQueue q{store};
    q.push(makeCmd(1));
    q.push(makeCmd(2));
    BinaryWriter w;
    q.serialize(w);
    QueueImage image{w.buffer(), 24, 0};
    BinaryWriter first;
    makeCmd(1).serialize(first);
    image.secondSeq = image.firstSeq + 8 + first.size();
    return image;
}

void expectRestoreRejects(const std::vector<std::uint8_t>& bytes) {
    SegmentStore store;
    CommandQueue q{store};
    BinaryReader r{std::span<const std::uint8_t>(bytes)};
    EXPECT_THROW(q.restore(r), cop::IoError);
}

TEST(CommandQueue, RestoreRejectsDuplicatePendingSeq) {
    // Two entries sharing a seq: the index would keep one while the
    // pending count says two, and the lost id could never be pushed again.
    const auto image = twoPendingImage();
    {
        SegmentStore store;
        CommandQueue q{store};
        BinaryReader r{std::span<const std::uint8_t>(image.bytes)};
        ASSERT_NO_THROW(q.restore(r));
        EXPECT_EQ(q.pendingCount(), 2u);
    }
    auto patched = image.bytes;
    std::memcpy(patched.data() + image.secondSeq,
                image.bytes.data() + image.firstSeq, 8);
    expectRestoreRejects(patched);
}

TEST(CommandQueue, RestoreRejectsPendingSeqOutOfRange) {
    // Live pushes take seqs from nextSeq (2 here) up and requeues from
    // headSeq (-1) down: a restored seq at either would collide with them.
    const auto image = twoPendingImage();
    for (const std::int64_t bad : {std::int64_t(2), std::int64_t(-1),
                                   std::int64_t(1) << 62}) {
        SCOPED_TRACE(bad);
        auto patched = image.bytes;
        std::memcpy(patched.data() + image.firstSeq, &bad, 8);
        expectRestoreRejects(patched);
    }
}

TEST(Wire, CommandSpecRoundTrip) {
    auto c = makeCmd(42, "mdrun", 8);
    c.projectServer = 3;
    c.trajectoryId = 17;
    c.generation = 2;
    c.input = {1, 2, 3};
    BinaryWriter w;
    c.serialize(w);
    BinaryReader r(w.buffer());
    const auto c2 = CommandSpec::deserialize(r);
    EXPECT_EQ(c2.id, 42u);
    EXPECT_EQ(c2.executable, "mdrun");
    EXPECT_EQ(c2.preferredCores, 8);
    EXPECT_EQ(c2.projectServer, 3);
    EXPECT_EQ(c2.trajectoryId, 17);
    EXPECT_EQ(c2.generation, 2);
    EXPECT_EQ(c2.input, c.input);
}

TEST(Wire, CommandResultRoundTrip) {
    CommandResult res;
    res.commandId = 9;
    res.projectId = 2;
    res.trajectoryId = 4;
    res.success = false;
    res.error = "boom";
    res.output = {9, 9};
    res.simSeconds = 12.5;
    BinaryWriter w;
    res.serialize(w);
    BinaryReader r(w.buffer());
    const auto r2 = CommandResult::deserialize(r);
    EXPECT_EQ(r2.commandId, 9u);
    EXPECT_FALSE(r2.success);
    EXPECT_EQ(r2.error, "boom");
    EXPECT_EQ(r2.output, res.output);
    EXPECT_EQ(r2.simSeconds, 12.5);
}

TEST(Wire, WorkloadRequestRoundTrip) {
    WorkloadRequestPayload p;
    p.worker = 5;
    p.platform = "OpenMPI";
    p.cores = 24;
    p.executables = {"mdrun", "fe_sample"};
    p.visited = {1, 2};
    const auto p2 = decodeWhole<WorkloadRequestPayload>(encodeWhole(p));
    EXPECT_EQ(p2.worker, 5);
    EXPECT_EQ(p2.platform, "OpenMPI");
    EXPECT_EQ(p2.cores, 24);
    EXPECT_EQ(p2.executables, p.executables);
    EXPECT_EQ(p2.visited, p.visited);
}

TEST(Wire, WorkloadAssignRoundTrip) {
    WorkloadAssignPayload p;
    p.commands.push_back(makeCmd(1));
    p.commands.push_back(makeCmd(2, "fe_sample", 4));
    const auto p2 = decodeWhole<WorkloadAssignPayload>(encodeWhole(p));
    ASSERT_EQ(p2.commands.size(), 2u);
    EXPECT_EQ(p2.commands[1].executable, "fe_sample");
}

TEST(Wire, HeartbeatRoundTripAndSize) {
    HeartbeatPayload hb;
    hb.worker = 3;
    hb.running = {100, 200};
    hb.projectServers = {0, 0};
    const auto bytes = encodeWhole(hb);
    // Paper: heartbeats are typically < 200 bytes on the wire.
    EXPECT_LT(bytes.size() + 96, 200u);
    const auto hb2 = decodeWhole<HeartbeatPayload>(bytes);
    EXPECT_EQ(hb2.worker, 3);
    EXPECT_EQ(hb2.running, hb.running);
    EXPECT_EQ(hb2.projectServers, hb.projectServers);
}

TEST(Wire, CheckpointAndWorkerFailedRoundTrip) {
    CheckpointPayload cp;
    cp.commandId = 11;
    cp.projectId = 22;
    cp.projectServer = 1;
    cp.blob = {7, 7, 7};
    const auto cp2 = decodeWhole<CheckpointPayload>(encodeWhole(cp));
    EXPECT_EQ(cp2.commandId, 11u);
    EXPECT_EQ(cp2.blob, cp.blob);

    WorkerFailedPayload wf;
    wf.worker = 6;
    wf.commands = {11, 12};
    wf.checkpoints = {{1}, {}};
    const auto wf2 = decodeWhole<WorkerFailedPayload>(encodeWhole(wf));
    EXPECT_EQ(wf2.worker, 6);
    EXPECT_EQ(wf2.commands, wf.commands);
    ASSERT_EQ(wf2.checkpoints.size(), 2u);
    EXPECT_TRUE(wf2.checkpoints[1].empty());
}

template <typename Payload>
void expectExactEncodedSize(const Payload& p, const char* what) {
    const auto bytes = encodeWhole(p);
    BinaryWriter w;
    p.serialize(w);
    EXPECT_EQ(bytes, w.buffer()) << what;
    // One allocation of exactly the message's size: the scratch writer's
    // spare capacity never leaks into the returned buffer.
    EXPECT_EQ(bytes.capacity(), bytes.size()) << what;
}

TEST(Wire, EncodedSizeIsExact) {
    WorkloadRequestPayload req;
    req.worker = 5;
    req.platform = "OpenMPI";
    req.cores = 24;
    req.executables = {"mdrun", "fe_sample"};
    req.visited = {1, 2, 3};
    expectExactEncodedSize(req, "WorkloadRequest");

    WorkloadAssignPayload assign;
    auto cmd = makeCmd(42, "mdrun", 8);
    cmd.input = {1, 2, 3, 4, 5};
    assign.commands.push_back(cmd);
    assign.commands.push_back(makeCmd(43, "fe_sample", 2));
    expectExactEncodedSize(assign, "WorkloadAssign");

    HeartbeatPayload hb;
    hb.worker = 3;
    hb.running = {100, 200};
    hb.projectServers = {0, 1};
    expectExactEncodedSize(hb, "Heartbeat");

    CheckpointPayload cp;
    cp.commandId = 11;
    cp.projectId = 22;
    cp.projectServer = 1;
    cp.blob = {7, 7, 7, 7};
    expectExactEncodedSize(cp, "Checkpoint");

    WorkerFailedPayload wf;
    wf.worker = 6;
    wf.commands = {11, 12};
    wf.checkpoints = {{1, 2}, {}};
    expectExactEncodedSize(wf, "WorkerFailed");

    CommandOutputPayload out;
    out.result.commandId = 9;
    out.result.error = "boom";
    out.result.output = {9, 9, 9};
    out.projectServer = 4;
    expectExactEncodedSize(out, "CommandOutput");

    NoWorkPayload none;
    none.worker = 8;
    expectExactEncodedSize(none, "NoWork");

    ClientRequestPayload creq;
    creq.projectId = 3;
    creq.command = "set clusters 16";
    expectExactEncodedSize(creq, "ClientRequest");

    ClientResponsePayload cresp;
    cresp.text = "project running: 12/225 trajectories";
    expectExactEncodedSize(cresp, "ClientResponse");

    HeartbeatSummaryPayload hs;
    hs.edge = 2;
    hs.workers = {9, 10};
    hs.counts = {2, 1};
    hs.commands = {42, 43, 44};
    expectExactEncodedSize(hs, "HeartbeatSummary");

    AckPayload ack;
    ack.ackedMessageId = 77;
    expectExactEncodedSize(ack, "Ack");

    // A batch encoded right after a bigger message: the scratch writer
    // then holds more capacity than the batch needs.
    BatchPayload batch;
    batch.entries.push_back(
        BatchEntry{HeartbeatPayload::kType, 5, true, encodeWhole(hb)});
    batch.entries.push_back(
        BatchEntry{AckPayload::kType, 6, false, encodeWhole(ack)});
    (void)encodeWhole(assign);
    expectExactEncodedSize(batch, "Batch");
}

TEST(ExecutableRegistryTest, DispatchAndErrors) {
    ExecutableRegistry reg;
    reg.add("echo", [](const CommandSpec& cmd, int cores) {
        Execution e;
        e.result.commandId = cmd.id;
        e.result.success = true;
        e.simSeconds = double(cores);
        return e;
    });
    EXPECT_TRUE(reg.has("echo"));
    EXPECT_FALSE(reg.has("other"));
    EXPECT_EQ(reg.names(), std::vector<std::string>{"echo"});
    const auto exec = reg.run(makeCmd(1, "echo"), 4);
    EXPECT_EQ(exec.simSeconds, 4.0);
    EXPECT_THROW(reg.run(makeCmd(2, "other"), 1), cop::InvalidArgument);
    EXPECT_THROW(reg.add("echo", [](const CommandSpec&, int) {
        return Execution{};
    }),
                 cop::InvalidArgument);
}


TEST(CommandQueue, HigherPriorityClaimsFirst) {
    SegmentStore store;
    CommandQueue q{store};
    auto low = makeCmd(1);
    low.priority = 0;
    auto high = makeCmd(2);
    high.priority = 5;
    auto mid = makeCmd(3);
    mid.priority = 2;
    q.push(low);
    q.push(high);
    q.push(mid);
    const auto first = q.claim({"mdrun"}, 1, 1);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].id, 2u);
    const auto second = q.claim({"mdrun"}, 1, 1);
    EXPECT_EQ(second[0].id, 3u);
    const auto third = q.claim({"mdrun"}, 1, 1);
    EXPECT_EQ(third[0].id, 1u);
}

TEST(CommandQueue, FifoWithinPriorityLevel) {
    SegmentStore store;
    CommandQueue q{store};
    for (CommandId id : {10, 11, 12}) q.push(makeCmd(id));
    const auto claimed = q.claim({"mdrun"}, 3, 1);
    ASSERT_EQ(claimed.size(), 3u);
    EXPECT_EQ(claimed[0].id, 10u);
    EXPECT_EQ(claimed[1].id, 11u);
    EXPECT_EQ(claimed[2].id, 12u);
}

TEST(CommandQueue, RequeuePreservesPriorityOrder) {
    SegmentStore store;
    CommandQueue q{store};
    auto urgent = makeCmd(1);
    urgent.priority = 9;
    q.push(urgent);
    q.claim({"mdrun"}, 1, 4); // urgent now in flight
    q.push(makeCmd(2));       // normal work arrives
    q.requeueWorker(4);       // failure: urgent returns
    const auto next = q.claim({"mdrun"}, 1, 5);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0].id, 1u);
}

TEST(Wire, PriorityRoundTrips) {
    auto c = makeCmd(1);
    c.priority = 7;
    BinaryWriter w;
    c.serialize(w);
    BinaryReader r(w.buffer());
    EXPECT_EQ(CommandSpec::deserialize(r).priority, 7);
}

} // namespace
} // namespace cop::core
