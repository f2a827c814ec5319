#pragma once

/// \file queue.hpp
/// Per-server command queue with claim/complete/requeue semantics and
/// failure-recovery bookkeeping (which worker holds which command, and the
/// freshest checkpoint the server has seen for each in-flight command).
///
/// Command inputs (checkpoints, starting structures) have one home: the
/// server's tiered SegmentStore, keyed by command id. The queue parks a
/// command's bytes there on insert, fetches them back only when a claim
/// ships the command to a worker, and erases them on completion, so
/// pending backlogs of any depth cost the store's RAM tier, not the heap.
///
/// Indexed implementation (see DESIGN.md "Scheduler data structures"):
/// pending work lives in per-executable buckets ordered by
/// (priority desc, seq asc), so FIFO-within-priority falls out of a
/// monotone sequence counter and requeue-to-head-of-priority-level out of
/// a second, decreasing counter. hasWorkFor() probes only the offered
/// buckets; claim() k-way-merges the offered buckets in global priority
/// order (never touching commands for executables the worker lacks),
/// first-fit against the worker's core offer. Assignment order is
/// observably identical to the original linear-scan queue (kept as
/// LegacyCommandQueue for equivalence tests and benchmarks).

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/command.hpp"
#include "core/segment_store.hpp"
#include "util/serialize.hpp"

namespace cop::core {

/// Scheduler hot-path counters, exposed via Server::schedulerStats().
struct SchedulerStats {
    std::uint64_t pushes = 0;
    std::uint64_t duplicatePushesRejected = 0;
    std::uint64_t claims = 0;           ///< claim() calls
    std::uint64_t commandsClaimed = 0;
    std::uint64_t commandsRequeued = 0;
    std::uint64_t claimScanSteps = 0;   ///< bucket entries visited by claim()
    std::uint64_t hasWorkProbes = 0;    ///< buckets probed by hasWorkFor()
    std::uint64_t checkpointUpdates = 0;
    /// Payload bytes adopted by reference instead of duplicated.
    std::uint64_t checkpointBytesShared = 0;
    /// Checkpoints dropped because the command is not in flight.
    std::uint64_t checkpointsUnknownId = 0;
};

class CommandQueue {
public:
    /// Input payloads live in `store` for the queue's lifetime; the
    /// store must outlive the queue.
    explicit CommandQueue(SegmentStore& store) : store_(&store) {}

    /// Adds a command to the queue (FIFO within its priority level).
    /// Rejects ids already pending or in flight.
    void push(CommandSpec cmd);

    std::size_t pendingCount() const { return pendingCount_; }
    /// Sum of input-payload bytes over pending commands (admission quotas).
    std::size_t pendingBytes() const { return pendingBytes_; }
    std::size_t inFlightCount() const { return inFlight_.size(); }
    bool empty() const { return pendingCount_ == 0; }

    /// True if some pending command runs `executable`. O(#executables
    /// offered) bucket probes — independent of the number of pending
    /// commands.
    bool hasWorkFor(const std::vector<std::string>& executables) const;

    /// Claims up to `maxCores` worth of commands matching the worker's
    /// executables, marking them in-flight for `worker`. Matching work is
    /// walked in global (priority, FIFO) order and every command that fits
    /// the remaining core budget is claimed; larger ones are skipped (the
    /// paper's "maximally utilizes the available resources").
    std::vector<CommandSpec> claim(const std::vector<std::string>& executables,
                                   int maxCores, net::NodeId worker);

    /// Marks a command finished; returns its spec if it was in flight.
    std::optional<CommandSpec> complete(CommandId id);

    /// Requeues every in-flight command held by `worker` (worker failure,
    /// paper §2.3), substituting the newest checkpoint seen for each, and
    /// returns their ids. Requeued commands land at the head of their
    /// priority level so recovery work is not starved by newer
    /// submissions.
    std::vector<CommandId> requeueWorker(net::NodeId worker);

    /// Requeues a single in-flight command (lease expiry, lost
    /// assignment); no-op returning false if it is not in flight.
    bool requeueCommand(CommandId id);

    /// Records a fresher input payload (checkpoint) for an in-flight
    /// command so a requeue resumes from it rather than from scratch.
    /// The buffer is adopted by reference — zero bytes copied.
    void updateCheckpoint(CommandId id, SharedBytes checkpoint);

    /// Worker currently holding a command, if any.
    std::optional<net::NodeId> holderOf(CommandId id) const;

    /// Enumeration for snapshotting and recovery bookkeeping. Pending
    /// specs are visited in arbitrary (bucket) order with their inputs
    /// still parked in the store (spec.input is empty).
    void forEachPending(
        const std::function<void(const CommandSpec&)>& fn) const;
    void forEachInFlight(
        const std::function<void(const CommandSpec&, net::NodeId)>& fn)
        const;

    /// Full-state serialization for WAL snapshots: sequence counters,
    /// pending entries (with payloads pulled from the store) and the
    /// in-flight table. restore() expects an empty queue and treats the
    /// stream as untrusted: hostile counts and lengths, duplicate ids and
    /// pending sequence numbers outside (headSeq, nextSeq) or shared by
    /// two entries throw IoError.
    void serialize(BinaryWriter& w) const;
    void restore(BinaryReader& r);

    const SchedulerStats& stats() const { return stats_; }

private:
    /// Primary ordering: priority descending, then FIFO by sequence.
    struct Key {
        int priority = 0;
        std::int64_t seq = 0;
        bool operator<(const Key& o) const {
            if (priority != o.priority) return priority > o.priority;
            return seq < o.seq;
        }
    };
    /// One executable's pending work in claim order.
    using Bucket = std::map<Key, CommandSpec>;
    struct InFlight {
        CommandSpec spec;
        net::NodeId worker;
    };

    /// Single insertion point shared by push and both requeue paths (the
    /// three hand-rolled priority-scan loops of the legacy queue).
    /// Returns false, inserting nothing, if `seq` is already taken.
    bool insertPending(CommandSpec cmd, std::int64_t seq);
    /// Parks cmd.input in the store, leaving it empty.
    void stashInput(CommandSpec& cmd);
    /// Rehydrates a spec's input from the store without releasing it.
    CommandSpec rehydrate(CommandSpec spec) const;
    /// Moves one bucket entry into the in-flight table; returns the spec.
    CommandSpec take(Bucket& bucket, Bucket::iterator it, net::NodeId worker);
    void requeueInFlight(InFlight&& flight);

    std::map<std::string, Bucket> buckets_; ///< executable -> pending work
    std::map<CommandId, InFlight> inFlight_;
    std::unordered_set<CommandId> knownIds_; ///< pending + in flight
    std::size_t pendingCount_ = 0;
    std::size_t pendingBytes_ = 0; ///< input bytes across pending commands
    std::int64_t nextSeq_ = 0;  ///< push order (increasing)
    std::int64_t headSeq_ = -1; ///< requeue-to-head order (decreasing)
    SegmentStore* store_;       ///< home of every input payload
    mutable SchedulerStats stats_; ///< mutable: const probes count too
};

} // namespace cop::core
