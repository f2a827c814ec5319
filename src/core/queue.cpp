#include "core/queue.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace cop::core {

void CommandQueue::push(CommandSpec cmd) {
    COP_REQUIRE(cmd.id != 0, "command needs an id");
    COP_REQUIRE(cmd.preferredCores >= 1, "command needs >= 1 core");
    if (!knownIds_.insert(cmd.id).second) {
        ++stats_.duplicatePushesRejected;
        COP_REQUIRE(false, "duplicate command id " + std::to_string(cmd.id) +
                               " (already pending or in flight)");
    }
    ++stats_.pushes;
    insertPending(std::move(cmd), nextSeq_++);
}

bool CommandQueue::insertPending(CommandSpec cmd, std::int64_t seq) {
    auto& bucket = buckets_[cmd.executable];
    auto [it, inserted] =
        bucket.byKey.try_emplace(Key{cmd.priority, seq}, std::move(cmd));
    if (!inserted) return false;
    CommandSpec& spec = it->second;
    stashInput(spec);
    bucket.byCores.insert(CoreKey{spec.priority, spec.preferredCores, seq});
    pendingBytes_ += store_->sizeOf(spec.id);
    ++pendingCount_;
    return true;
}

void CommandQueue::stashInput(CommandSpec& cmd) {
    if (cmd.input.size() == 0) return; // already stashed or genuinely empty
    store_->put(cmd.id, std::move(cmd.input));
    cmd.input = SharedBytes{};
}

CommandSpec CommandQueue::rehydrate(CommandSpec spec) const {
    if (store_->contains(spec.id)) spec.input = *store_->get(spec.id);
    return spec;
}

bool CommandQueue::hasWorkFor(
    const std::vector<std::string>& executables) const {
    for (const auto& exe : executables) {
        ++stats_.hasWorkProbes;
        auto it = buckets_.find(exe);
        if (it != buckets_.end() && !it->second.byKey.empty()) return true;
    }
    return false;
}

CommandSpec CommandQueue::take(Bucket& bucket,
                               std::map<Key, CommandSpec>::iterator it,
                               net::NodeId worker) {
    CommandSpec spec = std::move(it->second);
    bucket.byCores.erase(
        CoreKey{it->first.priority, spec.preferredCores, it->first.seq});
    bucket.byKey.erase(it);
    --pendingCount_;
    pendingBytes_ -= store_->sizeOf(spec.id);
    inFlight_[spec.id] = InFlight{spec, worker};
    // The copy shipped to the worker carries the real payload; the
    // in-flight table keeps it parked in the store.
    return rehydrate(std::move(spec));
}

std::vector<CommandSpec> CommandQueue::claim(
    const std::vector<std::string>& executables, int maxCores,
    net::NodeId worker, ClaimPolicy policy) {
    ++stats_.claims;
    std::vector<CommandSpec> claimed;
    int coresLeft = maxCores;

    // Offered buckets, deduplicated (a repeated name must not yield two
    // cursors over the same bucket).
    std::vector<Bucket*> offered;
    for (const auto& exe : executables) {
        auto it = buckets_.find(exe);
        if (it == buckets_.end() || it->second.byKey.empty()) continue;
        if (std::find(offered.begin(), offered.end(), &it->second) ==
            offered.end())
            offered.push_back(&it->second);
    }

    if (policy == ClaimPolicy::FirstFit) {
        // K-way merge of the offered buckets in global (priority, seq)
        // order: exactly the runnable subsequence the legacy full-queue
        // scan visited, without ever touching non-matching work.
        struct Cursor {
            Bucket* bucket;
            std::map<Key, CommandSpec>::iterator it;
        };
        std::vector<Cursor> cursors;
        cursors.reserve(offered.size());
        for (Bucket* b : offered)
            cursors.push_back(Cursor{b, b->byKey.begin()});
        while (coresLeft > 0) {
            Cursor* best = nullptr;
            for (auto& c : cursors) {
                if (c.it == c.bucket->byKey.end()) continue;
                if (best == nullptr || c.it->first < best->it->first)
                    best = &c;
            }
            if (best == nullptr) break;
            ++stats_.claimScanSteps;
            if (best->it->second.preferredCores <= coresLeft) {
                coresLeft -= best->it->second.preferredCores;
                auto next = std::next(best->it);
                claimed.push_back(take(*best->bucket, best->it, worker));
                best->it = next;
            } else {
                ++best->it;
            }
        }
    } else {
        // LargestFit: per step, the globally best CoreKey (priority desc,
        // cores desc, seq asc) whose core request fits. Within a bucket,
        // walk priority levels via lower_bound until a level has a
        // fitting entry.
        while (coresLeft > 0) {
            Bucket* bestBucket = nullptr;
            std::set<CoreKey>::iterator bestIt;
            for (Bucket* b : offered) {
                auto it = b->byCores.begin();
                while (it != b->byCores.end()) {
                    ++stats_.claimScanSteps;
                    if (it->cores <= coresLeft) break;
                    // Everything at this priority level is too big: jump
                    // to the first fitting entry at this level or the top
                    // of the next level.
                    it = b->byCores.lower_bound(
                        CoreKey{it->priority, coresLeft,
                                std::numeric_limits<std::int64_t>::min()});
                }
                if (it == b->byCores.end()) continue;
                if (bestBucket == nullptr || *it < *bestIt) {
                    bestBucket = b;
                    bestIt = it;
                }
            }
            if (bestBucket == nullptr) break;
            auto keyIt = bestBucket->byKey.find(
                Key{bestIt->priority, bestIt->seq});
            coresLeft -= bestIt->cores;
            claimed.push_back(take(*bestBucket, keyIt, worker));
        }
    }
    stats_.commandsClaimed += claimed.size();
    return claimed;
}

std::optional<CommandSpec> CommandQueue::complete(CommandId id) {
    auto it = inFlight_.find(id);
    if (it == inFlight_.end()) return std::nullopt;
    CommandSpec spec = rehydrate(std::move(it->second.spec));
    inFlight_.erase(it);
    knownIds_.erase(id);
    store_->erase(id);
    return spec;
}

void CommandQueue::requeueInFlight(InFlight&& flight) {
    ++stats_.commandsRequeued;
    // Decreasing head sequence: each requeue lands ahead of everything
    // else at its priority level, including earlier requeues — matching
    // the legacy insert-at-head-of-level scan.
    insertPending(std::move(flight.spec), headSeq_--);
}

std::vector<CommandId> CommandQueue::requeueWorker(net::NodeId worker) {
    std::vector<CommandId> requeued;
    for (auto it = inFlight_.begin(); it != inFlight_.end();) {
        if (it->second.worker == worker) {
            requeued.push_back(it->first);
            requeueInFlight(std::move(it->second));
            it = inFlight_.erase(it);
        } else {
            ++it;
        }
    }
    return requeued;
}

bool CommandQueue::requeueCommand(CommandId id) {
    auto it = inFlight_.find(id);
    if (it == inFlight_.end()) return false;
    requeueInFlight(std::move(it->second));
    inFlight_.erase(it);
    return true;
}

void CommandQueue::updateCheckpoint(CommandId id, SharedBytes checkpoint) {
    auto it = inFlight_.find(id);
    if (it == inFlight_.end()) {
        ++stats_.checkpointsUnknownId;
        COP_LOG_DEBUG("queue")
            << "dropping checkpoint for unknown command " << id << " ("
            << checkpoint.size() << " bytes): not in flight";
        return;
    }
    ++stats_.checkpointUpdates;
    stats_.checkpointBytesShared += checkpoint.size();
    store_->put(id, std::move(checkpoint));
}

std::optional<net::NodeId> CommandQueue::holderOf(CommandId id) const {
    auto it = inFlight_.find(id);
    if (it == inFlight_.end()) return std::nullopt;
    return it->second.worker;
}

void CommandQueue::forEachPending(
    const std::function<void(const CommandSpec&)>& fn) const {
    for (const auto& [exe, bucket] : buckets_)
        for (const auto& [key, spec] : bucket.byKey) fn(spec);
}

void CommandQueue::forEachInFlight(
    const std::function<void(const CommandSpec&, net::NodeId)>& fn) const {
    for (const auto& [id, flight] : inFlight_)
        fn(flight.spec, flight.worker);
}

void CommandQueue::serialize(BinaryWriter& w) const {
    w.write(std::int64_t(nextSeq_));
    w.write(std::int64_t(headSeq_));
    // Pending entries with their ordering keys: (seq, spec). The stored
    // payloads travel inline so the snapshot is self-contained.
    w.write(std::uint64_t(pendingCount_));
    for (const auto& [exe, bucket] : buckets_)
        for (const auto& [key, spec] : bucket.byKey) {
            w.write(std::int64_t(key.seq));
            rehydrate(spec).serialize(w);
        }
    w.write(std::uint64_t(inFlight_.size()));
    for (const auto& [id, flight] : inFlight_) {
        w.write(std::int32_t(flight.worker));
        rehydrate(flight.spec).serialize(w);
    }
    // Hot-path counters ride along so metrics stay continuous across a
    // recovery.
    w.write(stats_.pushes);
    w.write(stats_.duplicatePushesRejected);
    w.write(stats_.claims);
    w.write(stats_.commandsClaimed);
    w.write(stats_.commandsRequeued);
    w.write(stats_.claimScanSteps);
    w.write(stats_.hasWorkProbes);
    w.write(stats_.checkpointUpdates);
    w.write(stats_.checkpointBytesShared);
    w.write(stats_.checkpointsUnknownId);
}

void CommandQueue::restore(BinaryReader& r) {
    COP_REQUIRE(knownIds_.empty(), "restore into a non-empty queue");
    nextSeq_ = r.read<std::int64_t>();
    headSeq_ = r.read<std::int64_t>();
    COP_IO_CHECK(headSeq_ < 0 && nextSeq_ >= 0,
                 "queue restore: sequence counters out of range");
    const std::uint64_t pending = r.readCount(16);
    for (std::uint64_t i = 0; i < pending; ++i) {
        const auto seq = r.read<std::int64_t>();
        // Live pushes take nextSeq_ upward and requeues headSeq_
        // downward: a restored entry outside the open interval would
        // collide with the next one of them.
        COP_IO_CHECK(headSeq_ < seq && seq < nextSeq_,
                     "queue restore: pending seq out of range");
        CommandSpec spec = CommandSpec::deserialize(r);
        COP_IO_CHECK(spec.id != 0 && spec.preferredCores >= 1,
                     "queue restore: invalid pending spec");
        COP_IO_CHECK(knownIds_.insert(spec.id).second,
                     "queue restore: duplicate pending id");
        COP_IO_CHECK(insertPending(std::move(spec), seq),
                     "queue restore: duplicate pending seq");
    }
    const std::uint64_t flights = r.readCount(16);
    for (std::uint64_t i = 0; i < flights; ++i) {
        const auto worker = net::NodeId(r.read<std::int32_t>());
        CommandSpec spec = CommandSpec::deserialize(r);
        COP_IO_CHECK(spec.id != 0, "queue restore: invalid in-flight spec");
        COP_IO_CHECK(knownIds_.insert(spec.id).second,
                     "queue restore: duplicate in-flight id");
        stashInput(spec);
        inFlight_[spec.id] = InFlight{std::move(spec), worker};
    }
    stats_.pushes = r.read<std::uint64_t>();
    stats_.duplicatePushesRejected = r.read<std::uint64_t>();
    stats_.claims = r.read<std::uint64_t>();
    stats_.commandsClaimed = r.read<std::uint64_t>();
    stats_.commandsRequeued = r.read<std::uint64_t>();
    stats_.claimScanSteps = r.read<std::uint64_t>();
    stats_.hasWorkProbes = r.read<std::uint64_t>();
    stats_.checkpointUpdates = r.read<std::uint64_t>();
    stats_.checkpointBytesShared = r.read<std::uint64_t>();
    stats_.checkpointsUnknownId = r.read<std::uint64_t>();
}

} // namespace cop::core
