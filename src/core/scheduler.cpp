#include "core/scheduler.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace cop::core {

namespace {

/// Upper bound on banked DRR credit, in cores. A backlogged tenant whose
/// commands never fit the current offers keeps accumulating deficit (it is
/// genuinely being starved and is owed a burst when a big-enough offer
/// arrives), but the burst it can cash in at once stays bounded.
constexpr double kDeficitCap = 1024.0;

/// DRR quantum: each service round tops a tenant's deficit up by
/// kQuantum * weight cores.
constexpr double kQuantum = 1.0;

} // namespace

void TenantConfig::serialize(BinaryWriter& w) const {
    w.write(weight);
    w.write(std::uint8_t(0)); // reserved
    w.write(std::uint64_t(maxPendingCommands));
    w.write(std::uint64_t(maxPendingBytes));
    w.write(admissionRetryAfter);
}

TenantConfig TenantConfig::deserialize(BinaryReader& r) {
    TenantConfig c;
    c.weight = r.read<double>();
    COP_IO_CHECK(r.read<std::uint8_t>() == 0,
                 "tenant config: bad claim policy");
    c.maxPendingCommands = std::size_t(r.read<std::uint64_t>());
    c.maxPendingBytes = std::size_t(r.read<std::uint64_t>());
    c.admissionRetryAfter = r.read<double>();
    COP_IO_CHECK(c.weight > 0.0, "tenant config: non-positive weight");
    // The wire refuses such a retry-after in every response payload, so
    // a server that logged one would shed with replies clients drop.
    COP_IO_CHECK(c.admissionRetryAfter >= 0.0,
                 "tenant config: negative or NaN retry-after");
    return c;
}

void ShardedScheduler::addTenant(ProjectId id, TenantConfig config) {
    COP_REQUIRE(config.weight > 0.0, "tenant weight must be positive");
    COP_REQUIRE(config.admissionRetryAfter >= 0.0,
                "tenant retry-after must be >= 0");
    auto [it, inserted] =
        shards_.emplace(id, Shard{CommandQueue(*store_), config});
    COP_REQUIRE(inserted,
                "duplicate tenant id " + std::to_string(id));
    ring_.clear();
    ring_.reserve(shards_.size());
    for (const auto& [pid, shard] : shards_) {
        (void)shard;
        ring_.push_back(pid);
    }
    if (cursor_ >= ring_.size()) cursor_ = 0;
}

const TenantConfig& ShardedScheduler::tenantConfig(ProjectId id) const {
    return shards_.at(id).config;
}

AdmissionDecision ShardedScheduler::admit(ProjectId tenant,
                                          const CommandSpec& cmd) const {
    const Shard& s = shards_.at(tenant);
    const TenantConfig& cfg = s.config;
    if (cfg.maxPendingCommands > 0 &&
        s.queue.pendingCount() >= cfg.maxPendingCommands)
        return {false, cfg.admissionRetryAfter};
    if (cfg.maxPendingBytes > 0 &&
        s.queue.pendingBytes() + cmd.input.size() > cfg.maxPendingBytes)
        return {false, cfg.admissionRetryAfter};
    return {true, 0.0};
}

AdmissionDecision ShardedScheduler::push(ProjectId tenant, CommandSpec cmd,
                                         bool force) {
    auto it = shards_.find(tenant);
    COP_REQUIRE(it != shards_.end(),
                "push for unknown tenant " + std::to_string(tenant));
    COP_REQUIRE(cmd.projectId == tenant, "command/tenant project mismatch");
    Shard& s = it->second;
    if (!force) {
        const auto decision = admit(tenant, cmd);
        if (!decision.admitted) {
            ++s.counters.admissionRejections;
            return decision;
        }
    }
    const CommandId cid = cmd.id;
    s.queue.push(std::move(cmd));
    ++s.counters.pushes;
    owners_[cid] = tenant;
    notePendingPeaks(s);
    return {true, 0.0};
}

bool ShardedScheduler::hasWorkFor(
    const std::vector<std::string>& executables) const {
    for (const auto& [pid, s] : shards_) {
        (void)pid;
        if (s.queue.hasWorkFor(executables)) return true;
    }
    return false;
}

std::vector<CommandSpec> ShardedScheduler::claim(
    const std::vector<std::string>& executables, int maxCores,
    net::NodeId worker) {
    std::vector<CommandSpec> out;
    if (ring_.empty() || maxCores <= 0) return out;

    // Shards with matching work, visited in ring order from the cursor so
    // service opportunities rotate across claim calls.
    struct Active {
        Shard* shard;
        std::size_t ringPos;
        bool exhausted = false; ///< cannot use even the full remaining budget
    };
    std::vector<Active> active;
    const std::size_t n = ring_.size();
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t pos = (cursor_ + k) % n;
        Shard& s = shards_.at(ring_[pos]);
        if (s.queue.hasWorkFor(executables))
            active.push_back(Active{&s, pos});
        else if (s.queue.pendingCount() == 0)
            s.deficit = 0.0; // drained shard forfeits banked credit
    }
    if (active.empty()) return out;

    if (active.size() == 1) {
        // Single-tenant fast path: no other tenant competes, so DRR would
        // only chop the offer into deficit-sized claims and change the
        // assembled workload. Offer the full budget in one shot — exactly
        // the pre-shard single-queue behaviour.
        Shard& s = *active.front().shard;
        auto claimed = s.queue.claim(executables, maxCores, worker);
        for (const auto& c : claimed) {
            s.counters.coresGranted += std::uint64_t(c.preferredCores);
        }
        s.counters.commandsClaimed += claimed.size();
        if (s.queue.pendingCount() == 0) s.deficit = 0.0;
        return claimed;
    }

    int remaining = maxCores;
    std::size_t lastServedPos = active.front().ringPos;
    bool servedAny = false;
    while (remaining > 0) {
        bool progress = false;
        std::size_t live = 0;
        for (auto& a : active) {
            if (remaining <= 0) break;
            if (a.exhausted) continue;
            Shard& s = *a.shard;
            if (!s.queue.hasWorkFor(executables)) {
                if (s.queue.pendingCount() == 0) s.deficit = 0.0;
                a.exhausted = true;
                continue;
            }
            ++live;
            s.deficit =
                std::min(s.deficit + kQuantum * s.config.weight, kDeficitCap);
            const int budget = std::min(remaining, int(s.deficit));
            if (budget <= 0) continue; // credit below one core so far
            auto claimed = s.queue.claim(executables, budget, worker);
            if (claimed.empty()) {
                // Nothing fits the deficit-limited budget. Once the budget
                // saturates the whole remaining offer, more credit cannot
                // help this call: retire the shard from this round-robin.
                if (budget == remaining) a.exhausted = true;
                continue;
            }
            int cores = 0;
            for (const auto& c : claimed) cores += c.preferredCores;
            s.deficit -= double(cores);
            remaining -= cores;
            s.counters.commandsClaimed += claimed.size();
            s.counters.coresGranted += std::uint64_t(cores);
            progress = true;
            servedAny = true;
            lastServedPos = a.ringPos;
            for (auto& c : claimed) out.push_back(std::move(c));
            if (s.queue.pendingCount() == 0) s.deficit = 0.0;
        }
        if (live == 0) break;
        if (!progress) {
            // No shard could cash its credit this round (commands larger
            // than every deficit). Jump every live deficit straight to the
            // remaining budget instead of drip-feeding quantum-sized
            // rounds: the next pass either claims or proves that nothing
            // fits the offer at all.
            for (auto& a : active) {
                if (!a.exhausted)
                    a.shard->deficit = std::min(
                        kDeficitCap,
                        std::max(a.shard->deficit, double(remaining)));
            }
        }
    }
    // Rotate the service origin past the last tenant that actually claimed
    // so the next offer starts with its successor.
    cursor_ = servedAny ? (lastServedPos + 1) % n : (cursor_ + 1) % n;
    return out;
}

std::optional<CommandSpec> ShardedScheduler::complete(CommandId id) {
    auto owner = owners_.find(id);
    if (owner == owners_.end()) return std::nullopt;
    Shard& s = shards_.at(owner->second);
    auto spec = s.queue.complete(id);
    // complete() only retires in-flight commands; a still-pending id keeps
    // its owner entry (and its queue slot) exactly like the flat queue.
    if (spec) owners_.erase(owner);
    return spec;
}

std::vector<CommandId> ShardedScheduler::requeueWorker(net::NodeId worker) {
    std::vector<CommandId> requeued;
    for (auto& [pid, s] : shards_) {
        (void)pid;
        auto ids = s.queue.requeueWorker(worker);
        s.counters.commandsRequeued += ids.size();
        if (!ids.empty()) notePendingPeaks(s);
        requeued.insert(requeued.end(), ids.begin(), ids.end());
    }
    return requeued;
}

bool ShardedScheduler::requeueCommand(CommandId id) {
    auto owner = owners_.find(id);
    if (owner == owners_.end()) return false;
    Shard& s = shards_.at(owner->second);
    if (!s.queue.requeueCommand(id)) return false;
    ++s.counters.commandsRequeued;
    notePendingPeaks(s);
    return true;
}

void ShardedScheduler::updateCheckpoint(CommandId id, SharedBytes checkpoint) {
    auto owner = owners_.find(id);
    if (owner == owners_.end()) {
        ++orphanCheckpoints_;
        return;
    }
    shards_.at(owner->second).queue.updateCheckpoint(id, std::move(checkpoint));
}

std::optional<net::NodeId> ShardedScheduler::holderOf(CommandId id) const {
    auto owner = owners_.find(id);
    if (owner == owners_.end()) return std::nullopt;
    return shards_.at(owner->second).queue.holderOf(id);
}

std::size_t ShardedScheduler::pendingCount() const {
    std::size_t total = 0;
    for (const auto& [pid, s] : shards_) {
        (void)pid;
        total += s.queue.pendingCount();
    }
    return total;
}

std::size_t ShardedScheduler::inFlightCount() const {
    std::size_t total = 0;
    for (const auto& [pid, s] : shards_) {
        (void)pid;
        total += s.queue.inFlightCount();
    }
    return total;
}

std::size_t ShardedScheduler::pendingOf(ProjectId tenant) const {
    return shards_.at(tenant).queue.pendingCount();
}

std::size_t ShardedScheduler::pendingBytesOf(ProjectId tenant) const {
    return shards_.at(tenant).queue.pendingBytes();
}

std::size_t ShardedScheduler::inFlightOf(ProjectId tenant) const {
    return shards_.at(tenant).queue.inFlightCount();
}

const SchedulerStats& ShardedScheduler::stats() const {
    aggregate_ = SchedulerStats{};
    for (const auto& [pid, s] : shards_) {
        (void)pid;
        const SchedulerStats& q = s.queue.stats();
        aggregate_.pushes += q.pushes;
        aggregate_.duplicatePushesRejected += q.duplicatePushesRejected;
        aggregate_.claims += q.claims;
        aggregate_.commandsClaimed += q.commandsClaimed;
        aggregate_.commandsRequeued += q.commandsRequeued;
        aggregate_.claimScanSteps += q.claimScanSteps;
        aggregate_.hasWorkProbes += q.hasWorkProbes;
        aggregate_.checkpointUpdates += q.checkpointUpdates;
        aggregate_.checkpointBytesShared += q.checkpointBytesShared;
        aggregate_.checkpointsUnknownId += q.checkpointsUnknownId;
    }
    aggregate_.checkpointsUnknownId += orphanCheckpoints_;
    return aggregate_;
}

const TenantCounters& ShardedScheduler::tenantStats(ProjectId tenant) const {
    return shards_.at(tenant).counters;
}

void ShardedScheduler::forEachPending(
    const std::function<void(ProjectId, const CommandSpec&)>& fn) const {
    for (const auto& [pid, s] : shards_)
        s.queue.forEachPending(
            [&](const CommandSpec& spec) { fn(pid, spec); });
}

void ShardedScheduler::forEachInFlight(
    const std::function<void(ProjectId, const CommandSpec&, net::NodeId)>&
        fn) const {
    for (const auto& [pid, s] : shards_)
        s.queue.forEachInFlight(
            [&](const CommandSpec& spec, net::NodeId worker) {
                fn(pid, spec, worker);
            });
}

void ShardedScheduler::serialize(BinaryWriter& w) const {
    w.write(std::uint64_t(shards_.size()));
    for (const auto& [pid, s] : shards_) {
        w.write(std::uint64_t(pid));
        s.config.serialize(w);
        w.write(s.deficit);
        const TenantCounters& t = s.counters;
        w.write(t.pushes);
        w.write(t.admissionRejections);
        w.write(t.commandsClaimed);
        w.write(t.coresGranted);
        w.write(t.commandsRequeued);
        w.write(std::uint64_t(t.pendingPeak));
        w.write(std::uint64_t(t.pendingBytesPeak));
        s.queue.serialize(w);
    }
    // ring_ is always the sorted tenant-id order (rebuilt by addTenant),
    // so only the service cursor needs to travel.
    w.write(std::uint64_t(cursor_));
    w.write(orphanCheckpoints_);
}

void ShardedScheduler::restore(BinaryReader& r) {
    COP_REQUIRE(shards_.empty(), "restore into a non-empty scheduler");
    const std::uint64_t tenants = r.readCount(128);
    for (std::uint64_t i = 0; i < tenants; ++i) {
        const auto pid = ProjectId(r.read<std::uint64_t>());
        const TenantConfig c = TenantConfig::deserialize(r);
        COP_IO_CHECK(!hasTenant(pid), "scheduler restore: duplicate tenant");
        addTenant(pid, c);
        Shard& s = shards_.at(pid);
        s.deficit = r.read<double>();
        // claim() truncates the deficit to int: NaN or a huge magnitude
        // there is undefined behaviour, and a live deficit never leaves
        // [0, kDeficitCap].
        COP_IO_CHECK(s.deficit >= 0.0 && s.deficit <= kDeficitCap,
                     "scheduler restore: deficit out of range");
        TenantCounters& t = s.counters;
        t.pushes = r.read<std::uint64_t>();
        t.admissionRejections = r.read<std::uint64_t>();
        t.commandsClaimed = r.read<std::uint64_t>();
        t.coresGranted = r.read<std::uint64_t>();
        t.commandsRequeued = r.read<std::uint64_t>();
        t.pendingPeak = std::size_t(r.read<std::uint64_t>());
        t.pendingBytesPeak = std::size_t(r.read<std::uint64_t>());
        s.queue.restore(r);
        s.queue.forEachPending([&](const CommandSpec& spec) {
            COP_IO_CHECK(owners_.emplace(spec.id, pid).second,
                         "scheduler restore: id owned by two tenants");
        });
        s.queue.forEachInFlight([&](const CommandSpec& spec, net::NodeId) {
            COP_IO_CHECK(owners_.emplace(spec.id, pid).second,
                         "scheduler restore: id owned by two tenants");
        });
    }
    cursor_ = std::size_t(r.read<std::uint64_t>());
    COP_IO_CHECK(ring_.empty() ? cursor_ == 0 : cursor_ < ring_.size(),
                 "scheduler restore: cursor out of range");
    orphanCheckpoints_ = r.read<std::uint64_t>();
}

void ShardedScheduler::notePendingPeaks(Shard& s) {
    s.counters.pendingPeak =
        std::max(s.counters.pendingPeak, s.queue.pendingCount());
    s.counters.pendingBytesPeak =
        std::max(s.counters.pendingBytesPeak, s.queue.pendingBytes());
}

} // namespace cop::core
