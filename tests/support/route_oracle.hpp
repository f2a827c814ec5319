#pragma once

/// \file route_oracle.hpp
/// The original uncached overlay router, kept as a reference
/// implementation for the route property tests: a fresh Dijkstra over the
/// network's current topology on every call. OverlayNetwork::nextHop
/// memoizes routes per (from, to) pair and must return exactly what this
/// function returns, tie-breaks included, after any sequence of topology
/// changes. Production code must use OverlayNetwork::nextHop; this lives
/// in the cop_test_support library, outside cop_net.

#include "net/overlay.hpp"

namespace cop::net {

/// First hop from `from` towards `to` on the lowest-total-latency path
/// over usable links; kInvalidNode if unreachable or either end is down.
/// Both ids must be registered nodes.
NodeId referenceNextHop(const OverlayNetwork& net, NodeId from, NodeId to);

} // namespace cop::net
