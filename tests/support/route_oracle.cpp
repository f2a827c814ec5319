#include "support/route_oracle.hpp"

#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "util/error.hpp"

namespace cop::net {

NodeId referenceNextHop(const OverlayNetwork& net, NodeId from, NodeId to) {
    const std::size_t n = net.numNodes();
    COP_REQUIRE(from >= 0 && std::size_t(from) < n && to >= 0 &&
                    std::size_t(to) < n,
                "reference router needs registered node ids");
    if (from == to) return to;
    if (!net.nodeUp(from) || !net.nodeUp(to)) return kInvalidNode;
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<NodeId> firstHop(n, kInvalidNode);
    using QE = std::pair<double, NodeId>;
    std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
    dist[std::size_t(from)] = 0.0;
    pq.push({0.0, from});
    while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d > dist[std::size_t(u)]) continue;
        if (u == to) break;
        for (NodeId v : net.neighbors(u)) {
            if (!net.linkUsable(u, v)) continue;
            const double nd = d + net.linkProperties(u, v).latency;
            if (nd < dist[std::size_t(v)]) {
                dist[std::size_t(v)] = nd;
                firstHop[std::size_t(v)] =
                    (u == from) ? v : firstHop[std::size_t(u)];
                pq.push({nd, v});
            }
        }
    }
    return firstHop[std::size_t(to)];
}

} // namespace cop::net
