#include "topo/routing.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "net/ecmp.hpp"

namespace gfc::topo {

void RoutingTable::set_next_hops(NodeIndex at, NodeIndex dst,
                                 std::span<const NodeIndex> hops) {
  HopRef& ref = refs_[idx(at, dst)];
  const auto count = static_cast<std::uint32_t>(hops.size());
  const NodeIndex* src = hops.data();
  if (count > ref.n) {
    // Growing may move the pool, so a view into it is re-based by index.
    const std::less<const NodeIndex*> less;
    const bool pooled =
        !less(src, pool_.data()) && less(src, pool_.data() + pool_.size());
    const auto from = pooled ? static_cast<std::size_t>(src - pool_.data()) : 0;
    ref.off = static_cast<std::uint32_t>(pool_.size());
    pool_.resize(pool_.size() + count);
    if (pooled) src = pool_.data() + from;
  }
  ref.n = count;
  // Distinct entries never share slots: only a self-copy aliases.
  NodeIndex* const out = pool_.data() + ref.off;
  if (count != 0 && src != out) std::copy_n(src, count, out);
}

std::vector<NodeIndex> RoutingTable::trace(NodeIndex src, NodeIndex dst,
                                           std::uint64_t salt) const {
  std::vector<NodeIndex> path{src};
  NodeIndex at = src;
  while (at != dst) {
    if (path.size() > n_) return {};  // loop guard
    const auto hops = next_hops(at, dst);
    if (hops.empty()) return {};
    const std::size_t pick =
        hops.size() == 1 ? 0 : net::ecmp_select(salt, at, hops.size());
    at = hops[pick];
    path.push_back(at);
  }
  return path;
}

RoutingTable compute_shortest_paths(const Topology& topo) {
  const std::size_t n = topo.node_count();
  RoutingTable table(n);
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> dist(n);
  // The BFS queue is a plain array: each node enters it at most once per
  // destination. `hops` collects one entry before it is copied into the
  // table's pool; both are reused across every destination.
  std::vector<NodeIndex> bfs(n);
  std::vector<NodeIndex> hops;
  for (NodeIndex dst : topo.hosts()) {
    dist.assign(n, kInf);
    dist[static_cast<std::size_t>(dst)] = 0;
    std::size_t head = 0, tail = 0;
    bfs[tail++] = dst;
    while (head < tail) {
      const NodeIndex v = bfs[head++];
      for (const auto& [nbr, link] : topo.neighbors(v)) {
        // Hosts never transit traffic: only the destination itself may be
        // an intermediate BFS node on the host layer.
        if (topo.is_host(nbr)) continue;
        if (dist[static_cast<std::size_t>(nbr)] == kInf) {
          dist[static_cast<std::size_t>(nbr)] = dist[static_cast<std::size_t>(v)] + 1;
          bfs[tail++] = nbr;
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      const NodeIndex at = static_cast<NodeIndex>(v);
      if (at == dst) continue;
      hops.clear();
      if (topo.is_host(at)) {
        // Source hosts (BFS never labels them) exit via their closest
        // attached switch(es).
        int best = kInf;
        for (const auto& [nbr, link] : topo.neighbors(at)) {
          if (topo.is_host(nbr)) continue;
          const int d = dist[static_cast<std::size_t>(nbr)];
          if (d < best) {
            best = d;
            hops.assign(1, nbr);
          } else if (d == best && d != kInf) {
            hops.push_back(nbr);
          }
        }
      } else {
        if (dist[v] == kInf) continue;
        for (const auto& [nbr, link] : topo.neighbors(at)) {
          const int d_nbr =
              nbr == dst
                  ? 0
                  : (topo.is_host(nbr) ? kInf : dist[static_cast<std::size_t>(nbr)]);
          if (d_nbr != kInf && d_nbr == dist[v] - 1) hops.push_back(nbr);
        }
      }
      if (!hops.empty()) table.set_next_hops(at, dst, hops);
    }
  }
  return table;
}

RoutingTable ring_clockwise_routes(const Topology& topo, const RingInfo& ring) {
  RoutingTable table(topo.node_count());
  const int n = static_cast<int>(ring.switches.size());
  for (int d = 0; d < n; ++d) {
    const NodeIndex dst = ring.hosts[static_cast<std::size_t>(d)];
    // Host sources go to their local switch.
    for (int s = 0; s < n; ++s) {
      if (s != d)
        table.set_next_hops(ring.hosts[static_cast<std::size_t>(s)], dst,
                            {ring.switches[static_cast<std::size_t>(s)]});
    }
    for (int s = 0; s < n; ++s) {
      const NodeIndex at = ring.switches[static_cast<std::size_t>(s)];
      if (s == d) {
        table.set_next_hops(at, dst, {dst});
      } else {
        table.set_next_hops(at, dst,
                            {ring.switches[static_cast<std::size_t>((s + 1) % n)]});
      }
    }
  }
  return table;
}

}  // namespace gfc::topo
