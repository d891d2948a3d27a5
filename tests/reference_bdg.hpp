// Reference routing table, shortest-path routing and buffer-dependency
// graph for equivalence testing.
//
// These are the nested-vector src/topo/routing.{hpp,cpp} and the
// std::map-indexed src/topo/cbd.{hpp,cpp} that preceded the flat hop pool
// and the dense switch-ordinal vertex index, kept (merged into one header,
// renamed Reference*) as the executable specification of what the
// production structures must reproduce: the same hop lists in the same
// order, the same vertex numbering, the same edge insertion order, and so
// the same find_cycle() witness.
//
// tests/topo_test.cpp builds both sides over ring, loop2, randomly failed
// fat-trees and up*/down* tables and asserts they agree. Keep the
// semantics here frozen; when the production contract changes on purpose,
// change this file in the same commit and say so in the test.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "topo/cbd.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace gfc::topo::testref {

/// One heap vector of next hops per (node, dst).
class ReferenceRoutingTable {
 public:
  explicit ReferenceRoutingTable(std::size_t node_count) : n_(node_count) {
    table_.resize(n_ * n_);
  }

  /// A copy of a production table's hop lists, for feeding tables the
  /// reference has no builder for (up*/down*, hand-written) to
  /// ReferenceBdg.
  static ReferenceRoutingTable copy_of(const RoutingTable& routing) {
    ReferenceRoutingTable out(routing.node_count());
    for (std::size_t at = 0; at < out.n_; ++at)
      for (std::size_t dst = 0; dst < out.n_; ++dst) {
        const auto hops = routing.next_hops(static_cast<NodeIndex>(at),
                                            static_cast<NodeIndex>(dst));
        out.table_[at * out.n_ + dst].assign(hops.begin(), hops.end());
      }
    return out;
  }

  const std::vector<NodeIndex>& next_hops(NodeIndex at, NodeIndex dst) const {
    return table_[idx(at, dst)];
  }
  void set_next_hops(NodeIndex at, NodeIndex dst, std::vector<NodeIndex> hops) {
    table_[idx(at, dst)] = std::move(hops);
  }
  std::size_t node_count() const { return n_; }

 private:
  std::size_t idx(NodeIndex at, NodeIndex dst) const {
    return static_cast<std::size_t>(at) * n_ + static_cast<std::size_t>(dst);
  }
  std::size_t n_ = 0;
  std::vector<std::vector<NodeIndex>> table_;
};

/// BFS all-shortest-paths toward every host, over up links.
inline ReferenceRoutingTable reference_shortest_paths(const Topology& topo) {
  const std::size_t n = topo.node_count();
  ReferenceRoutingTable table(n);
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> dist(n);
  for (NodeIndex dst : topo.hosts()) {
    dist.assign(n, kInf);
    dist[static_cast<std::size_t>(dst)] = 0;
    std::deque<NodeIndex> bfs{dst};
    while (!bfs.empty()) {
      const NodeIndex v = bfs.front();
      bfs.pop_front();
      for (const auto& [nbr, link] : topo.neighbors(v)) {
        if (topo.is_host(nbr)) continue;
        if (dist[static_cast<std::size_t>(nbr)] == kInf) {
          dist[static_cast<std::size_t>(nbr)] = dist[static_cast<std::size_t>(v)] + 1;
          bfs.push_back(nbr);
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      const NodeIndex at = static_cast<NodeIndex>(v);
      if (at == dst) continue;
      std::vector<NodeIndex> hops;
      if (topo.is_host(at)) {
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
      if (!hops.empty()) table.set_next_hops(at, dst, std::move(hops));
    }
  }
  return table;
}

/// One step of a destination's closure construction: ensure the vertex
/// for `a` exists; when `edge` is set, also ensure `b`'s vertex and append
/// the (deduplicated) dependency edge a -> b.
struct ReferenceClosureOp {
  DirectedLink a;
  DirectedLink b;
  bool edge = false;
};

/// The map-indexed graph: vertex ids come from a std::map lookup per op.
class ReferenceBdg {
 public:
  explicit ReferenceBdg(const Topology& topo) : topo_(&topo) {}

  void add_path(const std::vector<NodeIndex>& path) {
    std::vector<DirectedLink> hops;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!topo_->is_host(path[i]) && !topo_->is_host(path[i + 1]))
        hops.push_back({path[i], path[i + 1]});
    }
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      const int a = vertex(hops[i]);
      const int b = vertex(hops[i + 1]);
      auto& out = edges_[static_cast<std::size_t>(a)];
      if (std::find(out.begin(), out.end(), b) == out.end()) out.push_back(b);
    }
  }

  /// One destination's closure ops, then their replay, for every host.
  void add_routing_closure(const ReferenceRoutingTable& routing) {
    for (NodeIndex dst : topo_->hosts()) apply_ops(closure_ops(routing, dst));
  }

  CbdResult find_cycle() const {
    CbdResult result;
    const int n = static_cast<int>(vertices_.size());
    std::vector<int> color(static_cast<std::size_t>(n), 0);
    std::vector<int> parent(static_cast<std::size_t>(n), -1);
    for (int root = 0; root < n; ++root) {
      if (color[static_cast<std::size_t>(root)] != 0) continue;
      std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
      color[static_cast<std::size_t>(root)] = 1;
      while (!stack.empty()) {
        auto& [v, next_edge] = stack.back();
        const auto& out = edges_[static_cast<std::size_t>(v)];
        if (next_edge < out.size()) {
          const int w = out[next_edge++];
          if (color[static_cast<std::size_t>(w)] == 0) {
            color[static_cast<std::size_t>(w)] = 1;
            parent[static_cast<std::size_t>(w)] = v;
            stack.push_back({w, 0});
          } else if (color[static_cast<std::size_t>(w)] == 1) {
            result.has_cbd = true;
            std::vector<int> cyc{v};
            for (int u = v; u != w; u = parent[static_cast<std::size_t>(u)])
              cyc.push_back(parent[static_cast<std::size_t>(u)]);
            std::reverse(cyc.begin(), cyc.end());
            for (int u : cyc)
              result.cycle.push_back(vertices_[static_cast<std::size_t>(u)]);
            canonicalize_cycle(&result.cycle);
            return result;
          }
        } else {
          color[static_cast<std::size_t>(v)] = 2;
          stack.pop_back();
        }
      }
    }
    return result;
  }

  const std::vector<DirectedLink>& links() const { return vertices_; }
  const std::vector<std::vector<int>>& adjacency() const { return edges_; }

 private:
  std::vector<ReferenceClosureOp> closure_ops(
      const ReferenceRoutingTable& routing, NodeIndex dst) const {
    const Topology& topo = *topo_;
    std::vector<ReferenceClosureOp> ops;
    std::vector<char> reachable(topo.node_count());
    std::vector<NodeIndex> frontier;
    for (NodeIndex s : topo.hosts()) {
      if (s == dst) continue;
      for (NodeIndex n : routing.next_hops(s, dst)) {
        if (!topo.is_host(n) && !reachable[static_cast<std::size_t>(n)]) {
          reachable[static_cast<std::size_t>(n)] = 1;
          frontier.push_back(n);
        }
      }
    }
    while (!frontier.empty()) {
      const NodeIndex v = frontier.back();
      frontier.pop_back();
      for (NodeIndex n : routing.next_hops(v, dst)) {
        if (!topo.is_host(n) && !reachable[static_cast<std::size_t>(n)]) {
          reachable[static_cast<std::size_t>(n)] = 1;
          frontier.push_back(n);
        }
      }
    }
    for (NodeIndex s : topo.switches()) {
      if (!reachable[static_cast<std::size_t>(s)]) continue;
      for (NodeIndex n : routing.next_hops(s, dst)) {
        if (topo.is_host(n)) continue;
        ops.push_back({{s, n}, {}, false});
        for (NodeIndex m : routing.next_hops(n, dst)) {
          if (topo.is_host(m)) continue;
          ops.push_back({{s, n}, {n, m}, true});
        }
      }
    }
    return ops;
  }

  void apply_ops(const std::vector<ReferenceClosureOp>& ops) {
    for (const ReferenceClosureOp& op : ops) {
      const int a = vertex(op.a);
      if (!op.edge) continue;
      const int b = vertex(op.b);
      auto& out = edges_[static_cast<std::size_t>(a)];
      if (std::find(out.begin(), out.end(), b) == out.end()) out.push_back(b);
    }
  }

  int vertex(DirectedLink l) {
    auto [it, inserted] =
        vertex_ids_.try_emplace(l, static_cast<int>(vertices_.size()));
    if (inserted) {
      vertices_.push_back(l);
      edges_.emplace_back();
    }
    return it->second;
  }

  const Topology* topo_;
  std::map<DirectedLink, int> vertex_ids_;
  std::vector<DirectedLink> vertices_;
  std::vector<std::vector<int>> edges_;
};

}  // namespace gfc::topo::testref
