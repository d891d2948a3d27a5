// Shortest-path-first routing with ECMP, exactly the algorithm named in
// the paper's evaluation, plus the constrained clockwise routing that the
// Figure 1 ring scenario needs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "topo/builders.hpp"
#include "topo/topology.hpp"

namespace gfc::topo {

/// Equal-cost next hops for every (node, destination) pair, flat: one
/// {offset, count} reference per pair into a single hop pool, the layout
/// net::SwitchNode's route table uses. No pair owns a heap block (a k=16
/// table has 1.8M pairs).
class RoutingTable {
 public:
  RoutingTable() = default;
  explicit RoutingTable(std::size_t node_count)
      : n_(node_count), refs_(node_count * node_count) {}

  /// Equal-cost next-hop *nodes* from `at` toward destination host `dst`.
  /// The view stays valid until the next set_next_hops() on this table.
  std::span<const NodeIndex> next_hops(NodeIndex at, NodeIndex dst) const {
    const HopRef ref = refs_[idx(at, dst)];
    return {pool_.data() + ref.off, ref.n};
  }
  /// Replace the entry. A list no longer than the old one is written in
  /// place; a longer one takes fresh slots at the pool's end (the old
  /// slots stay unused). `hops` may view this table's own pool.
  void set_next_hops(NodeIndex at, NodeIndex dst, std::span<const NodeIndex> hops);
  void set_next_hops(NodeIndex at, NodeIndex dst,
                     std::initializer_list<NodeIndex> hops) {
    set_next_hops(at, dst, std::span<const NodeIndex>(hops.begin(), hops.size()));
  }

  /// The exact node sequence a flow with `salt` follows (replicates the
  /// switch data-path ECMP hash). Empty if unroutable or a loop is hit.
  std::vector<NodeIndex> trace(NodeIndex src, NodeIndex dst,
                               std::uint64_t salt) const;

  bool routable(NodeIndex src, NodeIndex dst) const {
    return !next_hops(src, dst).empty();
  }

  std::size_t node_count() const { return n_; }

 private:
  struct HopRef {
    std::uint32_t off = 0;
    std::uint32_t n = 0;
  };
  std::size_t idx(NodeIndex at, NodeIndex dst) const {
    return static_cast<std::size_t>(at) * n_ + static_cast<std::size_t>(dst);
  }
  std::size_t n_ = 0;
  std::vector<HopRef> refs_;     // n_ x n_, row = at, column = dst
  std::vector<NodeIndex> pool_;  // every entry's hops
};

/// BFS all-shortest-paths toward every host, over up links.
RoutingTable compute_shortest_paths(const Topology& topo);

/// Ring scenario: every switch forwards non-local destinations clockwise
/// (S_i -> S_{i+1}). This pinned routing is what creates the cyclic buffer
/// dependency of Figure 1.
RoutingTable ring_clockwise_routes(const Topology& topo, const RingInfo& ring);

}  // namespace gfc::topo
