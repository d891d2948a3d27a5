// Cyclic-buffer-dependency (CBD) analysis — the circular-wait condition.
//
// Vertices of the dependency graph are directed switch-to-switch links
// (equivalently: the downstream ingress buffer each link feeds). A flow
// whose path crosses switches ... -> s1 -> s2 -> s3 -> ... makes the buffer
// at (s1->s2) depend on the buffer at (s2->s3). A directed cycle is a CBD.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace gfc::topo {

/// A directed switch-to-switch hop.
using DirectedLink = std::pair<NodeIndex, NodeIndex>;

struct CbdResult {
  bool has_cbd = false;
  /// One witness cycle of directed links (empty if none), in canonical
  /// form: rotated so the smallest DirectedLink (lexicographic (from, to)
  /// order) leads. See find_cycle() for which cycle is selected.
  std::vector<DirectedLink> cycle;
};

class BufferDependencyGraph {
 public:
  /// Sizes the dense vertex index for the topology's switches; switches
  /// added to `topo` afterwards cannot be vertices.
  explicit BufferDependencyGraph(const Topology& topo);

  /// Add the dependencies induced by one concrete flow path (node ids).
  void add_path(const std::vector<NodeIndex>& path);

  /// Add dependencies for *every* ECMP option toward *every* host: the
  /// union routing closure. A cycle here means the scenario is CBD-prone
  /// (the pre-filter used for Table 1). Destinations are taken in hosts()
  /// order; toward each, only switches some source host can reach along
  /// the ECMP next-hop graph contribute, in node order.
  void add_routing_closure(const RoutingTable& routing);

  /// One witness cycle, deterministically selected: a DFS in ascending
  /// vertex order (vertices are numbered by first insertion, itself a
  /// deterministic function of the added paths/closure) reports the first
  /// back edge it meets, and the witness is rotated so its smallest
  /// DirectedLink comes first. Exhaustive enumeration with per-cycle
  /// metadata lives in analyze::enumerate_cbd (src/analyze/).
  CbdResult find_cycle() const;

  std::size_t vertex_count() const { return vertices_.size(); }

  /// Vertex i's directed link. Exposed for the static analyzer.
  const std::vector<DirectedLink>& links() const { return vertices_; }
  /// Out-edges per vertex, in insertion order. Exposed for the analyzer.
  const std::vector<std::vector<int>>& adjacency() const { return edges_; }

 private:
  int vertex(DirectedLink l);
  void add_edge(int a, int b);

  const Topology* topo_;
  /// Switch ordinal of every node (-1 for hosts): the rows and columns of
  /// vertex_ids_.
  std::vector<int> ordinal_;
  std::size_t switch_count_ = 0;
  /// Vertex id of each (from, to) switch-ordinal pair, -1 while absent.
  /// Dense rather than a map: a k=16 fat-tree is 320^2 ints (0.4 MB), and
  /// the closure looks a link up ~20M times.
  std::vector<int> vertex_ids_;
  std::vector<DirectedLink> vertices_;
  std::vector<std::vector<int>> edges_;
};

/// Rotate a cycle of directed links so the smallest link (lexicographic
/// (from, to) order) comes first. The canonical form every witness and
/// enumerated cycle is reported in.
void canonicalize_cycle(std::vector<DirectedLink>* cycle);

/// "S0->S1 -> S1->S2 -> S2->S0" — a cycle rendered with topology names.
std::string describe_links(const Topology& topo,
                           const std::vector<DirectedLink>& cycle);

/// Convenience: is the routed topology CBD-prone at all?
bool cbd_prone(const Topology& topo, const RoutingTable& routing);

}  // namespace gfc::topo
