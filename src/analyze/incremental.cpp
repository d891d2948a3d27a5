#include "analyze/incremental.hpp"

#include <algorithm>

#include "analyze/cycles.hpp"
#include "analyze/detail.hpp"

namespace gfc::analyze {

namespace {

/// Keep the SCC cycle cache bounded during long flap campaigns / large
/// failure sweeps. FIFO keeps eviction deterministic.
constexpr std::size_t kSccCacheCap = 64;

}  // namespace

bool IncrementalAnalyzer::DstCache::matches(const topo::RoutingTable& routing,
                                            topo::NodeIndex dst) const {
  const std::size_t n = routing.node_count();
  if (ends.size() != n) return false;
  std::size_t begin = 0;
  for (std::size_t x = 0; x < n; ++x) {
    const auto column = routing.next_hops(static_cast<topo::NodeIndex>(x), dst);
    const std::size_t end = ends[x];
    if (!std::equal(column.begin(), column.end(), hops.begin() + begin,
                    hops.begin() + end))
      return false;
    begin = end;
  }
  return true;
}

void IncrementalAnalyzer::DstCache::store(const topo::RoutingTable& routing,
                                          topo::NodeIndex dst) {
  ends.clear();
  hops.clear();
  for (std::size_t x = 0; x < routing.node_count(); ++x) {
    const auto column = routing.next_hops(static_cast<topo::NodeIndex>(x), dst);
    hops.insert(hops.end(), column.begin(), column.end());
    ends.push_back(static_cast<std::uint32_t>(hops.size()));
  }
}

const Report& IncrementalAnalyzer::update(const topo::RoutingTable& routing) {
  ++stats_.updates;
  const topo::Topology& topo = *in_.topo;
  const auto& hosts = topo.hosts();
  dst_cache_.resize(hosts.size());

  // Rebuild the graph as the from-scratch closure would: per destination
  // in hosts() order, replaying cached ops when the routing column toward
  // that destination is unchanged. apply_ops performs exactly the vertex
  // creations and edge appends add_routing_closure would, in the same
  // order, so vertex numbering and adjacency come out identical.
  topo::BufferDependencyGraph graph(topo);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const topo::NodeIndex dst = hosts[i];
    DstCache& cache = dst_cache_[i];
    if (cache.matches(routing, dst)) {
      ++stats_.dst_reused;
    } else {
      ++stats_.dst_recomputed;
      topo::destination_closure_ops(topo, routing, dst, &cache.ops);
      cache.store(routing, dst);
    }
    graph.apply_ops(cache.ops);
  }

  const auto& links = graph.links();
  const auto& adj = graph.adjacency();

  // Cycle enumeration per cyclic SCC, served from the shape cache when the
  // SCC's canonical link-form shape was seen before. Elementary cycles
  // never cross SCC boundaries, so the union over cyclic SCCs is the
  // whole-graph enumeration's cycle set.
  const auto sccs = strongly_connected_components(adj);
  detail::LinkCycles assembled;
  bool scc_truncated = false;
  for (const auto& comp : sccs) {
    const bool cyclic =
        comp.size() > 1 ||
        [&] {
          const auto& o = adj[static_cast<std::size_t>(comp.front())];
          return std::find(o.begin(), o.end(), comp.front()) != o.end();
        }();
    if (!cyclic) continue;

    SccShape shape;
    for (const int v : comp)
      shape.members.push_back(links[static_cast<std::size_t>(v)]);
    std::sort(shape.members.begin(), shape.members.end());
    std::vector<char> in_comp(adj.size(), 0);
    for (const int v : comp) in_comp[static_cast<std::size_t>(v)] = 1;
    for (const int v : comp)
      for (const int w : adj[static_cast<std::size_t>(v)])
        if (in_comp[static_cast<std::size_t>(w)])
          shape.edges.push_back({links[static_cast<std::size_t>(v)],
                                 links[static_cast<std::size_t>(w)]});
    std::sort(shape.edges.begin(), shape.edges.end());

    const auto hit =
        std::find_if(scc_cache_.begin(), scc_cache_.end(),
                     [&](const SccCacheEntry& e) { return e.shape == shape; });
    if (hit != scc_cache_.end()) {
      ++stats_.scc_reused;
      assembled.cycles.insert(assembled.cycles.end(), hit->cycles.begin(),
                              hit->cycles.end());
      continue;
    }

    ++stats_.scc_enumerations;
    Adjacency sub(adj.size());
    for (const int v : comp)
      for (const int w : adj[static_cast<std::size_t>(v)])
        if (in_comp[static_cast<std::size_t>(w)])
          sub[static_cast<std::size_t>(v)].push_back(w);
    const CycleEnumeration e = elementary_cycles(sub, in_.max_cycles);
    if (e.truncated) {
      // An incomplete per-SCC set can't be cached or unioned; the exact
      // fallback below reproduces the from-scratch result.
      scc_truncated = true;
      break;
    }
    detail::LinkCycles lc = detail::to_link_cycles(links, e);
    assembled.cycles.insert(assembled.cycles.end(), lc.cycles.begin(),
                            lc.cycles.end());
    if (scc_cache_.size() >= kSccCacheCap)
      scc_cache_.erase(scc_cache_.begin());
    scc_cache_.push_back({std::move(shape), std::move(lc.cycles)});
  }

  // Equivalence guard: the whole-graph enumeration caps the *total* at
  // max_cycles (and only reports truncated when a further cycle was
  // actually attempted past the cap). Per-SCC union can't tell which
  // cycles a capped run would have kept, so any truncation — or a union
  // larger than the cap — falls back to one exact enumeration on the
  // identical adjacency. Union <= cap implies the from-scratch run never
  // hit the cap either, so the assembled set is exactly its cycle set.
  Input in = in_;
  in.routing = &routing;
  if (scc_truncated || assembled.cycles.size() > in_.max_cycles) {
    ++stats_.full_fallbacks;
    report_ = detail::finish_report(
        in, links, adj,
        detail::to_link_cycles(links, elementary_cycles(adj, in_.max_cycles)));
  } else {
    report_ = detail::finish_report(in, links, adj, std::move(assembled));
  }
  return report_;
}

}  // namespace gfc::analyze
