// Unit tests for topologies, routing, CBD analysis and scenario generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "analyze/scenario.hpp"
#include "mech/cbd_routing.hpp"
#include "reference_bdg.hpp"
#include "topo/scenario_gen.hpp"

namespace gfc::topo {
namespace {

TEST(Topology, RingShape) {
  Topology t;
  const RingInfo info = build_ring(t, 3);
  EXPECT_EQ(t.node_count(), 6u);
  EXPECT_EQ(t.link_count(), 6u);  // 3 host links + 3 ring links
  EXPECT_EQ(t.hosts().size(), 3u);
  EXPECT_EQ(t.switches().size(), 3u);
  EXPECT_EQ(t.switch_links().size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(t.rack_of(info.hosts[static_cast<std::size_t>(i)]),
              info.switches[static_cast<std::size_t>(i)]);
}

TEST(Topology, FatTreeK4Shape) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  EXPECT_EQ(ft.hosts.size(), 16u);
  EXPECT_EQ(ft.edges.size(), 8u);
  EXPECT_EQ(ft.aggs.size(), 8u);
  EXPECT_EQ(ft.cores.size(), 4u);
  // Links: host-edge 16, edge-agg 4*2*2=16, agg-core 4*2*2=16.
  EXPECT_EQ(t.link_count(), 48u);
  EXPECT_EQ(t.switch_links().size(), 32u);
  // Host ids are pod-major and contiguous: H0..H3 pod 0, H4..H7 pod 1...
  EXPECT_EQ(ft.pod_of_host(ft.hosts[0]), 0);
  EXPECT_EQ(ft.pod_of_host(ft.hosts[4]), 1);
  EXPECT_EQ(ft.pod_of_host(ft.hosts[13]), 3);
  EXPECT_TRUE(t.hosts_connected());
}

TEST(Topology, FatTreeK8Shape) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 8);
  EXPECT_EQ(ft.hosts.size(), 128u);
  EXPECT_EQ(ft.edges.size(), 32u);
  EXPECT_EQ(ft.aggs.size(), 32u);
  EXPECT_EQ(ft.cores.size(), 16u);
  EXPECT_TRUE(t.hosts_connected());
}

TEST(Topology, FailRestoreLinks) {
  Topology t;
  build_ring(t, 3);
  const auto sw_links = t.switch_links();
  t.fail_link(sw_links[0]);
  EXPECT_FALSE(t.link(sw_links[0]).up);
  EXPECT_TRUE(t.hosts_connected());  // ring survives one failure
  t.fail_link(sw_links[1]);
  t.fail_link(sw_links[2]);
  EXPECT_FALSE(t.hosts_connected());
  t.restore_all();
  EXPECT_TRUE(t.hosts_connected());
}

TEST(Routing, ShortestPathsOnFatTree) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  const RoutingTable routing = compute_shortest_paths(t);
  // Same-pod different-rack: 2 switch hops (edge-agg-edge), path length 5.
  const auto same_pod = routing.trace(ft.hosts[0], ft.hosts[2], 7);
  EXPECT_EQ(same_pod.size(), 5u);
  // Cross-pod: 4 switch-to-switch hops via a core, path length 7.
  const auto cross_pod = routing.trace(ft.hosts[0], ft.hosts[8], 7);
  EXPECT_EQ(cross_pod.size(), 7u);
  EXPECT_EQ(cross_pod.front(), ft.hosts[0]);
  EXPECT_EQ(cross_pod.back(), ft.hosts[8]);
}

TEST(Routing, EcmpUsesMultiplePaths) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  const RoutingTable routing = compute_shortest_paths(t);
  std::set<std::vector<NodeIndex>> distinct;
  for (std::uint64_t salt = 0; salt < 32; ++salt)
    distinct.insert(routing.trace(ft.hosts[0], ft.hosts[8], salt));
  // k=4 has 4 core paths between pods.
  EXPECT_GE(distinct.size(), 3u);
}

TEST(Routing, TraceMatchesNextHops) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  const RoutingTable routing = compute_shortest_paths(t);
  const auto path = routing.trace(ft.hosts[1], ft.hosts[15], 99);
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    const auto& hops = routing.next_hops(path[i], ft.hosts[15]);
    EXPECT_NE(std::find(hops.begin(), hops.end(), path[i + 1]), hops.end());
  }
}

TEST(Routing, UnroutableAfterDisconnection) {
  Topology t;
  const RingInfo info = build_ring(t, 3);
  for (LinkIndex l : t.switch_links()) t.fail_link(l);
  const RoutingTable routing = compute_shortest_paths(t);
  EXPECT_TRUE(routing.trace(info.hosts[0], info.hosts[1], 0).empty());
  EXPECT_FALSE(routing.routable(info.hosts[0], info.hosts[1]));
  // Local rack still reachable.
  EXPECT_TRUE(routing.routable(info.hosts[0], info.hosts[0]) == false ||
              true);  // self-routing is unused; just must not crash
}

TEST(Routing, RingClockwiseIsCyclic) {
  Topology t;
  const RingInfo info = build_ring(t, 3);
  const RoutingTable routing = ring_clockwise_routes(t, info);
  const auto path = routing.trace(info.hosts[0], info.hosts[2], 0);
  // H0 -> S0 -> S1 -> S2 -> H2 (two inter-switch hops, never the short way).
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path[1], info.switches[0]);
  EXPECT_EQ(path[2], info.switches[1]);
  EXPECT_EQ(path[3], info.switches[2]);
}

TEST(Cbd, RingRoutingIsCbdProne) {
  Topology t;
  const RingInfo info = build_ring(t, 3);
  EXPECT_TRUE(cbd_prone(t, ring_clockwise_routes(t, info)));
}

TEST(Cbd, HealthyFatTreeIsCbdFree) {
  // Up-down routing on an intact fat-tree can never create a CBD.
  Topology t;
  build_fattree(t, 4);
  EXPECT_FALSE(cbd_prone(t, compute_shortest_paths(t)));
}

TEST(Cbd, PathDependencies) {
  Topology t;
  const RingInfo info = build_ring(t, 3);
  BufferDependencyGraph g(t);
  // Two paths that chain around the ring close a cycle; one alone doesn't.
  const auto s = [&](int i) { return info.switches[static_cast<std::size_t>(i)]; };
  g.add_path({info.hosts[0], s(0), s(1), s(2), info.hosts[2]});
  EXPECT_FALSE(g.find_cycle().has_cbd);
  g.add_path({info.hosts[1], s(1), s(2), s(0), info.hosts[0]});
  EXPECT_FALSE(g.find_cycle().has_cbd);
  g.add_path({info.hosts[2], s(2), s(0), s(1), info.hosts[1]});
  const CbdResult r = g.find_cycle();
  EXPECT_TRUE(r.has_cbd);
  EXPECT_EQ(r.cycle.size(), 3u);
}

TEST(Cbd, WitnessCycleIsConsistent) {
  Topology t;
  const RingInfo info = build_ring(t, 4);
  BufferDependencyGraph g(t);
  const auto s = [&](int i) { return info.switches[static_cast<std::size_t>(i)]; };
  for (int i = 0; i < 4; ++i)
    g.add_path({info.hosts[static_cast<std::size_t>(i)], s(i), s((i + 1) % 4),
                s((i + 2) % 4), info.hosts[static_cast<std::size_t>((i + 2) % 4)]});
  const CbdResult r = g.find_cycle();
  ASSERT_TRUE(r.has_cbd);
  // Consecutive cycle entries must chain: (a,b) -> (b,c).
  for (std::size_t i = 0; i < r.cycle.size(); ++i)
    EXPECT_EQ(r.cycle[i].second, r.cycle[(i + 1) % r.cycle.size()].first);
}

TEST(ScenarioGen, RandomFailuresKeepHostsConnected) {
  Topology t;
  build_fattree(t, 4);
  sim::Rng rng(5);
  const auto failed = random_failures(t, rng, 0.2);
  EXPECT_TRUE(t.hosts_connected());
  for (LinkIndex l : failed) EXPECT_FALSE(t.link(l).up);
}

TEST(ScenarioGen, ZeroProbabilityFailsNothing) {
  Topology t;
  build_fattree(t, 4);
  sim::Rng rng(5);
  EXPECT_TRUE(random_failures(t, rng, 0.0).empty());
}

TEST(ScenarioGen, Fig11CaseHasQualifyingCbd) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  const auto cases = find_fig11_cases(t, ft, 1);
  ASSERT_FALSE(cases.empty());
  const Fig11Case& c = cases.front();
  EXPECT_EQ(c.failed_links.size(), 3u);
  EXPECT_GE(c.cbd.cycle.size(), 4u);
  // Cycle lives above the edge layer.
  for (const auto& [a, b] : c.cbd.cycle) {
    EXPECT_GE(t.node(a).layer, 2);
    EXPECT_GE(t.node(b).layer, 2);
  }
  // The four paper flows are the endpoints.
  EXPECT_EQ(c.flows[0].first, ft.hosts[0]);
  EXPECT_EQ(c.flows[0].second, ft.hosts[8]);
  EXPECT_EQ(c.flows[3].first, ft.hosts[13]);
  EXPECT_EQ(c.flows[3].second, ft.hosts[5]);
}

TEST(ScenarioGen, CbdStressCoversCycle) {
  Topology t;
  build_fattree(t, 4);
  // Find a prone topology, then cover its cycle.
  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    t.restore_all();
    sim::Rng rng(seed);
    random_failures(t, rng, 0.05);
    const RoutingTable routing = compute_shortest_paths(t);
    BufferDependencyGraph g(t);
    g.add_routing_closure(routing);
    const CbdResult cbd = g.find_cycle();
    if (!cbd.has_cbd) continue;
    const CbdStress stress = build_cbd_stress(t, routing, cbd.cycle, rng);
    if (!stress.covered) continue;
    // The realized stress paths must themselves form a CBD.
    BufferDependencyGraph realized(t);
    for (const auto& f : stress.flows)
      realized.add_path(routing.trace(f.src, f.dst, f.salt));
    EXPECT_TRUE(realized.find_cycle().has_cbd);
    return;
  }
  GTEST_SKIP() << "no coverable CBD-prone case in seed range";
}

// --- flat routing table ------------------------------------------------------

std::vector<NodeIndex> hops_of(const RoutingTable& t, NodeIndex at, NodeIndex dst) {
  const auto hops = t.next_hops(at, dst);
  return {hops.begin(), hops.end()};
}

TEST(FlatRoutingTable, EntriesStartEmpty) {
  const RoutingTable empty;
  EXPECT_EQ(empty.node_count(), 0u);
  const RoutingTable t(4);
  EXPECT_EQ(t.node_count(), 4u);
  for (NodeIndex at = 0; at < 4; ++at)
    for (NodeIndex dst = 0; dst < 4; ++dst) {
      EXPECT_TRUE(t.next_hops(at, dst).empty());
      EXPECT_FALSE(t.routable(at, dst));
    }
}

TEST(FlatRoutingTable, OverwriteOneEntry) {
  RoutingTable t(5);
  t.set_next_hops(0, 4, {1, 2});
  t.set_next_hops(1, 4, {3});
  t.set_next_hops(2, 4, {3, 4, 1});
  // Shorter: written in place. Neighbouring entries are untouched.
  t.set_next_hops(0, 4, {2});
  EXPECT_EQ(hops_of(t, 0, 4), (std::vector<NodeIndex>{2}));
  EXPECT_EQ(hops_of(t, 1, 4), (std::vector<NodeIndex>{3}));
  EXPECT_EQ(hops_of(t, 2, 4), (std::vector<NodeIndex>{3, 4, 1}));
  // Longer: fresh slots.
  t.set_next_hops(1, 4, {4, 0, 2});
  EXPECT_EQ(hops_of(t, 1, 4), (std::vector<NodeIndex>{4, 0, 2}));
  EXPECT_EQ(hops_of(t, 0, 4), (std::vector<NodeIndex>{2}));
  EXPECT_EQ(hops_of(t, 2, 4), (std::vector<NodeIndex>{3, 4, 1}));
  // A view of the table's own pool, copied onto a longer and a shorter entry
  // and onto itself.
  t.set_next_hops(3, 4, t.next_hops(2, 4));
  EXPECT_EQ(hops_of(t, 3, 4), (std::vector<NodeIndex>{3, 4, 1}));
  t.set_next_hops(2, 4, t.next_hops(0, 4));
  EXPECT_EQ(hops_of(t, 2, 4), (std::vector<NodeIndex>{2}));
  t.set_next_hops(1, 4, t.next_hops(1, 4));
  EXPECT_EQ(hops_of(t, 1, 4), (std::vector<NodeIndex>{4, 0, 2}));
  // Enough pooled copies that the pool must grow, and move, under some.
  for (NodeIndex at = 0; at < 5; ++at)
    for (NodeIndex dst = 0; dst < 4; ++dst) {
      t.set_next_hops(at, dst, t.next_hops(3, 4));
      EXPECT_EQ(hops_of(t, at, dst), (std::vector<NodeIndex>{3, 4, 1}));
    }
  // Cleared.
  t.set_next_hops(1, 4, std::vector<NodeIndex>{});
  EXPECT_FALSE(t.routable(1, 4));
  EXPECT_TRUE(t.routable(3, 4));
}

TEST(FlatRoutingTable, CopyAndMove) {
  RoutingTable t(3);
  t.set_next_hops(0, 2, {1});
  t.set_next_hops(1, 2, {2});
  RoutingTable copy = t;
  copy.set_next_hops(0, 2, {2, 1});
  EXPECT_EQ(hops_of(t, 0, 2), (std::vector<NodeIndex>{1}));
  EXPECT_EQ(hops_of(copy, 0, 2), (std::vector<NodeIndex>{2, 1}));
  EXPECT_EQ(hops_of(copy, 1, 2), (std::vector<NodeIndex>{2}));
  RoutingTable moved = std::move(copy);
  EXPECT_EQ(moved.node_count(), 3u);
  EXPECT_EQ(hops_of(moved, 0, 2), (std::vector<NodeIndex>{2, 1}));
  RoutingTable assigned;
  assigned = moved;
  EXPECT_EQ(hops_of(assigned, 1, 2), (std::vector<NodeIndex>{2}));
  assigned = std::move(t);
  EXPECT_EQ(hops_of(assigned, 0, 2), (std::vector<NodeIndex>{1}));
}

// --- equivalence with the nested-vector / map-indexed reference --------------

void expect_same_hops(const RoutingTable& flat,
                      const testref::ReferenceRoutingTable& ref,
                      const std::string& label) {
  ASSERT_EQ(flat.node_count(), ref.node_count()) << label;
  const auto n = static_cast<NodeIndex>(flat.node_count());
  for (NodeIndex at = 0; at < n; ++at)
    for (NodeIndex dst = 0; dst < n; ++dst)
      ASSERT_EQ(hops_of(flat, at, dst), ref.next_hops(at, dst))
          << label << ": at " << at << " dst " << dst;
}

/// Same vertex numbering, same edge order, same witness. Returns whether
/// the closure has a CBD.
bool expect_same_graph(const Topology& t, const RoutingTable& routing,
                       const std::string& label) {
  BufferDependencyGraph g(t);
  g.add_routing_closure(routing);
  testref::ReferenceBdg ref(t);
  ref.add_routing_closure(testref::ReferenceRoutingTable::copy_of(routing));
  EXPECT_EQ(g.links(), ref.links()) << label;
  EXPECT_EQ(g.adjacency(), ref.adjacency()) << label;
  const CbdResult a = g.find_cycle();
  const CbdResult b = ref.find_cycle();
  EXPECT_EQ(a.has_cbd, b.has_cbd) << label;
  EXPECT_EQ(a.cycle, b.cycle) << label;
  EXPECT_EQ(cbd_prone(t, routing), b.has_cbd) << label;
  return b.has_cbd;
}

TEST(ReferenceEquivalence, RingTables) {
  for (int n = 3; n <= 5; ++n) {
    Topology t;
    const RingInfo info = build_ring(t, n);
    const std::string label = "ring:" + std::to_string(n);
    expect_same_hops(compute_shortest_paths(t),
                     testref::reference_shortest_paths(t), label);
    expect_same_graph(t, compute_shortest_paths(t), label + " spf");
    EXPECT_TRUE(expect_same_graph(t, ring_clockwise_routes(t, info),
                                  label + " clockwise"));
  }
}

TEST(ReferenceEquivalence, Loop2Table) {
  analyze::BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(analyze::build_scenario("loop2", &sc, &err)) << err;
  EXPECT_TRUE(expect_same_graph(sc.topo, sc.routing, "loop2"));
}

TEST(ReferenceEquivalence, FailedFatTrees) {
  // k=4 at two failure rates and k=8 at one, each seeded; shortest-path
  // and up*/down* tables on every one. Some must be CBD-prone, or the
  // witness comparison would only ever see empty cycles.
  struct Case {
    int k;
    double p;
    std::uint64_t seeds;
  };
  int prone = 0;
  for (const Case c : {Case{4, 0.05, 16}, Case{4, 0.15, 16}, Case{8, 0.05, 4}}) {
    Topology t;
    build_fattree(t, c.k);
    for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
      t.restore_all();
      sim::Rng rng(seed);
      random_failures(t, rng, c.p);
      const std::string label = "fattree:" + std::to_string(c.k) +
                                " p=" + std::to_string(c.p) +
                                " seed=" + std::to_string(seed);
      const RoutingTable spf = compute_shortest_paths(t);
      expect_same_hops(spf, testref::reference_shortest_paths(t), label);
      if (expect_same_graph(t, spf, label + " spf")) ++prone;
      EXPECT_FALSE(expect_same_graph(t, mech::cbd_free_routes(t, nullptr),
                                     label + " up*/down*"));
    }
  }
  EXPECT_GT(prone, 0);
}

TEST(ReferenceEquivalence, TracedPaths) {
  // add_path numbers vertices and orders edges as the reference does.
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  sim::Rng rng(7);
  random_failures(t, rng, 0.15);
  const RoutingTable routing = compute_shortest_paths(t);
  BufferDependencyGraph g(t);
  testref::ReferenceBdg ref(t);
  for (std::size_t i = 0; i < ft.hosts.size(); ++i)
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
      const auto path = routing.trace(
          ft.hosts[i], ft.hosts[(i * 5 + salt + 3) % ft.hosts.size()], salt);
      g.add_path(path);
      ref.add_path(path);
    }
  EXPECT_EQ(g.links(), ref.links());
  EXPECT_EQ(g.adjacency(), ref.adjacency());
  EXPECT_EQ(g.find_cycle().cycle, ref.find_cycle().cycle);
}

}  // namespace
}  // namespace gfc::topo
