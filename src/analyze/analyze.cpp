#include "analyze/analyze.hpp"

#include <algorithm>

#include "analyze/cycles.hpp"
#include "net/packet.hpp"

namespace gfc::analyze {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kDeadlockFree: return "deadlock_free";
    case Verdict::kSafe: return "safe";
    case Verdict::kAtRisk: return "at_risk";
  }
  return "?";
}

bool Report::bounds_ok() const {
  return std::all_of(bounds.begin(), bounds.end(),
                     [](const BoundCheck& b) { return b.ok; });
}

Verdict Report::verdict() const {
  if (cbd_free()) return Verdict::kDeadlockFree;
  // A truncated enumeration saw only a prefix of the cycle set: any
  // safety argument quantified over "all cycles" is void, whatever the
  // mechanism, so never report better than at_risk from it.
  if (truncated) return Verdict::kAtRisk;
  // Circular wait exists; the mechanism decides whether hold-and-wait can
  // complete the deadlock. PFC and CBFC block indefinitely once paused /
  // out of credit. GFC's rate floor means every port always drains — but
  // only while the proven bound holds; past it the queue can saturate and
  // the guarantee is void. With no flow control there is no backpressure
  // to wait on (the fabric drops instead).
  switch (mechanism_kind) {
    case runner::FcKind::kNone:
      return Verdict::kSafe;
    case runner::FcKind::kPfc:
    case runner::FcKind::kCbfc:
    // DCFIT *recovers from* deadlock rather than preventing it: the static
    // verdict stays at-risk (the CBD can still wedge; detection then drops
    // or bypasses its way out at runtime).
    case runner::FcKind::kDcfit:
      return Verdict::kAtRisk;
    case runner::FcKind::kGfcBuffer:
    case runner::FcKind::kGfcTime:
    case runner::FcKind::kGfcConceptual:
      return bounds_ok() ? Verdict::kSafe : Verdict::kAtRisk;
  }
  return Verdict::kAtRisk;
}

namespace {

using topo::DirectedLink;

/// Consecutive switch-to-switch hops of a concrete node path (the
/// dependency-edge construction of BufferDependencyGraph::add_path).
std::vector<DirectedLink> switch_hops(const topo::Topology& topo,
                                      const std::vector<topo::NodeIndex>& path) {
  std::vector<DirectedLink> hops;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    if (!topo.is_host(path[i]) && !topo.is_host(path[i + 1]))
      hops.push_back({path[i], path[i + 1]});
  return hops;
}

/// Per-cycle metadata over the enumeration, each cycle lifted to its
/// canonical link sequence (topo::canonicalize_cycle form): names, flow
/// coverage, activation.
void fill_cycle_infos(const Input& in, const std::vector<DirectedLink>& links,
                      const CycleEnumeration& enumeration, Report* rep) {
  rep->truncated = enumeration.truncated;

  // Dependency edges each configured flow induces along its traced path.
  std::vector<std::vector<std::pair<DirectedLink, DirectedLink>>> flow_edges;
  for (const FlowSpec& f : in.flows) {
    const auto hops =
        switch_hops(*in.topo, in.routing->trace(f.src, f.dst, f.salt));
    std::vector<std::pair<DirectedLink, DirectedLink>> edges;
    for (std::size_t i = 0; i + 1 < hops.size(); ++i)
      edges.push_back({hops[i], hops[i + 1]});
    flow_edges.push_back(std::move(edges));
  }

  for (const auto& cyc : enumeration.cycles) {
    CycleInfo info;
    for (const int v : cyc)
      info.links.push_back(links[static_cast<std::size_t>(v)]);
    topo::canonicalize_cycle(&info.links);
    for (const auto& [from, to] : info.links)
      info.link_names.push_back(in.topo->node(from).name + "->" +
                                in.topo->node(to).name);

    const std::size_t n = info.links.size();
    std::vector<char> edge_covered(n, 0);
    for (std::size_t fi = 0; fi < flow_edges.size(); ++fi) {
      bool touches = false;
      for (std::size_t e = 0; e < n; ++e) {
        const std::pair<DirectedLink, DirectedLink> edge{
            info.links[e], info.links[(e + 1) % n]};
        if (std::find(flow_edges[fi].begin(), flow_edges[fi].end(), edge) !=
            flow_edges[fi].end()) {
          edge_covered[e] = 1;
          touches = true;
        }
      }
      if (touches) info.flows.push_back(static_cast<int>(fi));
    }
    info.activated =
        n > 0 && !in.flows.empty() &&
        std::all_of(edge_covered.begin(), edge_covered.end(),
                    [](char c) { return c != 0; });
    rep->cycles.push_back(std::move(info));
  }
  // Canonical list order: by length, then by the link sequence itself.
  // Link form is numbering-independent, so this order is too.
  std::sort(rep->cycles.begin(), rep->cycles.end(),
            [](const CycleInfo& a, const CycleInfo& b) {
              if (a.links.size() != b.links.size())
                return a.links.size() < b.links.size();
              return a.links < b.links;
            });
}

void check_bounds(const Input& in, Report* rep) {
  const runner::FcSetup& fc = in.cfg.fc;
  const sim::Rate c = in.cfg.link.rate;
  const sim::TimePs tau = rep->tau_total;
  const std::int64_t capacity = in.cfg.switch_buffer;
  const std::int64_t mtu = in.cfg.link.mtu;
  const auto add = [rep](std::string name, std::string formula,
                         std::int64_t lhs, std::int64_t rhs) {
    rep->bounds.push_back(
        {std::move(name), std::move(formula), lhs, rhs, lhs <= rhs});
  };
  switch (fc.kind) {
    case runner::FcKind::kNone:
      break;
    case runner::FcKind::kPfc:
    case runner::FcKind::kDcfit:  // rides on PFC thresholds
      // Lossless headroom: everything in flight when PAUSE triggers (C*tau
      // plus packet-granularity slack, the derive() model) must still fit.
      add("pfc_headroom", "XOFF + C*tau + 2*MTU + 2*ctrl <= capacity",
          fc.xoff + core::bytes_over(c, tau) + 2 * mtu +
              2 * net::kControlFrameBytes,
          capacity);
      add("pfc_xon", "XON <= XOFF", fc.xon, fc.xoff);
      break;
    case runner::FcKind::kCbfc:
      // One credit round-trip of data must fit the advertised window.
      add("cbfc_period_inflight", "C*T + C*tau <= capacity",
          core::bytes_over(c, fc.period) + core::bytes_over(c, tau), capacity);
      break;
    case runner::FcKind::kGfcBuffer:
      add("gfc_buffer_b1", "B1 <= Bm - 2*C*tau", fc.b1,
          core::b1_bound_buffer(fc.bm, c, tau));
      add("gfc_buffer_bm", "Bm <= capacity", fc.bm, capacity);
      break;
    case runner::FcKind::kGfcTime:
      add("gfc_time_b0", "B0 <= Bm - (sqrt(tau/T)+1)^2 * C*T", fc.b0,
          core::b0_bound_timebased(fc.bm, c, tau, fc.period));
      add("gfc_time_bm", "Bm <= capacity", fc.bm, capacity);
      break;
    case runner::FcKind::kGfcConceptual:
      add("gfc_conceptual_b0", "B0 <= Bm - 4*C*tau", fc.b0,
          core::b0_bound_conceptual(fc.bm, c, tau));
      add("gfc_conceptual_bm", "Bm <= capacity", fc.bm, capacity);
      break;
  }
}

void lint_routing(const Input& in, Report* rep) {
  const topo::Topology& topo = *in.topo;
  const topo::RoutingTable& routing = *in.routing;
  const auto hosts = topo.hosts();
  const auto switches = topo.switches();

  // Unroutable host pairs (capped listing; the count is always exact).
  std::size_t unroutable = 0;
  for (const topo::NodeIndex s : hosts)
    for (const topo::NodeIndex d : hosts) {
      if (s == d || routing.routable(s, d)) continue;
      ++unroutable;
      if (unroutable <= 8)
        rep->lints.push_back({"unroutable", topo.node(s).name + " -> " +
                                                topo.node(d).name +
                                                " has no route"});
    }
  if (unroutable > 8)
    rep->lints.push_back(
        {"unroutable",
         "... " + std::to_string(unroutable - 8) + " more unroutable pairs"});

  // Per-destination next-hop graphs: loops and fat-tree valleys.
  int min_layer = 0, max_layer = 0;
  bool first_layer = true;
  for (const topo::NodeIndex s : switches) {
    const int l = topo.node(s).layer;
    if (first_layer) {
      min_layer = max_layer = l;
      first_layer = false;
    } else {
      min_layer = std::min(min_layer, l);
      max_layer = std::max(max_layer, l);
    }
  }
  const bool layered = max_layer > min_layer;

  // Per-destination scratch, indexed by node and reset for each
  // destination: DFS color (0 white, 1 grey, 2 black) and parent, and the
  // valley BFS's seen flags per (node, descended) state.
  const std::size_t n = topo.node_count();
  std::vector<char> color(n);
  std::vector<topo::NodeIndex> parent(n);
  std::vector<char> seen(2 * n);
  const auto first_visit = [&](topo::NodeIndex v, bool descended) {
    char& s = seen[2 * static_cast<std::size_t>(v) + (descended ? 1 : 0)];
    const bool first = s == 0;
    s = 1;
    return first;
  };
  std::vector<std::pair<topo::NodeIndex, std::size_t>> stack;
  std::vector<std::pair<topo::NodeIndex, bool>> frontier;
  for (const topo::NodeIndex dst : hosts) {
    // Loop detection: tri-color DFS over switch next-hops toward dst,
    // reporting the first cycle found (deterministic: switches ascending,
    // next hops in table order).
    std::fill(color.begin(), color.end(), 0);
    bool loop_reported = false;
    for (const topo::NodeIndex root : switches) {
      if (loop_reported || color[static_cast<std::size_t>(root)] != 0) continue;
      stack.assign(1, {root, 0});
      color[static_cast<std::size_t>(root)] = 1;
      while (!stack.empty() && !loop_reported) {
        auto& [v, next] = stack.back();
        const auto hops = routing.next_hops(v, dst);
        std::size_t i = next++;
        // Skip host next-hops (delivery, not transit).
        while (i < hops.size() && topo.is_host(hops[i])) i = next++;
        if (i < hops.size()) {
          const topo::NodeIndex w = hops[i];
          const auto wi = static_cast<std::size_t>(w);
          if (color[wi] == 0) {
            color[wi] = 1;
            parent[wi] = v;
            stack.push_back({w, 0});
          } else if (color[wi] == 1) {
            std::string cyc = topo.node(w).name;
            std::vector<topo::NodeIndex> chain{v};
            for (topo::NodeIndex u = v; u != w;
                 u = parent[static_cast<std::size_t>(u)])
              chain.push_back(parent[static_cast<std::size_t>(u)]);
            for (auto it = chain.rbegin(); it != chain.rend(); ++it)
              cyc += " -> " + topo.node(*it).name;
            cyc += " -> " + topo.node(w).name;
            rep->lints.push_back({"routing_loop", "routing toward " +
                                                      topo.node(dst).name +
                                                      " loops: " + cyc});
            loop_reported = true;
          }
        } else {
          color[static_cast<std::size_t>(v)] = 2;
          stack.pop_back();
        }
      }
    }

    // Valley lint: in the ECMP closure toward dst, an up-edge (layer
    // increases) reachable after a down-edge violates up-down routing.
    // BFS over (switch, descended) states tolerates broken (cyclic)
    // tables; the first violation per destination is reported.
    if (!layered) continue;
    std::fill(seen.begin(), seen.end(), 0);
    frontier.clear();
    for (const topo::NodeIndex s : hosts) {
      if (s == dst) continue;
      for (const topo::NodeIndex v : routing.next_hops(s, dst))
        if (!topo.is_host(v) && first_visit(v, false)) frontier.push_back({v, false});
    }
    bool valley_reported = false;
    for (std::size_t qi = 0; qi < frontier.size() && !valley_reported; ++qi) {
      const auto [v, descended] = frontier[qi];
      for (const topo::NodeIndex w : routing.next_hops(v, dst)) {
        if (topo.is_host(w)) continue;
        const int lv = topo.node(v).layer, lw = topo.node(w).layer;
        if (descended && lw > lv) {
          rep->lints.push_back(
              {"valley", "route toward " + topo.node(dst).name +
                             " climbs after descending: " + topo.node(v).name +
                             " -> " + topo.node(w).name});
          valley_reported = true;
          break;
        }
        const bool next_descended = descended || lw < lv;
        if (first_visit(w, next_descended)) frontier.push_back({w, next_descended});
      }
    }
  }
}

}  // namespace

Report analyze(const Input& in) {
  topo::BufferDependencyGraph graph(*in.topo);
  graph.add_routing_closure(*in.routing);
  const std::vector<DirectedLink>& links = graph.links();
  const Adjacency& adj = graph.adjacency();
  const CycleEnumeration enumeration = elementary_cycles(adj, in.max_cycles);

  Report rep;
  rep.scenario = in.scenario;
  rep.mechanism_kind = in.cfg.fc.kind;
  rep.mechanism = runner::fc_name(in.cfg.fc.kind);
  rep.hosts = in.topo->hosts().size();
  rep.switches = in.topo->switches().size();
  for (std::size_t l = 0; l < in.topo->link_count(); ++l)
    if (in.topo->link(static_cast<topo::LinkIndex>(l)).up) ++rep.links_up;
  rep.buffer_per_port = in.cfg.switch_buffer;

  rep.tau_serialization = 2 * sim::tx_time(in.cfg.link.rate, in.cfg.link.mtu);
  rep.tau_wire = 2 * in.cfg.link.prop_delay;
  rep.tau_processing = in.cfg.control_delay;
  rep.tau_total = in.cfg.tau();

  rep.bdg_vertices = links.size();
  for (const auto& out : adj) rep.bdg_edges += out.size();
  const auto sccs = strongly_connected_components(adj);
  rep.sccs = sccs.size();
  for (const auto& comp : sccs) {
    const bool cyclic =
        comp.size() > 1 ||
        [&] {
          const auto& o = adj[static_cast<std::size_t>(comp.front())];
          return std::find(o.begin(), o.end(), comp.front()) != o.end();
        }();
    if (cyclic) ++rep.cyclic_sccs;
  }

  if (enumeration.truncated) {
    const std::string label =
        in.scenario.empty() ? std::string() : in.scenario + ": ";
    std::fprintf(stderr,
                 "analyze: %scycle enumeration truncated at %zu cycles; "
                 "verdict degraded to at_risk\n",
                 label.c_str(), in.max_cycles);
    for (std::size_t v = 0; v < adj.size(); ++v)
      for (const int w : adj[v])
        rep.dependency_edges.push_back(
            {links[v], links[static_cast<std::size_t>(w)]});
    std::sort(rep.dependency_edges.begin(), rep.dependency_edges.end());
  }
  fill_cycle_infos(in, links, enumeration, &rep);
  check_bounds(in, &rep);
  lint_routing(in, &rep);
  return rep;
}

bool report_contains_cycle(const Report& rep,
                           const std::vector<topo::DirectedLink>& cycle) {
  return std::any_of(
      rep.cycles.begin(), rep.cycles.end(),
      [&](const CycleInfo& info) { return info.links == cycle; });
}

bool report_has_dependency_edges(const Report& rep,
                                 const std::vector<topo::DirectedLink>& cycle) {
  const std::size_t n = cycle.size();
  for (std::size_t i = 0; i < n; ++i)
    if (!std::binary_search(rep.dependency_edges.begin(),
                            rep.dependency_edges.end(),
                            std::make_pair(cycle[i], cycle[(i + 1) % n])))
      return false;
  return true;
}

CbdScreen screen_cbd(const topo::Topology& topo,
                     const topo::RoutingTable& routing) {
  topo::BufferDependencyGraph g(topo);
  g.add_routing_closure(routing);
  const topo::CbdResult r = g.find_cycle();
  CbdScreen out;
  out.prone = r.has_cbd;
  if (r.has_cbd) {
    out.cycle = r.cycle;
    out.witness = topo::describe_links(topo, r.cycle);
  }
  return out;
}

Verdict preflight_verdict(PreflightMode mode, const Report& rep) {
  const Verdict v = rep.verdict();
  if (mode == PreflightMode::kOff) return v;
  if (v != Verdict::kDeadlockFree || !rep.lints.empty()) {
    const std::string label =
        rep.scenario.empty() ? std::string() : rep.scenario + ": ";
    std::fprintf(stderr, "preflight %s%s\n", label.c_str(),
                 rep.summary().c_str());
  }
  if (mode == PreflightMode::kFail && v == Verdict::kAtRisk)
    throw PreflightError("preflight: " + rep.summary());
  return v;
}

Verdict preflight(PreflightMode mode, const topo::Topology& topo,
                  const topo::RoutingTable& routing,
                  const runner::ScenarioConfig& cfg,
                  const std::string& scenario) {
  if (mode == PreflightMode::kOff) return Verdict::kDeadlockFree;
  Input in;
  in.topo = &topo;
  in.routing = &routing;
  in.cfg = cfg;
  in.scenario = scenario;
  return preflight_verdict(mode, analyze(in));
}

}  // namespace gfc::analyze
