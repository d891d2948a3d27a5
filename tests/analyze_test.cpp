// Tests for the static analysis pass (src/analyze/): golden JSON reports,
// structural properties of the enumerated cycles (simple, chained, closed,
// edges real), canonical-witness determinism, verdict semantics, the
// --analyze pre-flight hook, and the load-bearing cross-validation: the
// static verdict must agree with what the simulator actually does. Also
// the runtime witness oracle, the Fabric re-verdict plumbing, the
// k-failure sweep's culprit semantics and repair verification.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/repair.hpp"
#include "analyze/scenario.hpp"
#include "analyze/sweep.hpp"
#include "runner/scenarios.hpp"
#include "sim/random.hpp"
#include "stats/deadlock.hpp"
#include "topo/builders.hpp"
#include "topo/cbd.hpp"
#include "topo/routing.hpp"
#include "topo/scenario_gen.hpp"

namespace gfc::analyze {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "missing " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The exact configuration gfc-analyze builds for --fc KIND --buffer B:
/// everything derived from the buffer via the paper's bounds.
runner::ScenarioConfig cli_config(runner::FcKind kind, std::int64_t buffer) {
  runner::ScenarioConfig cfg;
  cfg.switch_buffer = buffer;
  cfg.fc = runner::FcSetup::derive(kind, buffer, cfg.link.rate, cfg.tau(),
                                   cfg.link.mtu);
  return cfg;
}

Report analyze_spec(const std::string& spec, const runner::ScenarioConfig& cfg,
                    std::size_t max_cycles = 4096) {
  BuiltScenario sc;
  std::string err;
  EXPECT_TRUE(build_scenario(spec, &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cfg;
  in.flows = sc.flows;
  in.max_cycles = max_cycles;
  in.scenario = sc.name;
  return analyze(in);
}

// --- Golden reports: Report::json() is a stable, versioned artifact. ---
// Regenerate with, e.g.:
//   build/tools/gfc-analyze ring:3:2 --fc pfc --buffer 1000000
//     --json tests/golden/ring3_pfc.json

TEST(AnalyzeGolden, RingPfc) {
  const Report r =
      analyze_spec("ring:3:2", cli_config(runner::FcKind::kPfc, 1'000'000));
  EXPECT_EQ(r.json(),
            read_file(GFC_TEST_DATA_DIR "/golden/ring3_pfc.json"));
}

TEST(AnalyzeGolden, FatTreeSeed22GfcBuffer) {
  const Report r = analyze_spec(
      "fattree:4:seed=22", cli_config(runner::FcKind::kGfcBuffer, 300'000));
  EXPECT_EQ(r.json(),
            read_file(GFC_TEST_DATA_DIR
                      "/golden/fattree4_seed22_gfc_buffer.json"));
}

TEST(AnalyzeGolden, RoutingLoopPfc) {
  const Report r =
      analyze_spec("loop2", cli_config(runner::FcKind::kPfc, 300'000));
  EXPECT_EQ(r.json(),
            read_file(GFC_TEST_DATA_DIR "/golden/loop2_pfc.json"));
}

// Regenerate with:
//   build/tools/gfc-analyze ring:3:2 --fc pfc --buffer 1000000 --failures 1
//     --suggest-repairs --json tests/golden/ring3_pfc_failures.json
TEST(AnalyzeGolden, RingPfcFailureSweepWithRepairs) {
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("ring:3:2", &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 1'000'000);
  in.flows = sc.flows;
  in.scenario = sc.name;
  Report r = sweep_failures(in, 1);
  r.repairs = suggest_repairs(in, r);
  EXPECT_EQ(r.json(),
            read_file(GFC_TEST_DATA_DIR "/golden/ring3_pfc_failures.json"));
}

// --- Structural properties of the enumeration. ---

/// Every reported cycle must be an elementary cycle of the real
/// buffer-dependency graph: consecutive links chained head-to-tail, the
/// last link closing back on the first, no vertex repeated, and every
/// dependency edge present in the graph built from the same routing.
void check_cycles_well_formed(const std::string& spec) {
  SCOPED_TRACE(spec);
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario(spec, &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.flows = sc.flows;
  in.scenario = sc.name;
  const Report r = analyze(in);
  EXPECT_FALSE(r.truncated);

  topo::BufferDependencyGraph g(sc.topo);
  g.add_routing_closure(sc.routing);
  const auto& verts = g.links();
  auto vertex_of = [&](const topo::DirectedLink& l) {
    const auto it = std::find(verts.begin(), verts.end(), l);
    return it == verts.end() ? -1 : static_cast<int>(it - verts.begin());
  };

  std::set<std::vector<topo::DirectedLink>> seen;
  for (const CycleInfo& c : r.cycles) {
    ASSERT_GE(c.links.size(), 2u);
    EXPECT_EQ(c.links.size(), c.link_names.size());
    // Simple: no directed link appears twice.
    std::set<topo::DirectedLink> uniq(c.links.begin(), c.links.end());
    EXPECT_EQ(uniq.size(), c.links.size());
    // No cycle reported twice (canonical form makes this well-defined).
    EXPECT_TRUE(seen.insert(c.links).second);
    // Canonical: rotated so the smallest link leads.
    EXPECT_EQ(c.links.front(),
              *std::min_element(c.links.begin(), c.links.end()));
    for (std::size_t i = 0; i < c.links.size(); ++i) {
      const topo::DirectedLink& cur = c.links[i];
      const topo::DirectedLink& nxt = c.links[(i + 1) % c.links.size()];
      // Chained and closed: each hop ends where the next begins.
      EXPECT_EQ(cur.second, nxt.first);
      // Every dependency edge exists in the graph.
      const int u = vertex_of(cur);
      const int v = vertex_of(nxt);
      ASSERT_GE(u, 0);
      ASSERT_GE(v, 0);
      const auto& out = g.adjacency()[static_cast<std::size_t>(u)];
      EXPECT_NE(std::find(out.begin(), out.end(), v), out.end())
          << c.link_names[i] << " -> " << c.link_names[(i + 1) % c.links.size()];
    }
  }
}

TEST(AnalyzeCycles, WellFormedAcrossScenarios) {
  check_cycles_well_formed("ring:3:2");
  check_cycles_well_formed("ring:6:3");
  check_cycles_well_formed("loop2");
  check_cycles_well_formed("fattree:4:seed=22");
  check_cycles_well_formed("fattree:4:seed=26");
}

TEST(AnalyzeCycles, TruncationIsReportedNotSilent) {
  // seed=12 has thousands of elementary cycles; a tiny cap must be
  // reported as truncation, and a truncated report is never "cbd_free".
  const Report r = analyze_spec(
      "fattree:4:seed=12", cli_config(runner::FcKind::kPfc, 300'000), 16);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.cycles.size(), 16u);
  EXPECT_FALSE(r.cbd_free());
  // The verdict from a prefix of the cycle set proves nothing about the
  // cycles it never saw: truncation always degrades to at_risk, even for
  // mechanisms whose bounds would otherwise argue "safe".
  EXPECT_EQ(r.verdict(), Verdict::kAtRisk);
  const Report g = analyze_spec(
      "fattree:4:seed=12", cli_config(runner::FcKind::kGfcBuffer, 300'000),
      16);
  EXPECT_TRUE(g.truncated);
  EXPECT_TRUE(g.bounds_ok());
  EXPECT_EQ(g.verdict(), Verdict::kAtRisk);
}

TEST(AnalyzeCycles, WitnessIsCanonicalAndDeterministic) {
  topo::Topology t;
  topo::build_ring(t, 5);
  const auto routing = topo::compute_shortest_paths(t);
  topo::BufferDependencyGraph g(t);
  g.add_routing_closure(routing);
  const topo::CbdResult a = g.find_cycle();
  const topo::CbdResult b = g.find_cycle();
  ASSERT_TRUE(a.has_cbd);
  EXPECT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(a.cycle.front(),
            *std::min_element(a.cycle.begin(), a.cycle.end()));
}

TEST(AnalyzeCycles, JsonByteDeterministic) {
  const auto cfg = cli_config(runner::FcKind::kGfcBuffer, 300'000);
  EXPECT_EQ(analyze_spec("fattree:4:seed=22", cfg).json(),
            analyze_spec("fattree:4:seed=22", cfg).json());
}

// --- Verdict semantics. ---

TEST(AnalyzeVerdict, RingUnderPfcIsAtRisk) {
  const Report r =
      analyze_spec("ring:3:2", cli_config(runner::FcKind::kPfc, 300'000));
  EXPECT_FALSE(r.cbd_free());
  EXPECT_EQ(r.verdict(), Verdict::kAtRisk);
}

TEST(AnalyzeVerdict, RingWithoutFlowControlIsSafe) {
  // No flow control: packets drop instead of waiting, so a CBD alone
  // cannot deadlock (no hold-and-wait half of the circular wait).
  const Report r =
      analyze_spec("ring:3:2", cli_config(runner::FcKind::kNone, 300'000));
  EXPECT_FALSE(r.cbd_free());
  EXPECT_EQ(r.verdict(), Verdict::kSafe);
}

TEST(AnalyzeVerdict, RingUnderDerivedGfcBufferIsSafe) {
  const Report r = analyze_spec(
      "ring:3:2", cli_config(runner::FcKind::kGfcBuffer, 300'000));
  EXPECT_FALSE(r.cbd_free());
  EXPECT_TRUE(r.bounds_ok());
  EXPECT_EQ(r.verdict(), Verdict::kSafe);
}

TEST(AnalyzeVerdict, ViolatedGfcBoundIsAtRisk) {
  // B_1 = B_m leaves no 2*C*tau reserve: the Sec 4.2 bound fails and the
  // mechanism can hold-and-wait after all.
  auto cfg = cli_config(runner::FcKind::kGfcBuffer, 300'000);
  cfg.fc.b1 = cfg.fc.bm;
  const Report r = analyze_spec("ring:3:2", cfg);
  EXPECT_FALSE(r.bounds_ok());
  EXPECT_EQ(r.verdict(), Verdict::kAtRisk);
}

TEST(AnalyzeVerdict, IncastIsDeadlockFree) {
  const Report r =
      analyze_spec("incast:4", cli_config(runner::FcKind::kPfc, 300'000));
  EXPECT_TRUE(r.cbd_free());
  EXPECT_EQ(r.verdict(), Verdict::kDeadlockFree);
  EXPECT_EQ(r.cycles.size(), 0u);
}

// --- The --analyze pre-flight hook on the simulation path. ---

TEST(AnalyzePreflight, FailModeThrowsBeforeAnyEvent) {
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.preflight = PreflightMode::kFail;
  EXPECT_THROW(runner::make_ring(cfg), PreflightError);
}

TEST(AnalyzePreflight, WarnModeOnlyReports) {
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.preflight = PreflightMode::kWarn;
  EXPECT_NO_THROW(runner::make_ring(cfg));
  // A safe configuration passes even under kFail.
  runner::ScenarioConfig safe =
      cli_config(runner::FcKind::kGfcBuffer, 300'000);
  safe.preflight = PreflightMode::kFail;
  EXPECT_NO_THROW(runner::make_ring(safe));
}

// --- Cross-validation: static verdicts against the real simulator. ---

/// Rebuild the Table 1 sample for (k=4, seed): the same salted failure
/// stream the analyzer's fattree:4:seed=S spec uses.
std::vector<topo::LinkIndex> table1_failures(std::uint64_t seed) {
  topo::Topology t;
  topo::build_fattree(t, 4);
  sim::Rng rng(seed * 7919 + 4);
  return topo::random_failures(t, rng, 0.05);
}

TEST(AnalyzeXval, CbdFreeFabricNeverDeadlocksUnderPfc) {
  // Statically CBD-free (seed 1, verified by the analyzer below) implies
  // even PFC cannot deadlock at runtime: circular wait is impossible.
  const Report r = analyze_spec(
      "fattree:4:seed=1", cli_config(runner::FcKind::kPfc, 300'000));
  ASSERT_TRUE(r.cbd_free());

  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.seed = 1;
  auto sc = runner::make_fattree(cfg, 4, table1_failures(1));
  runner::RunOptions opts;
  opts.duration = sim::ms(6);
  opts.workload_seed = 1001;
  const runner::RunSummary s = run_closed_loop(sc, opts);
  EXPECT_FALSE(s.deadlocked);
}

TEST(AnalyzeXval, ActivatedCycleDeadlocksUnderPfcNotUnderGfc) {
  // seed 22's witness cycle is covered by the stress flows (the analyzer
  // marks it ACTIVATED): under PFC those flows must actually deadlock,
  // and under the derived buffer-GFC bound they must not.
  const Report r = analyze_spec(
      "fattree:4:seed=22", cli_config(runner::FcKind::kPfc, 300'000));
  ASSERT_FALSE(r.cycles.empty());
  EXPECT_TRUE(r.cycles.front().activated);
  EXPECT_EQ(r.verdict(), Verdict::kAtRisk);

  // The same stress probe Table 1 runs, at both mechanisms.
  topo::Topology t;
  topo::build_fattree(t, 4);
  sim::Rng rng(22 * 7919 + 4);
  auto failed = topo::random_failures(t, rng, 0.05);
  const auto routing = topo::compute_shortest_paths(t);
  topo::BufferDependencyGraph g(t);
  g.add_routing_closure(routing);
  const auto cbd = g.find_cycle();
  ASSERT_TRUE(cbd.has_cbd);
  auto stress = topo::build_cbd_stress(t, routing, cbd.cycle, rng);
  ASSERT_TRUE(stress.covered);

  for (const runner::FcKind kind :
       {runner::FcKind::kPfc, runner::FcKind::kGfcBuffer}) {
    runner::ScenarioConfig cfg = cli_config(kind, 300'000);
    cfg.seed = 1;
    auto sc = runner::make_fattree(cfg, 4, failed);
    net::Network& net = sc.fabric->net();
    for (const auto& f : stress.flows) {
      net::Flow& flow =
          net.create_flow(f.src, f.dst, 0, net::Flow::kUnbounded, 0);
      flow.path_salt = f.salt;
    }
    stats::DeadlockOptions dl_opts;
    dl_opts.stop_on_detect = true;
    stats::DeadlockDetector det(net, dl_opts);
    net.run_until(sim::ms(8));
    if (kind == runner::FcKind::kPfc)
      EXPECT_TRUE(det.deadlocked()) << "activated CBD must bite under PFC";
    else
      EXPECT_FALSE(det.deadlocked()) << "GFC bound must prevent the stall";
  }
}


// --- Witness-cycle membership properties (ring / loop2 / fattree): a
// runtime witness walks the cycle starting at an arbitrary hop, so every
// rotation of every enumerated cycle must canonicalize back to a member,
// and corrupted cycles must not.

void check_rotation_membership(const std::string& spec) {
  SCOPED_TRACE(spec);
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario(spec, &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.scenario = sc.name;
  const Report r = analyze(in);
  ASSERT_FALSE(r.cycles.empty());
  for (const CycleInfo& c : r.cycles) {
    for (std::size_t off = 0; off < c.links.size(); ++off) {
      std::vector<topo::DirectedLink> rotated(c.links.begin() + off,
                                              c.links.end());
      rotated.insert(rotated.end(), c.links.begin(), c.links.begin() + off);
      topo::canonicalize_cycle(&rotated);
      EXPECT_TRUE(report_contains_cycle(r, rotated));
    }
    // A corrupted witness (one hop replaced by a bogus link) is rejected.
    std::vector<topo::DirectedLink> bogus = c.links;
    bogus.back() = {999, 998};
    topo::canonicalize_cycle(&bogus);
    EXPECT_FALSE(report_contains_cycle(r, bogus));
  }
}

TEST(WitnessOracle, RotationsOfEveryCycleAreMembers) {
  check_rotation_membership("ring:3:2");
  check_rotation_membership("ring:6:3");
  check_rotation_membership("loop2");
  check_rotation_membership("fattree:4:seed=22");
}

TEST(WitnessOracle, RingRuntimeWitnessIsInStaticEnumeration) {
  // The ring deadlocks organically under PFC; the detector's witness
  // cycle must map onto the static enumeration (check_witness_cycle
  // throws the run away otherwise).
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.witness_check = true;
  runner::RingScenario s = runner::make_ring(cfg, 3, 2);
  net::Network& net = s.fabric->net();
  stats::DeadlockOptions dl_opts;
  dl_opts.stop_on_detect = true;
  int checked = 0;
  dl_opts.on_detect = [&s, &checked](stats::DeadlockDetector& det) {
    if (runner::check_witness_cycle(*s.fabric, det)) ++checked;
  };
  stats::DeadlockDetector det(net, dl_opts);
  net.run_until(sim::ms(8));
  ASSERT_TRUE(det.deadlocked());
  EXPECT_EQ(checked, 1);
  EXPECT_EQ(s.fabric->analysis_reverdicts(), 1);
}

TEST(WitnessOracle, FatTreeStressWitnessIsInStaticEnumeration) {
  // The Table-1 seed-22 stress probe realizes a fat-tree CBD at runtime;
  // the cross-check must find its canonical cycle in the (post-failure)
  // static enumeration.
  topo::Topology t;
  topo::build_fattree(t, 4);
  sim::Rng rng(22 * 7919 + 4);
  const auto failed = topo::random_failures(t, rng, 0.05);
  const auto routing = topo::compute_shortest_paths(t);
  topo::BufferDependencyGraph g(t);
  g.add_routing_closure(routing);
  const auto cbd = g.find_cycle();
  ASSERT_TRUE(cbd.has_cbd);
  auto stress = topo::build_cbd_stress(t, routing, cbd.cycle, rng);
  ASSERT_TRUE(stress.covered);

  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.witness_check = true;
  auto sc = runner::make_fattree(cfg, 4, failed);
  net::Network& net = sc.fabric->net();
  for (const auto& f : stress.flows) {
    net::Flow& flow =
        net.create_flow(f.src, f.dst, 0, net::Flow::kUnbounded, 0);
    flow.path_salt = f.salt;
  }
  stats::DeadlockOptions dl_opts;
  dl_opts.stop_on_detect = true;
  int checked = 0;
  dl_opts.on_detect = [&sc, &checked](stats::DeadlockDetector& det) {
    EXPECT_TRUE(runner::check_witness_cycle(*sc.fabric, det));
    ++checked;
  };
  stats::DeadlockDetector det(net, dl_opts);
  net.run_until(sim::ms(8));
  ASSERT_TRUE(det.deadlocked());
  EXPECT_EQ(checked, 1);
}

TEST(WitnessOracle, SkipsWhenAnalysisIsOff) {
  // No preflight, no witness_check: the fabric holds no analysis and the
  // check reports "skipped", never a false positive.
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  runner::RingScenario s = runner::make_ring(cfg, 3, 2);
  net::Network& net = s.fabric->net();
  stats::DeadlockOptions dl_opts;
  dl_opts.stop_on_detect = true;
  stats::DeadlockDetector det(net, dl_opts);
  net.run_until(sim::ms(8));
  ASSERT_TRUE(det.deadlocked());
  EXPECT_EQ(s.fabric->analysis(), nullptr);
  EXPECT_FALSE(runner::check_witness_cycle(*s.fabric, det));
}

TEST(WitnessOracle, WiringLookupsFollowTheNetwork) {
  // Witness hops are mapped through peer_of, routes through port_to. With
  // parallel links (the 2-switch ring) port_to picks the last one wired.
  topo::Topology t;
  const topo::NodeIndex h0 = t.add_host("H0");
  const topo::NodeIndex h1 = t.add_host("H1");
  const topo::NodeIndex s0 = t.add_switch("S0");
  const topo::NodeIndex s1 = t.add_switch("S1");
  t.add_link(h0, s0);  // S0 port 0
  t.add_link(s0, s1);  // S0 port 1, S1 port 0
  t.add_link(s1, s0);  // S1 port 1, S0 port 2
  t.add_link(h1, s1);  // S1 port 2
  runner::Fabric fabric(t, cli_config(runner::FcKind::kPfc, 300'000));
  EXPECT_EQ(fabric.port_to(s0, s1), 2);
  EXPECT_EQ(fabric.port_to(s1, s0), 1);
  EXPECT_EQ(fabric.port_to(s0, h0), 0);
  EXPECT_EQ(fabric.port_to(s0, h1), -1);
  EXPECT_EQ(fabric.peer_of(s0, 0), h0);
  EXPECT_EQ(fabric.peer_of(s0, 1), s1);
  EXPECT_EQ(fabric.peer_of(s1, 2), h1);
  EXPECT_EQ(fabric.peer_of(s0, 3), -1);
  EXPECT_EQ(fabric.peer_of(s0, -1), -1);
}

TEST(WitnessOracle, TruncatedReportKeepsItsDependencyEdges) {
  // Only a truncated report keeps the graph's edges (sorted, outside the
  // JSON); every enumerated cycle's hops are among them, a bogus hop isn't.
  const auto cfg = cli_config(runner::FcKind::kPfc, 300'000);
  const Report full = analyze_spec("fattree:4:seed=12", cfg);
  const Report r = analyze_spec("fattree:4:seed=12", cfg, 16);
  ASSERT_TRUE(r.truncated);
  EXPECT_EQ(r.dependency_edges.size(), r.bdg_edges);
  EXPECT_TRUE(std::is_sorted(r.dependency_edges.begin(),
                             r.dependency_edges.end()));
  for (const CycleInfo& c : full.cycles) {
    EXPECT_TRUE(report_has_dependency_edges(r, c.links));
    std::vector<topo::DirectedLink> bogus = c.links;
    bogus.back() = {999, 998};
    EXPECT_FALSE(report_has_dependency_edges(r, bogus));
  }
  const Report ring = analyze_spec("ring:3:2", cfg);
  EXPECT_FALSE(ring.truncated);
  EXPECT_TRUE(ring.dependency_edges.empty());
}

TEST(WitnessOracle, TruncatedEnumerationChecksWitnessEdgeByEdge) {
  // Table-1 seed 319: a stress-coverable k=4 fabric whose enumeration
  // truncates at the default 4,096-cycle cap. The real witness must pass
  // the edge-by-edge check; re-analyzing the fabric with one witness link
  // failed (the graph then lacks a witness hop) must make it throw.
  topo::Topology t;
  topo::build_fattree(t, 4);
  sim::Rng rng(319 * 7919 + 4);
  const auto failed = topo::random_failures(t, rng, 0.05);
  const auto routing = topo::compute_shortest_paths(t);
  topo::BufferDependencyGraph g(t);
  g.add_routing_closure(routing);
  const auto cbd = g.find_cycle();
  ASSERT_TRUE(cbd.has_cbd);
  auto stress = topo::build_cbd_stress(t, routing, cbd.cycle, rng);
  ASSERT_TRUE(stress.covered);

  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.witness_check = true;
  auto sc = runner::make_fattree(cfg, 4, failed);
  ASSERT_TRUE(sc.fabric->analysis()->truncated);
  net::Network& net = sc.fabric->net();
  for (const auto& f : stress.flows) {
    net::Flow& flow =
        net.create_flow(f.src, f.dst, 0, net::Flow::kUnbounded, 0);
    flow.path_salt = f.salt;
  }
  stats::DeadlockOptions dl_opts;
  dl_opts.stop_on_detect = true;
  stats::DeadlockDetector det(net, dl_opts);
  net.run_until(sim::ms(8));
  ASSERT_TRUE(det.deadlocked());
  EXPECT_TRUE(runner::check_witness_cycle(*sc.fabric, det));

  int corrupted = 0;
  for (const auto& [nid, port] : det.cycle()) {
    const topo::NodeIndex peer = sc.fabric->peer_of(nid, port);
    for (const auto& [nbr, link] : sc.topo.neighbors(nid)) {
      if (nbr != peer || !sc.topo.link(link).up) continue;
      topo::Topology cut = sc.topo;
      cut.fail_link(link);
      const topo::RoutingTable rerouted = topo::compute_shortest_paths(cut);
      sc.fabric->install_routing(cut, rerouted);
      if (!sc.fabric->analysis()->truncated) continue;
      ++corrupted;
      try {
        runner::check_witness_cycle(*sc.fabric, det);
        ADD_FAILURE() << "witness over failed link " << nid << "-" << peer
                      << " passed the edge check";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("missing from the static graph"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_GT(corrupted, 0) << "no witness link kept the enumeration truncated";
}

// --- Fabric re-verdict plumbing: a mid-run reroute re-analyzes, and the
// fabric's report is the one analyze() gives for the new routing.

TEST(AnalyzeRunner, ReinstallReverdictsAndMatchesFromScratch) {
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kGfcBuffer, 300'000);
  cfg.witness_check = true;
  runner::FatTreeScenario s = runner::make_fattree(cfg, 4);
  EXPECT_EQ(s.fabric->analysis_reverdicts(), 1);
  ASSERT_NE(s.fabric->analysis(), nullptr);
  EXPECT_EQ(s.fabric->analysis()->verdict(), Verdict::kDeadlockFree);

  const auto links = s.topo.switch_links();
  s.topo.fail_link(links[links.size() / 2]);
  s.routing = topo::compute_shortest_paths(s.topo);
  s.fabric->install_routing(s.topo, s.routing);
  EXPECT_EQ(s.fabric->analysis_reverdicts(), 2);

  Input in;
  in.topo = &s.topo;
  in.routing = &s.routing;
  in.cfg = cfg;
  EXPECT_EQ(s.fabric->analysis()->json(), analyze(in).json());
}

// --- The k-failure sweep.

TEST(FailureSweepTest, RingCombosAreExhaustiveAndDeterministic) {
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("ring:3:2", &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.scenario = sc.name;
  const Report r = sweep_failures(in, 2);
  ASSERT_TRUE(r.failure_sweep.has_value());
  const FailureSweep& fs = *r.failure_sweep;
  EXPECT_EQ(fs.max_failures, 2);
  // 3 switch-switch links: C(3,1) + C(3,2) = 6 combos.
  EXPECT_EQ(fs.combos, 6u);
  EXPECT_EQ(fs.results.size(), 6u);
  // Baseline is already at_risk: nothing can "flip" off it.
  EXPECT_EQ(fs.baseline, Verdict::kAtRisk);
  EXPECT_EQ(fs.flipped, 0u);
  EXPECT_TRUE(fs.culprits.empty());
  // Lexicographic by size then position, links ascending inside a combo.
  for (std::size_t i = 1; i < fs.results.size(); ++i) {
    const auto& a = fs.results[i - 1].links;
    const auto& b = fs.results[i].links;
    EXPECT_TRUE(a.size() < b.size() || (a.size() == b.size() && a < b));
  }
  // The whole report (v2 JSON section included) is byte-deterministic.
  EXPECT_EQ(r.json(), sweep_failures(in, 2).json());
}

TEST(FailureSweepTest, FlipSemanticsOnDeadlockFreeBaseline) {
  // Full fat-tree (SPF = up*/down* = no cycles): the baseline is
  // deadlock_free, and each combo's `flips` must equal "verdict isn't".
  topo::Topology t;
  topo::build_fattree(t, 4);
  const auto routing = topo::compute_shortest_paths(t);
  Input in;
  in.topo = &t;
  in.routing = &routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.scenario = "fattree4-sweep";
  const Report r = sweep_failures(in, 1);
  ASSERT_TRUE(r.failure_sweep.has_value());
  const FailureSweep& fs = *r.failure_sweep;
  EXPECT_EQ(fs.baseline, Verdict::kDeadlockFree);
  EXPECT_EQ(fs.combos, t.switch_links().size());
  std::size_t flipped = 0;
  for (const FailureCombo& c : fs.results) {
    EXPECT_EQ(c.flips, c.verdict != Verdict::kDeadlockFree);
    if (c.flips) ++flipped;
  }
  EXPECT_EQ(fs.flipped, flipped);
  // Every size-1 flipping combo is trivially minimal: culprits == flips.
  EXPECT_EQ(fs.culprits.size(), flipped);
  for (std::size_t idx : fs.culprits) {
    ASSERT_LT(idx, fs.results.size());
    EXPECT_TRUE(fs.results[idx].flips);
  }
}

// --- Repair suggestions.

TEST(RepairTest, RingRepairsAreVerifiedCbdFree) {
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("ring:3:2", &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.flows = sc.flows;
  in.scenario = sc.name;
  Report r = analyze(in);
  ASSERT_FALSE(r.cycles.empty());
  const Repairs rep = suggest_repairs(in, r);
  ASSERT_FALSE(rep.suggestions.empty());
  for (const RepairSuggestion& s : rep.suggestions) {
    EXPECT_TRUE(s.kind == "link_removal" || s.kind == "turn_restriction");
    EXPECT_FALSE(s.removals.empty());
    EXPECT_GT(s.cycles_broken, 0u);
    // The ring's single CBD is trivially breakable both ways; the
    // re-verification must confirm it.
    EXPECT_TRUE(s.verified_cbd_free) << s.kind;
  }
  // Deterministic, including through the JSON section.
  r.repairs = rep;
  Report r2 = analyze(in);
  r2.repairs = suggest_repairs(in, r2);
  EXPECT_EQ(r.json(), r2.json());
}

TEST(RepairTest, CbdFreeReportYieldsNoSuggestions) {
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("incast:4", &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.scenario = sc.name;
  const Report r = analyze(in);
  ASSERT_TRUE(r.cbd_free());
  EXPECT_TRUE(suggest_repairs(in, r).suggestions.empty());
}

}  // namespace
}  // namespace gfc::analyze
