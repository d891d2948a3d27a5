// Fabric: realize an abstract Topology as a live Network with the chosen
// flow-control mechanism attached to every node. Topology node indices and
// net::NodeId values coincide by construction.
#pragma once

#include <memory>
#include <optional>

#include "analyze/analyze.hpp"
#include "exp/progress.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "runner/config.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace gfc::par {
class Engine;
}

namespace gfc::runner {

/// Build the flow-control module configured in `cfg` (one fresh instance
/// per node).
std::unique_ptr<net::FcModule> make_fc_module(const ScenarioConfig& cfg);

class Fabric {
 public:
  Fabric(const topo::Topology& topo, const ScenarioConfig& cfg);
  ~Fabric();  // out-of-line: par::Engine is incomplete here

  net::Network& net() { return net_; }
  const ScenarioConfig& config() const { return cfg_; }

  net::HostNode& host(topo::NodeIndex i) { return *net_.host(i); }
  net::SwitchNode& sw(topo::NodeIndex i) { return *net_.sw(i); }

  /// Port index on `from` of the link toward `to`; -1 if absent. With
  /// parallel links (the 2-switch ring) the last one wired wins.
  int port_to(topo::NodeIndex from, topo::NodeIndex to) const;

  /// Inverse of port_to: the node `node`'s `port` leads to; -1 if absent.
  /// (How deadlock witness cycles — (node, egress port) pairs — are mapped
  /// back to directed topology links for the static cross-check.)
  topo::NodeIndex peer_of(topo::NodeIndex node, int port) const;

  /// The current static analysis, refreshed by install_routing whenever
  /// cfg.preflight != kOff or cfg.witness_check; null before the first
  /// install (or when both are off).
  const analyze::Report* analysis() const;

  /// How many verdicts install_routing has issued (1 for the initial
  /// install, +1 per mid-run reroute).
  int analysis_reverdicts() const { return reverdicts_; }

  /// Translate a next-hop-node routing table into per-switch port routes.
  void install_routing(const topo::Topology& topo,
                       const topo::RoutingTable& routing);

  /// Ingress occupancy at switch `at` for the link arriving from `from`.
  std::int64_t ingress_queue_bytes(topo::NodeIndex at, topo::NodeIndex from,
                                   int prio = 0);

  /// The GFC rate currently programmed on `node`'s egress toward `toward`
  /// (line rate for non-GFC mechanisms or ungated ports).
  sim::Rate egress_rate(topo::NodeIndex node, topo::NodeIndex toward,
                        int prio = 0);

  /// The installed fault plan (null when cfg.fault has no enabled rates).
  fault::FaultPlan* fault_plan() { return fault_plan_.get(); }

  /// The installed tracer (null unless cfg.trace.enabled).
  trace::Tracer* tracer() { return tracer_.get(); }

  /// The parallel core (null when cfg.shards <= 1, or when the scenario
  /// pinned the sequential engine — faults, ECN, single-switch topology).
  par::Engine* par_engine() { return engine_.get(); }

  /// Node-id -> topo-name resolver for the trace exporters.
  trace::NodeNameFn node_name_fn();

 private:
  ScenarioConfig cfg_;
  /// Watchdog heartbeat timer (see exp/progress.hpp): armed only when the
  /// constructing thread has a campaign ProgressSink installed.
  sim::TimerId progress_timer_;
  /// Declared before net_ so the tracer outlives every node's teardown.
  std::unique_ptr<trace::Tracer> tracer_;
  net::Network net_;
  /// Declared after net_: the plan unhooks itself before the network dies.
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  /// The last install_routing's from-scratch analysis (see analysis()).
  std::optional<analyze::Report> analysis_;
  int reverdicts_ = 0;
  /// Declared last: the engine joins its workers and restores the
  /// single-threaded wiring before anything else tears down.
  std::unique_ptr<par::Engine> engine_;
  /// The campaign sink observed at construction (null outside a worker
  /// pool); the parallel engine's cancel poll reads it from shard threads.
  exp::ProgressSink* progress_sink_ = nullptr;
};

}  // namespace gfc::runner
