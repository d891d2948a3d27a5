#include "runner/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "core/gfc_buffer.hpp"
#include "core/gfc_conceptual.hpp"
#include "core/gfc_time.hpp"
#include "flowctl/cbfc.hpp"
#include "flowctl/pfc.hpp"
#include "mech/dcfit.hpp"
#include "par/engine.hpp"
#include "topo/partition.hpp"

namespace gfc::runner {

std::unique_ptr<net::FcModule> make_fc_module(const ScenarioConfig& cfg) {
  const FcSetup& fc = cfg.fc;
  switch (fc.kind) {
    case FcKind::kNone:
      return nullptr;
    case FcKind::kPfc:
      return std::make_unique<flowctl::PfcModule>(
          flowctl::PfcConfig{fc.xoff, fc.xon, fc.pfc_pause_timeout});
    case FcKind::kDcfit:
      // Classic PFC (indefinite pauses — pause_timeout stays 0 so the
      // deadlocks DCFIT exists to break can actually form) plus the
      // trigger machinery.
      return std::make_unique<mech::DcfitModule>(mech::DcfitConfig{
          flowctl::PfcConfig{fc.xoff, fc.xon, 0}, fc.dcfit_break,
          fc.dcfit_period});
    case FcKind::kCbfc: {
      flowctl::CbfcConfig c;
      c.period = fc.period;
      c.buffer_bytes = cfg.switch_buffer;
      c.sync_period = fc.cbfc_sync_period;
      return std::make_unique<flowctl::CbfcModule>(c);
    }
    case FcKind::kGfcBuffer:
      // Coalesce feedback to at most one frame per tau per (port, prio),
      // in line with the paper's one-per-tau worst-case analysis.
      return std::make_unique<core::GfcBufferModule>(
          core::MultiStageMapping(cfg.link.rate, fc.b1, fc.bm, fc.min_rate),
          cfg.tau());
    case FcKind::kGfcTime:
      return std::make_unique<core::GfcTimeModule>(
          core::LinearMapping(cfg.link.rate, fc.b0, fc.bm, fc.min_rate),
          fc.period);
    case FcKind::kGfcConceptual:
      return std::make_unique<core::GfcConceptualModule>(
          core::LinearMapping(cfg.link.rate, fc.b0, fc.bm, fc.min_rate),
          fc.conceptual_min_delta);
  }
  return nullptr;
}

Fabric::Fabric(const topo::Topology& topo, const ScenarioConfig& cfg)
    : cfg_(cfg) {
  if (cfg.trace.enabled) {
    tracer_ = std::make_unique<trace::Tracer>(cfg.trace);
    net_.set_tracer(tracer_.get());
  }
  net_.reseed(cfg.seed);
  net_.set_control_delay(cfg.control_delay);
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const auto& tn = topo.node(static_cast<topo::NodeIndex>(i));
    if (tn.is_host) {
      net::HostNode& h = net_.add_host(tn.name);
      h.set_mtu(cfg.link.mtu);
    } else {
      net::SwitchNode& s = net_.add_switch(tn.name, cfg.switch_buffer);
      s.set_arch(cfg.arch);
      s.set_egress_queue_cap(cfg.egress_queue_bytes);
      if (cfg.ecn.enabled) s.set_ecn(cfg.ecn);
    }
  }
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const auto& link = topo.link(static_cast<topo::LinkIndex>(l));
    if (!link.up) continue;
    net_.connect(link.a, link.b, cfg.link.rate, cfg.link.prop_delay);
  }
  // Parallel core: attach before flow control so every FC timer lands on
  // its owner's shard scheduler with a globally-sequenced key. Faults and
  // ECN/DCQCN are pinned to the sequential engine (their hooks touch
  // cross-shard state outside the wire discipline the lookahead relies on).
  if (cfg_.shards > 1) {
    if (cfg_.fault.enabled() || cfg_.ecn.enabled) {
      std::fprintf(stderr,
                   "fabric: %d shards requested but fault injection / ECN are "
                   "pinned to the sequential engine; running 1 shard\n",
                   cfg_.shards);
    } else if (cfg_.link.prop_delay <= 0) {
      std::fprintf(stderr,
                   "fabric: %d shards requested but zero propagation delay "
                   "leaves no lookahead; running 1 shard\n",
                   cfg_.shards);
    } else {
      const std::vector<int> shard_of =
          topo::partition(topo, cfg_.shards, cfg_.seed);
      const int eff =
          shard_of.empty()
              ? 1
              : 1 + *std::max_element(shard_of.begin(), shard_of.end());
      if (eff > 1)
        engine_ = std::make_unique<par::Engine>(net_, shard_of, eff);
    }
  }
  // Flow control attaches last: gates need the peer wiring.
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    auto module = make_fc_module(cfg_);
    if (module) net_.node(static_cast<net::NodeId>(i)).set_fc(std::move(module));
  }
  if (cfg_.fault.enabled())
    fault_plan_ = std::make_unique<fault::FaultPlan>(net_, cfg_.fault);
  // Campaign watchdog heartbeat: when the worker pool installed a
  // ProgressSink on this thread, beacon (sim time, executed events) on a
  // persistent timer. The beacon only reads scheduler counters — results
  // and goldens are untouched — and throws CancelledError once the
  // watchdog requests cancellation, unwinding the trial out of run_until.
  if (exp::ProgressSink* sink = exp::current_progress_sink()) {
    progress_sink_ = sink;
    constexpr sim::TimePs kBeaconPeriod = sim::us(100);
    sim::Scheduler& sched = net_.sched();
    progress_timer_ = sched.register_timer([this, sink] {
      sim::Scheduler& s = net_.sched();
      // Re-arm first: beacon may throw, and the next attempt's Fabric is a
      // fresh object anyway — but keeping the timer armed costs nothing and
      // keeps the no-cancel path a plain periodic timer.
      s.arm_timer(progress_timer_, s.now() + kBeaconPeriod);
      // net_.executed_events() totals across shards when the parallel
      // engine is attached (the beacon fires as a coordinator boundary
      // step, so the shard counters are barrier-exact here).
      sink->beacon(s.now(), net_.executed_events());
    });
    sched.arm_timer(progress_timer_, sched.now() + kBeaconPeriod);
    if (engine_) {
      // Shard-aware watchdog wiring: every worker polls this during a
      // window, so one wedged shard still heartbeats engine-wide progress
      // and observes --trial-timeout cancellation even while the main
      // scheduler (and its beacon timer) sits blocked at the barrier.
      engine_->set_cancel_poll(
          [](void* env) -> bool {
            auto* f = static_cast<Fabric*>(env);
            f->progress_sink_->heartbeat(f->net_.executed_events());
            return f->progress_sink_->cancel_requested();
          },
          this);
      engine_->set_abort_handler([] { throw exp::CancelledError(); });
    }
  }
}

Fabric::~Fabric() = default;

trace::NodeNameFn Fabric::node_name_fn() {
  return [this](std::int32_t id) -> std::string {
    if (id < 0 || static_cast<std::size_t>(id) >= net_.node_count()) return {};
    return net_.node(id).name();
  };
}

int Fabric::port_to(topo::NodeIndex from, topo::NodeIndex to) const {
  // The network's wiring, scanned from the last port: connect() numbers a
  // node's ports in link order, so of parallel links the last one wins.
  const net::Node& n = net_.node(from);
  for (int p = n.port_count() - 1; p >= 0; --p)
    if (n.peer(p).node == to) return p;
  return -1;
}

topo::NodeIndex Fabric::peer_of(topo::NodeIndex node, int port) const {
  if (node < 0 || static_cast<std::size_t>(node) >= net_.node_count())
    return -1;
  const net::Node& n = net_.node(node);
  if (port < 0 || port >= n.port_count()) return -1;
  return n.peer(port).node;
}

const analyze::Report* Fabric::analysis() const {
  return analysis_ ? &*analysis_ : nullptr;
}

void Fabric::install_routing(const topo::Topology& topo,
                             const topo::RoutingTable& routing) {
  // Pre-flight: the one spot where topology, routing and flow-control
  // parameters are all known before the new routes take effect. Every
  // install, a mid-run reroute after a link flap included, re-analyzes
  // from scratch; kFail throws analyze::PreflightError on an at-risk
  // verdict (campaign worker pools record it as the trial's failure) —
  // including flap-induced regressions mid-run.
  if (cfg_.preflight != analyze::PreflightMode::kOff || cfg_.witness_check) {
    analyze::Input in;
    in.topo = &topo;
    in.routing = &routing;
    in.cfg = cfg_;
    const analyze::Report& rep = analysis_.emplace(analyze::analyze(in));
    const int ordinal = reverdicts_++;
    if (tracer_)
      tracer_->record(trace::EventType::kAnalyzeVerdict, net_.sched().now(),
                      -1, -1, -1, ordinal,
                      static_cast<std::int64_t>(rep.verdict()));
    analyze::preflight_verdict(cfg_.preflight, rep);
  }
  const std::vector<topo::NodeIndex> hosts = topo.hosts();
  std::vector<std::int32_t> ports;  // one entry's out-ports, reused
  for (topo::NodeIndex s : topo.switches()) {
    net::SwitchNode& swn = sw(s);
    swn.clear_routes();
    for (topo::NodeIndex dst : hosts) {
      const auto hops = routing.next_hops(s, dst);
      if (hops.empty()) continue;
      ports.clear();
      for (topo::NodeIndex nh : hops) {
        const int p = port_to(s, nh);
        assert(p >= 0 && "routing references a failed link");
        ports.push_back(p);
      }
      swn.set_route(dst, ports);
    }
  }
}

std::int64_t Fabric::ingress_queue_bytes(topo::NodeIndex at,
                                         topo::NodeIndex from, int prio) {
  const int p = port_to(at, from);
  assert(p >= 0);
  return sw(at).ingress_bytes(p, prio);
}

sim::Rate Fabric::egress_rate(topo::NodeIndex node, topo::NodeIndex toward,
                              int prio) {
  const int p = port_to(node, toward);
  assert(p >= 0);
  net::Node& n = net_.node(node);
  if (auto* m = dynamic_cast<core::GfcBufferModule*>(n.fc())) {
    const sim::Rate r = m->programmed_rate(p, prio);
    return r.is_zero() ? cfg_.link.rate : r;
  }
  if (auto* m = dynamic_cast<core::GfcTimeModule*>(n.fc())) {
    const sim::Rate r = m->programmed_rate(p, prio);
    return r.is_zero() ? cfg_.link.rate : r;
  }
  if (auto* m = dynamic_cast<core::GfcConceptualModule*>(n.fc())) {
    const sim::Rate r = m->programmed_rate(p, prio);
    return r.is_zero() ? cfg_.link.rate : r;
  }
  return cfg_.link.rate;
}

}  // namespace gfc::runner
