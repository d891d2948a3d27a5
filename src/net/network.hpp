// Network: owner of the scheduler, packet pool, nodes, channels, flows and
// the pluggable congestion-control module. The single place experiments
// talk to.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "net/fc_module.hpp"
#include "net/flow.hpp"
#include "net/host.hpp"
#include "net/node.hpp"
#include "net/switch.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace gfc::net {

class ControlFaultHook;

/// Receives every data-packet delivery at any host (throughput samplers).
class DeliveryListener {
 public:
  virtual ~DeliveryListener() = default;
  virtual void on_delivery(const Packet& pkt, sim::TimePs now) = 0;
};

struct Counters {
  std::uint64_t lossless_violations = 0;  // ingress buffer exceeded capacity
  std::uint64_t route_drops = 0;          // unroutable packets (config bug)
  std::uint64_t data_packets_delivered = 0;
  std::int64_t data_bytes_delivered = 0;
  std::uint64_t control_frames_sent = 0;
  std::uint64_t flows_completed = 0;
  // Runtime-fault accounting (all zero unless faults are injected):
  std::uint64_t wire_lost_packets = 0;   // in flight when the link went down
  std::uint64_t failover_drops = 0;      // stranded on a dead egress, no route
};

/// Per-thread routing context for the sharded parallel core (src/par). A
/// worker executing one shard's window installs a context, and Network's
/// hot-path accessors (pool / counters / trace_event / notify_delivery)
/// route to shard-local replicas whose effects are merged deterministically
/// at the barrier; the coordinator installs a "direct" context (log ==
/// nullptr) that routes to the Network-owned instances but draws ids and
/// sequence numbers from the shared global counters. No context installed
/// (the default, and always on the single-threaded engine) means no routing
/// at all.
struct ShardContext {
  sim::Scheduler* sched = nullptr;  // shard scheduler (direct mode: main)
  PacketPool* pool = nullptr;
  Counters* counters = nullptr;
  sim::WindowLog* log = nullptr;    // non-null => window (parallel) mode
  std::vector<trace::TraceEvent>* trace_stage = nullptr;  // window staging
  std::uint64_t* gseq = nullptr;  // shared global event-sequence counter
  // Direct-mode completion-split hook (Channel::propagate -> par agenda).
  void (*on_split)(void* env, sim::TimePs t, std::uint64_t g) = nullptr;
  void* split_env = nullptr;
};

namespace detail {
inline thread_local ShardContext* t_shard_ctx = nullptr;
}  // namespace detail
inline ShardContext* shard_ctx() { return detail::t_shard_ctx; }
inline void set_shard_ctx(ShardContext* c) { detail::t_shard_ctx = c; }

/// Parallel-engine hook: when installed, Network::run_until hands the run
/// to the sharded coordinator instead of the single scheduler.
class ParHook {
 public:
  virtual ~ParHook() = default;
  virtual void run_until(sim::TimePs t_end) = 0;
  virtual std::uint64_t executed_events() const = 0;
  virtual std::uint64_t packets_created() const = 0;
};

class Network {
 public:
  Network();
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Scheduler& sched() { return sched_; }
  PacketPool& pool() {
    ShardContext* c = shard_ctx();
    return c != nullptr ? *c->pool : pool_;
  }
  sim::Rng& rng() { return rng_; }
  void reseed(std::uint64_t seed) { rng_ = sim::Rng(seed); }

  // --- construction -------------------------------------------------------
  SwitchNode& add_switch(std::string name, std::int64_t ingress_buffer_bytes);
  HostNode& add_host(std::string name);

  /// Wire a full-duplex link: creates one port on each node and a channel
  /// in each direction. Returns {port index on a, port index on b}. Throws
  /// std::invalid_argument, wiring nothing, when either node already has
  /// its Node::max_ports().
  std::pair<int, int> connect(NodeId a, NodeId b, sim::Rate rate,
                              sim::TimePs prop_delay);

  /// First port on `from` whose peer is `to`; -1 when not adjacent.
  int find_port(NodeId from, NodeId to) const;

  /// Take the full-duplex a<->b link down or up at the current instant.
  /// Down: both directions stop accepting transmissions, packets already
  /// propagating are lost on arrival, and hold-and-wait probing ignores the
  /// dead ports (a failed link is not a flow-control wait). Up: both ports
  /// are kicked. Queued packets stay put; call reroute_stranded() after
  /// updating routing to move them.
  void set_link_state(NodeId a, NodeId b, bool up);

  /// Ask every switch to re-route packets queued behind dead egress ports
  /// (drops the unroutable ones into Counters::failover_drops).
  void reroute_stranded();

  Node& node(NodeId id) { return *nodes_[static_cast<std::size_t>(id)]; }
  const Node& node(NodeId id) const { return *nodes_[static_cast<std::size_t>(id)]; }
  std::size_t node_count() const { return nodes_.size(); }
  HostNode* host(NodeId id);
  SwitchNode* sw(NodeId id);

  // --- flows ---------------------------------------------------------------
  /// Register a flow; it starts automatically at `start_time`.
  Flow& create_flow(NodeId src, NodeId dst, std::uint8_t priority,
                    std::int64_t size_bytes, sim::TimePs start_time);
  Flow& flow(FlowId id) { return flows_[static_cast<std::size_t>(id)]; }
  const Flow& flow(FlowId id) const { return flows_[static_cast<std::size_t>(id)]; }
  std::size_t flow_count() const { return flows_.size(); }

  // --- modules -------------------------------------------------------------
  void set_cc(std::unique_ptr<CcModule> cc) { cc_ = std::move(cc); }
  CcModule* cc() { return cc_.get(); }

  /// Feedback processing latency t_r applied to every link-control frame on
  /// receipt (also absorbs testbed-style software padding of tau).
  void set_control_delay(sim::TimePs d) { control_delay_ = d; }
  sim::TimePs control_delay() const { return control_delay_; }

  /// Install (or clear) the runtime fault hook consulted by channels for
  /// every link-control frame. Not owned; the installer must outlive use or
  /// clear it. Null (the default) keeps the wire perfect.
  void set_fault_hook(ControlFaultHook* hook) { fault_hook_ = hook; }
  ControlFaultHook* fault_hook() { return fault_hook_; }

  /// Copy of a link-control frame with a fresh id (fault duplication).
  Packet* clone_control(const Packet& src);

  // --- observation ----------------------------------------------------------
  Counters& counters() {
    ShardContext* c = shard_ctx();
    return c != nullptr ? *c->counters : counters_;
  }
  const Counters& counters() const { return counters_; }

  /// Install (or clear) the binary tracer. Not owned (runner::Fabric owns
  /// it); one tracer per network — campaigns run many sims concurrently, so
  /// there is deliberately no global. Null (the default) disables tracing.
  void set_tracer(trace::Tracer* t) { tracer_ = t; }
  trace::Tracer* tracer() { return tracer_; }

  /// Hot-path trace hook. With no tracer installed this is one predictable
  /// branch; arguments are values the caller already holds. Inside a shard
  /// window the record is staged in the shard's log and appended to the
  /// real tracer at the barrier, in replay order.
  void trace_event(trace::EventType type, std::int32_t node, std::int32_t port,
                   std::int32_t prio, std::uint64_t id, std::int64_t value) {
    if (tracer_ == nullptr) return;
    ShardContext* c = shard_ctx();
    if (c != nullptr && c->log != nullptr) {
      stage_trace(*c, type, node, port, prio, id, value);
      return;
    }
    tracer_->record(type, sched_.now(), node, port, prio, id, value);
  }

  void add_delivery_listener(DeliveryListener* l) { delivery_listeners_.push_back(l); }
  void add_completion_listener(std::function<void(Flow&)> fn) {
    completion_listeners_.push_back(std::move(fn));
  }

  void notify_delivery(const Packet& pkt);
  void notify_completion(Flow& flow);

  void free_packet(Packet* pkt) { pool().release(pkt); }

  /// Advance the simulation (through the parallel coordinator when one is
  /// installed).
  void run_until(sim::TimePs t) {
    if (par_ != nullptr) {
      par_->run_until(t);
      return;
    }
    sched_.run_until(t);
  }

  /// Install (or clear) the sharded parallel coordinator. Not owned.
  void set_par_hook(ParHook* p) { par_ = p; }
  ParHook* par_hook() { return par_; }

  /// Events executed so far, summed across shards when sharded.
  std::uint64_t executed_events() const {
    return par_ != nullptr ? par_->executed_events() : sched_.executed_events();
  }
  /// Packets ever allocated, from the global id counter when sharded.
  std::uint64_t packets_created() const {
    return par_ != nullptr ? par_->packets_created() : pool_.total_created();
  }

  // --- sharded-core plumbing (src/par) -------------------------------------
  std::size_t channel_count() const { return channels_.size(); }
  Channel& channel(std::size_t i) { return *channels_[i]; }

  /// Re-dispatch a logged delivery notification (barrier merge replay).
  void replay_delivery(const sim::WinRecord& r);

  /// Append a shard-staged trace record to the real tracer (merge replay;
  /// produces the exact record the single-threaded hot path would have).
  void emit_trace(const trace::TraceEvent& e) {
    if (tracer_ != nullptr)
      tracer_->record(e.event_type(), e.t, e.node, e.port, e.prio, e.id,
                      e.value);
  }

 private:
  void stage_trace(ShardContext& c, trace::EventType type, std::int32_t node,
                   std::int32_t port, std::int32_t prio, std::uint64_t id,
                   std::int64_t value);

  template <typename NodeT, typename... Args>
  NodeT& emplace_node(Args&&... args);

  sim::Scheduler sched_;
  PacketPool pool_;
  sim::Rng rng_{0x9FC0DE5EEDull};
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::deque<Flow> flows_;  // deque: stable Flow& across mid-run create_flow
  std::unique_ptr<CcModule> cc_;
  ControlFaultHook* fault_hook_ = nullptr;
  ParHook* par_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  sim::TimePs control_delay_ = 0;
  Counters counters_;
  std::vector<DeliveryListener*> delivery_listeners_;
  std::vector<std::function<void(Flow&)>> completion_listeners_;
};

}  // namespace gfc::net
