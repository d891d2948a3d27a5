#include "net/network.hpp"

#include <cassert>

namespace gfc::net {

Network::Network() = default;
Network::~Network() = default;

template <typename NodeT, typename... Args>
NodeT& Network::emplace_node(Args&&... args) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto node = std::make_unique<NodeT>(*this, id, std::forward<Args>(args)...);
  NodeT& ref = *node;
  nodes_.push_back(std::move(node));
  return ref;
}

SwitchNode& Network::add_switch(std::string name, std::int64_t buffer) {
  return emplace_node<SwitchNode>(std::move(name), buffer);
}

HostNode& Network::add_host(std::string name) {
  return emplace_node<HostNode>(std::move(name));
}

HostNode* Network::host(NodeId id) {
  return dynamic_cast<HostNode*>(nodes_[static_cast<std::size_t>(id)].get());
}

SwitchNode* Network::sw(NodeId id) {
  return dynamic_cast<SwitchNode*>(nodes_[static_cast<std::size_t>(id)].get());
}

std::pair<int, int> Network::connect(NodeId a, NodeId b, sim::Rate rate,
                                     sim::TimePs prop_delay) {
  Node& na = node(a);
  Node& nb = node(b);
  // Check both ends first so a refused link leaves neither node half-wired.
  na.check_port_room(a == b ? 2 : 1);
  nb.check_port_room(1);
  const int pa = na.add_port(rate);
  const int pb = nb.add_port(rate);
  channels_.push_back(std::make_unique<Channel>(*this, nb, pb, prop_delay));
  na.port(pa).connect(channels_.back().get());
  channels_.push_back(std::make_unique<Channel>(*this, na, pa, prop_delay));
  nb.port(pb).connect(channels_.back().get());
  na.peers_[static_cast<std::size_t>(pa)] = Node::Peer{b, pb};
  nb.peers_[static_cast<std::size_t>(pb)] = Node::Peer{a, pa};
  return {pa, pb};
}

int Network::find_port(NodeId from, NodeId to) const {
  const Node& n = node(from);
  for (int p = 0; p < n.port_count(); ++p)
    if (n.peer(p).node == to) return p;
  return -1;
}

void Network::set_link_state(NodeId a, NodeId b, bool up) {
  const int pa = find_port(a, b);
  assert(pa >= 0 && "set_link_state on non-adjacent nodes");
  const int pb = node(a).peer(pa).port;
  EgressPort& ea = node(a).port(pa);
  EgressPort& eb = node(b).port(pb);
  ea.set_link_up(up);
  eb.set_link_up(up);
  if (up) {
    ea.kick();
    eb.kick();
  }
}

void Network::reroute_stranded() {
  for (auto& n : nodes_)
    if (auto* s = dynamic_cast<SwitchNode*>(n.get())) s->reroute_stranded();
}

Packet* Network::clone_control(const Packet& src) {
  Packet* pkt = pool().acquire();
  pkt->type = src.type;
  pkt->priority = src.priority;
  pkt->size_bytes = src.size_bytes;
  pkt->src = src.src;
  pkt->dst = src.dst;
  pkt->fc_priority = src.fc_priority;
  pkt->fc_stage = src.fc_stage;
  pkt->fc_value = src.fc_value;
  pkt->fc_trigger_origin = src.fc_trigger_origin;
  pkt->fc_trigger_seq = src.fc_trigger_seq;
  pkt->created_at = src.created_at;
  return pkt;
}

Flow& Network::create_flow(NodeId src, NodeId dst, std::uint8_t priority,
                           std::int64_t size_bytes, sim::TimePs start_time) {
  assert(host(src) != nullptr && host(dst) != nullptr);
  Flow flow;
  flow.id = static_cast<FlowId>(flows_.size());
  flow.src = src;
  flow.dst = dst;
  flow.priority = priority;
  flow.size_bytes = size_bytes;
  flow.start_time = start_time;
  flow.path_salt = rng_.engine()();
  flows_.push_back(flow);
  const FlowId id = flow.id;
  if (start_time <= sched_.now()) {
    host(src)->start_flow(id);
  } else {
    sched_.schedule_at(start_time, [this, src, id] { host(src)->start_flow(id); });
  }
  return flows_.back();
}

void Network::notify_delivery(const Packet& pkt) {
  ShardContext* c = shard_ctx();
  if (c != nullptr && c->log != nullptr) {
    // Listener state is global; log the fields listeners consume and replay
    // the notification on the coordinator at the barrier, in merge order.
    sim::WinRecord r;
    r.kind = sim::WinRecord::kDelivery;
    r.flags = pkt.priority;
    r.slot = static_cast<std::uint32_t>(pkt.src);
    r.gen = static_cast<std::uint32_t>(pkt.dst);
    r.aux = static_cast<std::uint32_t>(pkt.size_bytes);
    r.t = c->sched->now();
    r.prov = static_cast<std::uint64_t>(pkt.flow);
    c->log->recs.push_back(r);
    return;
  }
  for (DeliveryListener* l : delivery_listeners_) l->on_delivery(pkt, sched_.now());
}

void Network::replay_delivery(const sim::WinRecord& r) {
  // The original Packet may already be freed and reused; listeners only read
  // the routing/size fields, so a synthesized packet carries the logged view.
  Packet tmp;
  tmp.type = PacketType::kData;
  tmp.priority = r.flags;
  tmp.size_bytes = static_cast<std::int64_t>(r.aux);
  tmp.src = static_cast<NodeId>(r.slot);
  tmp.dst = static_cast<NodeId>(r.gen);
  tmp.flow = static_cast<FlowId>(r.prov);
  for (DeliveryListener* l : delivery_listeners_) l->on_delivery(tmp, r.t);
}

void Network::stage_trace(ShardContext& c, trace::EventType type,
                          std::int32_t node, std::int32_t port,
                          std::int32_t prio, std::uint64_t id,
                          std::int64_t value) {
  if (!tracer_->enabled(trace::category_of(type))) return;
  trace::TraceEvent e;
  e.t = c.sched->now();
  e.value = value;
  e.id = id;
  e.node = node;
  e.port = static_cast<std::int16_t>(port);
  e.prio = static_cast<std::int8_t>(prio);
  e.type = static_cast<std::uint8_t>(type);
  sim::WinRecord r;
  r.kind = sim::WinRecord::kTrace;
  r.aux = static_cast<std::uint32_t>(c.trace_stage->size());
  c.trace_stage->push_back(e);
  c.log->recs.push_back(r);
}

void Network::notify_completion(Flow& flow) {
  // Completions must run on the coordinator between windows (the split
  // prediction in Channel::propagate guarantees it) — listeners relaunch
  // flows through the shared rng and the main scheduler.
  assert(shard_ctx() == nullptr || shard_ctx()->log == nullptr);
  for (auto& fn : completion_listeners_) fn(flow);
}

}  // namespace gfc::net
