// Node base class: anything with ports (switches, hosts).
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/fc_module.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"

namespace gfc::net {

class Network;

class Node {
 public:
  Node(Network& net, NodeId id, std::string name);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// A packet fully arrived on `in_port` (after serialization+propagation).
  /// Ownership transfers to the node.
  virtual void receive(Packet* pkt, int in_port) = 0;

  /// An egress port finished transmitting `pkt` (called before the channel
  /// hand-off, at the transmission-complete instant).
  virtual void on_departure(Packet& pkt, int out_port);

  /// Pull-mode data source (input-queued switches): hand the egress port
  /// its next transmittable packet, honoring head-of-line order within each
  /// ingress queue and the port's gate. With consume == false this is a
  /// dry-run probe. *any_waiting reports whether any head targets this
  /// egress at all; *wake_at is lowered to the earliest gate wake time.
  /// Hosts (queue-mode) return nullptr and keep data in the port itself.
  virtual Packet* poll_data(int egress_port, sim::TimePs now,
                            sim::TimePs* wake_at, bool consume,
                            bool* any_waiting);

  /// True when poll_data drives this node's egress ports.
  virtual bool pull_mode() const { return is_switch(); }

  virtual bool is_switch() const = 0;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  Network& network() { return net_; }
  const Network& network() const { return net_; }

  /// Scheduler this node's events run on: the Network's scheduler, unless
  /// the sharded core (src/par) re-pointed the node at its shard. All
  /// node-side timers and callbacks must go through this — never
  /// network().sched() — so a shard's events stay on the shard.
  sim::Scheduler& sched_ref() { return *sched_; }
  void set_shard_sched(sim::Scheduler* s) { sched_ = s; }

  int port_count() const { return static_cast<int>(ports_.size()); }
  EgressPort& port(int i) { return *ports_[static_cast<std::size_t>(i)]; }
  const EgressPort& port(int i) const { return *ports_[static_cast<std::size_t>(i)]; }

  /// Peer wiring (filled by Network::connect).
  struct Peer {
    NodeId node = kInvalidNode;
    int port = -1;
  };
  Peer peer(int port_index) const { return peers_[static_cast<std::size_t>(port_index)]; }

  /// Create a new port transmitting at `rate`; returns its index. Throws
  /// std::invalid_argument when the node already has max_ports().
  int add_port(sim::Rate rate);

  /// Most ports this node can be wired with.
  virtual int max_ports() const { return std::numeric_limits<int>::max(); }
  /// Throws std::invalid_argument unless `n` more ports fit.
  void check_port_room(int n) const;

  void set_fc(std::unique_ptr<FcModule> fc);
  FcModule* fc() { return fc_.get(); }

  /// Build a 64 B link-control frame (caller fills type-specific fields,
  /// then hands it to send_control).
  Packet* make_control(PacketType type);

  /// Emit a link-control frame out of `port_index` (bypass queue).
  void send_control(int port_index, Packet* pkt);

 protected:
  /// A port was just added (subclasses size per-port state here, so
  /// nothing on the packet path has to).
  virtual void on_port_added() {}

  /// Route an arriving link-control frame to the FcModule after the
  /// configured processing delay, then free it.
  void deliver_control(Packet* pkt, int in_port);

 private:
  friend class Network;

  Network& net_;
  sim::Scheduler* sched_;  // set in the ctor; re-pointed by src/par
  NodeId id_;
  std::string name_;
  std::vector<std::unique_ptr<EgressPort>> ports_;
  std::vector<Peer> peers_;
  std::unique_ptr<FcModule> fc_;
};

}  // namespace gfc::net
