// Unidirectional wire: fixed propagation delay to a (node, port) endpoint.
// Serialization happens at the egress port; the channel only delays
// delivery, so any number of packets may be "on the wire" at once.
//
// The channel is also where runtime faults live: link-control frames are
// offered to the Network's ControlFaultHook (drop / duplicate / delay) as
// they enter the wire, and a downed channel loses whatever is in flight
// when the propagation delay elapses — exactly the failure mode that makes
// edge-triggered protocols (PFC) lose XOFF/XON state.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_fifo.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace gfc::net {

class Node;
class Network;
struct ShardContext;

class Channel {
 public:
  Channel(Network& net, Node& dst, int dst_port, sim::TimePs prop_delay);

  /// Hand over a fully transmitted packet; it arrives after prop_delay
  /// (subject to fault injection for link-control frames).
  void deliver(Packet* pkt);

  /// Link state. Packets already propagating when the link goes down are
  /// lost at their arrival instant (counted in Counters::wire_lost_packets).
  void set_up(bool up) { up_ = up; }
  bool up() const { return up_; }

  sim::TimePs prop_delay() const { return prop_delay_; }
  Node& dst() { return dst_; }
  int dst_port() const { return dst_port_; }

  // --- sharded-core plumbing (src/par) -------------------------------------
  /// Register the flight timer on the destination's (shard) scheduler up
  /// front, so cross-shard sends never register on a foreign scheduler from
  /// a worker thread. Idempotent; the single-threaded engine keeps the lazy
  /// registration in propagate().
  void ensure_flight_timer();
  /// Move packets staged by cross-shard window sends into the wire FIFO.
  /// Called at the barrier only (single-threaded), in any channel order:
  /// per-channel arrival keys are FIFO, so appending staged packets in the
  /// order the source shard sent them matches the merged fire order.
  void splice_staged() {
    for (Packet* p : staged_) flight_.push_back(p);
    staged_.clear();
  }

 private:
  void propagate(Packet* pkt, sim::TimePs delay);
  void par_propagate(Packet* pkt, ShardContext& c);
  void flight_arrival();

  Network& net_;
  Node& dst_;
  int dst_port_;
  sim::TimePs prop_delay_;
  bool up_ = true;
  /// Destination is a host NIC: the wire is a flow's final hop, where the
  /// sharded core predicts completions (see Flow::par_wire_bytes).
  bool final_hop_ = false;
  // Fixed-delay wire FIFO: arrivals fire in send order (constant delay,
  // monotonic clock), so one multishot timer pops this queue head per
  // firing instead of each packet carrying its own one-shot closure.
  // Fault-delayed frames break FIFO and keep the one-shot path.
  PacketFifo flight_;
  /// Cross-shard sends staged during a window (single writer: the source
  /// shard; spliced into flight_ at the barrier by the coordinator).
  std::vector<Packet*> staged_;
  sim::TimerId flight_timer_{};
  /// flight_timer_'s slot generation, read once at registration (it never
  /// changes while the multishot timer stays registered). Cross-shard sends
  /// stamp it from the source shard's thread, which must not index the
  /// destination scheduler's slot table while that shard may be growing it.
  std::uint32_t flight_gen_ = 0;
};

}  // namespace gfc::net
