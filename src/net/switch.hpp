// Switch model with per-(ingress port, priority) buffer accounting and a
// configurable queueing discipline:
//
// * kOutputQueuedFifo (default): one unbounded FIFO per (egress,
//   priority), admission in arrival order — the classic OMNET++/ns-3
//   switch model the paper's simulator corresponds to. A contended egress
//   splits bandwidth proportionally to arrival rate, so transient
//   overloads push ingress accounting to XOFF and pauses propagate: this
//   is the model that reproduces the paper's PFC/CBFC deadlocks.
// * kCioqRoundRobin: CIOQ — one FIFO per (ingress, priority) feeding a
//   *bounded* FIFO per (egress, priority), with per-egress round-robin
//   arbitration across ingress ports (a crossbar / DPDK-RX-polling
//   fabric). Gives per-source-fair shares; reproduces the paper's GFC
//   steady-state numbers exactly. Under fair arbitration a *static*
//   symmetric ring reaches a stable equilibrium instead of deadlocking —
//   an ablation finding this library documents (bench/ablation_arbitration).
// * kInputQueued: no output stage; egress ports pull competing input-queue
//   heads directly (pure VOQ-less input queueing). Ablation only.
//
// Either way a packet is charged to the (ingress port, priority) it arrived
// on until it finishes transmitting on its egress, which is what the
// PFC/CBFC/GFC downstream halves watch.
//
// Every FIFO is an intrusive PacketFifo, and every per-port table is sized
// as ports are wired (input FIFOs only for the architectures that read
// them), so the packet path never allocates. A switch takes at most
// kMaxPorts ports: the dispatch and kick paths carry egress sets as 64-bit
// masks.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "net/node.hpp"
#include "net/packet_fifo.hpp"

namespace gfc::net {

/// ECN marking config (RED-style on ingress occupancy; kmin == kmax &&
/// pmax == 1 gives the simple threshold marking used in the paper's DCQCN
/// study).
struct EcnConfig {
  bool enabled = false;
  std::int64_t kmin = 0;
  std::int64_t kmax = 0;
  double pmax = 1.0;
};

enum class SwitchArch {
  kOutputQueuedFifo,  // arrival-order shared egress FIFOs (default)
  kCioqRoundRobin,    // fair crossbar: input FIFOs + bounded egress FIFOs
  kInputQueued,       // pure input queueing (ablation)
};

class SwitchNode final : public Node {
 public:
  SwitchNode(Network& net, NodeId id, std::string name,
             std::int64_t ingress_buffer_bytes);

  /// Most ports one switch can be wired with (Network::connect throws past
  /// it).
  static constexpr int kMaxPorts = 64;

  void set_arch(SwitchArch a);
  SwitchArch arch() const { return arch_; }

  /// CIOQ egress output-queue byte cap per (egress, priority).
  void set_egress_queue_cap(std::int64_t cap) { egress_cap_ = cap; }
  std::int64_t egress_queue_cap() const { return egress_cap_; }

  bool is_switch() const override { return true; }
  int max_ports() const override { return kMaxPorts; }
  void receive(Packet* pkt, int in_port) override;
  void on_departure(Packet& pkt, int out_port) override;
  Packet* poll_data(int egress_port, sim::TimePs now, sim::TimePs* wake_at,
                    bool consume, bool* any_waiting) override;

  // --- forwarding ---------------------------------------------------------
  /// Equal-cost candidate out-ports toward destination host `dst`.
  void set_route(NodeId dst, std::span<const std::int32_t> out_ports);
  void set_route(NodeId dst, std::initializer_list<std::int32_t> out_ports) {
    set_route(dst, std::span<const std::int32_t>(out_ports.begin(), out_ports.size()));
  }
  void clear_routes();
  /// Selected out-port for this packet (-1 if unroutable). ECMP choice is
  /// a deterministic hash of the flow's path salt.
  int route_for(const Packet& pkt) const;

  // --- buffers ------------------------------------------------------------
  std::int64_t ingress_buffer_bytes() const { return buffer_; }
  /// Occupancy charged to (port, prio): queued + being transmitted.
  std::int64_t ingress_bytes(int port, int prio) const {
    return ingress_bytes_[static_cast<std::size_t>(port)]
                         [static_cast<std::size_t>(prio)];
  }
  std::int64_t ingress_bytes_total(int port) const;

  /// FIFO of (egress port, priority): every queued packet under the
  /// output-queued architecture, the admitted ones under CIOQ.
  const PacketFifo& egress_queue(int egress, int prio) const {
    return outq_[static_cast<std::size_t>(egress)][static_cast<std::size_t>(prio)];
  }
  /// Input FIFO of (ingress port, priority); CIOQ and input-queued only.
  const PacketFifo& input_queue(int in_port, int prio) const {
    return inq_[static_cast<std::size_t>(in_port)][static_cast<std::size_t>(prio)];
  }

  /// Egress ports targeted by the current heads of ingress queue
  /// `in_port` (one per active priority) — deadlock wait-for edges.
  void head_targets(int in_port, std::vector<int>* out) const;

  void set_ecn(const EcnConfig& cfg) { ecn_ = cfg; }
  const EcnConfig& ecn() const { return ecn_; }

  std::uint64_t forwarded_packets() const { return forwarded_packets_; }

  // --- runtime failures ----------------------------------------------------
  /// Re-route every queued packet whose selected egress link is down (new
  /// ECMP choice among live candidates; FIFO order preserved per queue).
  /// Unroutable packets are dropped into Counters::failover_drops with
  /// their ingress accounting released. Call after routing tables have
  /// been updated for the failure.
  void reroute_stranded();

  /// Deadlock recovery: discard everything queued for `egress` (output
  /// queue plus wedged input-FIFO heads), releasing ingress accounting so
  /// flow control can recover. Returns the number of packets dropped.
  std::uint64_t drain_egress(int egress);

  /// Surgical deadlock break (DCFIT drop-one policy): discard only the
  /// single next-up packet queued for `egress` — lowest non-empty priority
  /// FIFO first, wedged input-FIFO heads as fallback — releasing its
  /// ingress accounting. Returns the number of packets dropped (0 or 1).
  std::uint64_t drop_egress_head(int egress);

 protected:
  void on_port_added() override;

 private:
  using PrioFifos = std::array<PacketFifo, kNumPriorities>;

  /// Grow the per-port tables to port_count() (inq_ only when read).
  void size_tables();
  void account_enqueue(Packet& pkt, int in_port);
  /// Release (ingress port, priority) accounting and fire the flow-control
  /// dequeue hook — shared by departure and the runtime drop paths.
  void release_ingress(Packet& pkt);
  void maybe_mark_ecn(Packet& pkt, int in_port);

  std::int64_t buffer_;
  EcnConfig ecn_;
  std::vector<std::array<std::int64_t, kNumPriorities>> ingress_bytes_;
  /// Input FIFOs per (ingress port, priority); empty under the
  /// output-queued architecture, which never reads them.
  std::vector<PrioFifos> inq_;
  /// Egress FIFOs per (egress port, priority); bounded by egress_cap_ bytes
  /// under CIOQ.
  std::vector<PrioFifos> outq_;
  /// Round-robin cursors per egress port.
  struct EgressRr {
    int prio = 0;
    int in = 0;
  };
  std::vector<EgressRr> rr_;
  /// Move eligible input-queue heads into the output queues of
  /// `seed_egress` (and any egress unblocked by the moves), with per-egress
  /// round-robin arbitration across ingress ports — a crossbar arbiter.
  /// Wakes egresses that received work (deferred to avoid re-entering the
  /// transmit path this may be called from).
  void dispatch(int seed_egress);
  /// Drain one queued kick mask (one dispatch's deferred egress wake-ups).
  void fire_kicks();

  std::uint32_t active_prios_ = 0;  // bitmask: priorities ever seen
  // Deferred-kick masks, FIFO, drained by the shared multishot kick timer —
  // one firing per queued mask, in the order the dispatches armed it.
  // kick_head_ is the next mask to fire; both reset when the queue drains.
  std::vector<std::uint64_t> kick_masks_;
  std::size_t kick_head_ = 0;
  sim::TimerId kick_timer_{};
  SwitchArch arch_ = SwitchArch::kOutputQueuedFifo;
  std::int64_t egress_cap_ = 3000;  // 2 MTU
  /// Per-egress RR cursor over ingress ports (dispatch arbitration).
  std::vector<int> arb_rr_;
  // Route table, flattened: per-dst (offset, count) into one contiguous
  // candidate array — route_for reads two adjacent allocations instead of
  // chasing a heap vector per destination. Re-routing a dst appends fresh
  // slots (the orphaned old ones are build-time-bounded garbage).
  struct RouteRef {
    std::uint32_t off = 0;
    std::uint32_t n = 0;
  };
  std::vector<RouteRef> route_ref_;          // indexed by dst NodeId
  std::vector<std::int32_t> route_slots_;    // all candidate out-ports
  std::uint64_t forwarded_packets_ = 0;
};

}  // namespace gfc::net
