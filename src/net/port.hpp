// Egress port: per-priority data queues, a control-frame bypass queue, and
// a transmit state machine gated by the attached flow-control mechanism.
//
// Within a priority, packets are kept in per-ingress-source buckets served
// round-robin (the per-source fairness a shared-buffer switch's egress
// arbiter provides). Without it, egress bandwidth splits proportionally to
// arrival rate and transit queues balloon ahead of source queues, which is
// neither how real fabrics behave nor how the paper's queues evolve.
//
// Control frames bypass data queues and are never paused/rate limited, but
// they cannot preempt an in-flight data packet — this produces the MTU/C
// components of the paper's feedback latency tau (Eq. 6).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_fifo.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace gfc::net {

class Node;
class Channel;

/// Transmission gate installed on an egress port by the flow-control
/// mechanism's upstream half. Decides whether a data packet may start
/// transmission now.
class TxGate {
 public:
  virtual ~TxGate() = default;

  /// May `pkt` start transmission at `now`? If blocked and the gate knows
  /// its own wake time (rate limiters do), it lowers *wake_at (absolute
  /// time); event-driven gates (pause, credits) leave it untouched and call
  /// EgressPort::kick() when state changes.
  virtual bool allowed(const Packet& pkt, sim::TimePs now, sim::TimePs* wake_at) = 0;

  /// A data packet passed the gate and started transmission at `now`.
  virtual void on_transmit(const Packet& pkt, sim::TimePs now) = 0;
};

/// Gate that always allows (no flow control).
class OpenGate final : public TxGate {
 public:
  bool allowed(const Packet&, sim::TimePs, sim::TimePs*) override { return true; }
  void on_transmit(const Packet&, sim::TimePs) override {}
};

class EgressPort {
 public:
  EgressPort(Node& owner, int index, sim::Rate line_rate);

  void connect(Channel* channel) { channel_ = channel; }
  bool connected() const { return channel_ != nullptr; }
  Channel* channel() { return channel_; }

  /// Link state (runtime failures). A downed port keeps its queues but
  /// starts no transmissions; its outgoing channel mirrors the state so
  /// in-flight packets are lost. Callers kick() after bringing it back up.
  void set_link_up(bool up);
  bool link_up() const { return link_up_; }

  /// Queue a data packet (or routed CNP) for transmission. The packet's
  /// current ingress_port keys the fairness bucket.
  void enqueue(Packet* pkt);

  /// Queue a link-control frame (bypass lane).
  void enqueue_control(Packet* pkt);

  /// Re-evaluate transmission; called by gates when they open.
  void kick();

  void set_gate(std::unique_ptr<TxGate> gate);
  TxGate& gate() { return *gate_; }

  // --- observers ---------------------------------------------------------
  int index() const { return index_; }
  sim::Rate line_rate() const { return rate_; }
  Node& owner() { return owner_; }
  bool busy() const { return in_flight_ != nullptr; }
  std::int64_t queued_bytes(int prio) const {
    return data_[static_cast<std::size_t>(prio)].bytes;
  }
  std::int64_t queued_bytes_total() const;
  std::size_t queued_packets() const;
  std::uint64_t tx_data_bytes() const { return tx_data_bytes_; }
  std::uint64_t tx_control_bytes() const { return tx_control_bytes_; }
  std::uint64_t tx_control_frames() const { return tx_control_frames_; }

  /// Deadlock probe: true iff the port holds data, is idle, and every
  /// priority's next-up packet is blocked by the gate with no scheduled
  /// wake — i.e. the port is in the paper's hold-and-wait state.
  bool probe_hold_and_wait(sim::TimePs now);

  /// Visit every queued data packet (deadlock analysis).
  template <typename Fn>
  void for_each_queued(Fn&& fn) const {
    for (const auto& pq : data_)
      for (const auto& bucket : pq.buckets) bucket.q.for_each(fn);
    if (in_flight_ != nullptr && !in_flight_->is_control()) fn(*in_flight_);
  }

 private:
  /// Per-ingress-source FIFO inside one priority class.
  struct Bucket {
    std::int32_t key;
    PacketFifo q;
  };
  struct PrioQueue {
    std::vector<Bucket> buckets;
    std::size_t rr = 0;  // bucket round-robin cursor
    std::int64_t bytes = 0;
    std::size_t packets = 0;

    bool empty() const { return packets == 0; }
    /// The packet the round-robin arbiter would serve next (nullptr when
    /// empty); *bucket_out reports which bucket it sits in.
    Packet* next_up(std::size_t* bucket_out);
  };

  void try_transmit();
  void start_tx(Packet* pkt, bool control);
  void complete_tx();
  sim::Scheduler& sched();

  /// Drop any pending wake timer.
  void cancel_wake();
  /// Arm (or keep) the wake timer for `wake_at`; kTimeNever disarms. A
  /// pending timer for the same instant is kept instead of being
  /// cancel/re-scheduled — gate kicks that do not change the wake time are
  /// common and the churn is measurable (BM_SchedulerCancelChurn).
  void set_wake(sim::TimePs wake_at);

  Node& owner_;
  int index_;
  sim::Rate rate_;
  Channel* channel_ = nullptr;

  PacketFifo control_q_;
  std::array<PrioQueue, kNumPriorities> data_;
  int rr_prio_ = 0;  // round-robin pointer over priorities
  // Bit p set iff data_[p] holds packets; the transmit scan walks set bits
  // only (in the same rr order) instead of touching all eight PrioQueues.
  std::uint32_t nonempty_prios_ = 0;

  std::unique_ptr<TxGate> gate_;
  bool link_up_ = true;
  Packet* in_flight_ = nullptr;
  bool in_flight_control_ = false;
  sim::EventId wake_event_{};
  sim::TimePs wake_at_ = sim::kTimeNever;  // instant wake_event_ fires at
  sim::TimerId tx_done_timer_{};           // registered complete_tx drain timer

  std::uint64_t tx_data_bytes_ = 0;
  std::uint64_t tx_control_bytes_ = 0;
  std::uint64_t tx_control_frames_ = 0;
};

}  // namespace gfc::net
