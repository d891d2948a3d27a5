#include "net/port.hpp"

#include <bit>
#include <cassert>

#include "net/channel.hpp"
#include "net/network.hpp"
#include "net/node.hpp"

namespace gfc::net {

EgressPort::EgressPort(Node& owner, int index, sim::Rate line_rate)
    : owner_(owner),
      index_(index),
      rate_(line_rate),
      gate_(std::make_unique<OpenGate>()) {}

sim::Scheduler& EgressPort::sched() { return owner_.sched_ref(); }

std::int64_t EgressPort::queued_bytes_total() const {
  std::int64_t sum = 0;
  for (const auto& pq : data_) sum += pq.bytes;
  return sum;
}

std::size_t EgressPort::queued_packets() const {
  std::size_t n = control_q_.size();
  for (const auto& pq : data_) n += pq.packets;
  return n;
}

Packet* EgressPort::PrioQueue::next_up(std::size_t* bucket_out) {
  if (packets == 0) return nullptr;
  const std::size_t n = buckets.size();
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t b = rr + step;
    if (b >= n) b -= n;  // rr + step < 2*n
    if (!buckets[b].q.empty()) {
      *bucket_out = b;
      return buckets[b].q.front();
    }
  }
  return nullptr;
}

void EgressPort::set_gate(std::unique_ptr<TxGate> gate) {
  assert(gate != nullptr);
  gate_ = std::move(gate);
}

void EgressPort::enqueue(Packet* pkt) {
  assert(!pkt->is_control());
  auto& pq = data_[static_cast<std::size_t>(pkt->priority)];
  Bucket* bucket = nullptr;
  for (auto& b : pq.buckets)
    if (b.key == pkt->ingress_port) bucket = &b;
  if (bucket == nullptr) {
    pq.buckets.push_back(Bucket{pkt->ingress_port, PacketFifo{}});
    bucket = &pq.buckets.back();
  }
  bucket->q.push_back(pkt);
  pq.bytes += pkt->size_bytes;
  ++pq.packets;
  nonempty_prios_ |= 1u << pkt->priority;
  owner_.network().trace_event(trace::EventType::kPortEnqueue, owner_.id(),
                               index_, pkt->priority, pkt->id, pq.bytes);
  try_transmit();
}

void EgressPort::enqueue_control(Packet* pkt) {
  assert(pkt->is_control());
  control_q_.push_back(pkt);
  try_transmit();
}

void EgressPort::kick() { try_transmit(); }

void EgressPort::set_link_up(bool up) {
  link_up_ = up;
  owner_.network().trace_event(
      up ? trace::EventType::kLinkUp : trace::EventType::kLinkDown,
      owner_.id(), index_, -1, 0, queued_bytes_total());
  if (channel_ != nullptr) channel_->set_up(up);
}

void EgressPort::cancel_wake() {
  if (wake_event_.valid()) {
    sched().cancel(wake_event_);
    wake_event_ = {};
    owner_.network().trace_event(trace::EventType::kWakeCancel, owner_.id(),
                                 index_, -1, 0, wake_at_);
  }
  wake_at_ = sim::kTimeNever;
}

void EgressPort::set_wake(sim::TimePs wake_at) {
  if (wake_event_.valid()) {
    if (wake_at == wake_at_) return;  // timer already armed for that instant
    owner_.network().trace_event(trace::EventType::kWakeCancel, owner_.id(),
                                 index_, -1, 0, wake_at_);
    if (wake_at != sim::kTimeNever) {
      // Retarget the armed timer in place: same callback, fresh FIFO
      // sequence number — observably identical to cancel + schedule, minus
      // the callback teardown/rebuild and slot free-list round trip.
      const sim::EventId moved = sched().reschedule(wake_event_, wake_at);
      if (moved.valid()) {
        wake_event_ = moved;
        wake_at_ = wake_at;
        owner_.network().trace_event(trace::EventType::kWakeArm, owner_.id(),
                                     index_, -1, 0, wake_at);
        return;
      }
    }
    sched().cancel(wake_event_);
    wake_event_ = {};
  }
  wake_at_ = wake_at;
  if (wake_at == sim::kTimeNever) return;
  owner_.network().trace_event(trace::EventType::kWakeArm, owner_.id(), index_,
                               -1, 0, wake_at);
  wake_event_ = sched().schedule_at(wake_at, [this] {
    wake_event_ = {};
    wake_at_ = sim::kTimeNever;
    owner_.network().trace_event(trace::EventType::kWakeFire, owner_.id(),
                                 index_, -1, 0, sched().now());
    try_transmit();
  });
}

void EgressPort::try_transmit() {
  if (in_flight_ != nullptr || !link_up_) return;

  // Control frames bypass data queues and all gating.
  if (!control_q_.empty()) {
    cancel_wake();
    Packet* pkt = control_q_.pop_front();
    start_tx(pkt, /*control=*/true);
    return;
  }

  const sim::TimePs now = sched().now();
  sim::TimePs wake_at = sim::kTimeNever;

  if (owner_.pull_mode()) {
    bool any_waiting = false;
    Packet* pkt = owner_.poll_data(index_, now, &wake_at, /*consume=*/true,
                                   &any_waiting);
    if (pkt != nullptr) {
      cancel_wake();
      start_tx(pkt, /*control=*/false);
    } else {
      set_wake(wake_at);
    }
    return;
  }

  // Queue mode (hosts): round-robin over priorities (no head-of-line
  // blocking across classes), then over source buckets within the priority.
  // Rotate the nonempty mask so bit k stands for priority (rr_prio_ + k);
  // walking its set bits visits exactly the prios the full scan would.
  std::uint32_t rot = ((nonempty_prios_ >> rr_prio_) |
                       (nonempty_prios_ << (kNumPriorities - rr_prio_))) &
                      ((1u << kNumPriorities) - 1);
  while (rot != 0) {
    const int step = std::countr_zero(rot);
    rot &= rot - 1;
    const int prio = (rr_prio_ + step) % kNumPriorities;
    auto& pq = data_[static_cast<std::size_t>(prio)];
    std::size_t bucket = 0;
    Packet* pkt = pq.next_up(&bucket);
    if (pkt == nullptr) continue;
    if (gate_->allowed(*pkt, now, &wake_at)) {
      pq.buckets[bucket].q.pop_front();
      pq.bytes -= pkt->size_bytes;
      --pq.packets;
      if (pq.packets == 0) nonempty_prios_ &= ~(1u << prio);
      pq.rr = bucket + 1 == pq.buckets.size() ? 0 : bucket + 1;
      rr_prio_ = (prio + 1) % kNumPriorities;
      cancel_wake();
      start_tx(pkt, /*control=*/false);
      return;
    }
  }

  assert(wake_at == sim::kTimeNever || wake_at >= now);
  set_wake(wake_at);
}

bool EgressPort::probe_hold_and_wait(sim::TimePs now) {
  // A downed link stalls for physical reasons, not flow control — it is
  // not part of the paper's hold-and-wait condition.
  if (in_flight_ != nullptr || !control_q_.empty() || !link_up_) return false;
  sim::TimePs wake_at = sim::kTimeNever;
  if (owner_.pull_mode()) {
    bool any_waiting = false;
    Packet* pkt = owner_.poll_data(index_, now, &wake_at, /*consume=*/false,
                                   &any_waiting);
    return pkt == nullptr && any_waiting && wake_at == sim::kTimeNever;
  }
  bool has_data = false;
  for (auto& pq : data_) {
    std::size_t bucket = 0;
    Packet* pkt = pq.next_up(&bucket);
    if (pkt == nullptr) continue;
    has_data = true;
    if (gate_->allowed(*pkt, now, &wake_at)) return false;
  }
  return has_data && wake_at == sim::kTimeNever;
}

void EgressPort::start_tx(Packet* pkt, bool control) {
  assert(channel_ != nullptr && "port must be connected");
  in_flight_ = pkt;
  in_flight_control_ = control;
  if (!control) {
    owner_.network().trace_event(trace::EventType::kTxStart, owner_.id(),
                                 index_, pkt->priority, pkt->id,
                                 pkt->size_bytes);
    gate_->on_transmit(*pkt, sched().now());
  }
  // Batched wire events: a saturated port's N back-to-back transmissions
  // arm this one registered drain timer N times (often from inside its own
  // firing, via complete_tx -> try_transmit) instead of constructing and
  // destroying N one-shot events. Arming takes a fresh FIFO sequence
  // number exactly where schedule_in did, so event order is unchanged.
  if (!tx_done_timer_.valid())
    tx_done_timer_ = sched().register_timer([this] { complete_tx(); });
  const sim::TimePs t = sim::tx_time(rate_, pkt->size_bytes);
  sched().arm_timer(tx_done_timer_, sched().now() + t);
}

void EgressPort::complete_tx() {
  Packet* pkt = in_flight_;
  in_flight_ = nullptr;
  if (in_flight_control_) {
    tx_control_bytes_ += static_cast<std::uint64_t>(pkt->size_bytes);
    ++tx_control_frames_;
  } else {
    tx_data_bytes_ += static_cast<std::uint64_t>(pkt->size_bytes);
    // Release ingress accounting / notify sender pacing before hand-off.
    owner_.on_departure(*pkt, index_);
  }
  channel_->deliver(pkt);
  try_transmit();
}

}  // namespace gfc::net
