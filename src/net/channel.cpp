#include "net/channel.hpp"

#include "net/fault_hook.hpp"
#include "net/network.hpp"
#include "net/node.hpp"

namespace gfc::net {

Channel::Channel(Network& net, Node& dst, int dst_port, sim::TimePs prop_delay)
    : net_(net),
      dst_(dst),
      dst_port_(dst_port),
      prop_delay_(prop_delay),
      final_hop_(!dst.is_switch()) {}

void Channel::ensure_flight_timer() {
  if (flight_timer_.valid()) return;
  sim::Scheduler& sched = dst_.sched_ref();
  flight_timer_ = sched.register_multishot([this] { flight_arrival(); });
  flight_gen_ = sched.timer_gen(flight_timer_);
}

void Channel::flight_arrival() {
  Packet* pkt = flight_.pop_front();
  // Arrival-time check: a link that went down mid-propagation loses the
  // frame (both PHYs are gone; there is no store-and-forward on a wire).
  if (!up_) {
    ++net_.counters().wire_lost_packets;
    net_.trace_event(trace::EventType::kWireLost, dst_.id(), dst_port_,
                     pkt->priority, pkt->id, pkt->size_bytes);
    net_.free_packet(pkt);
    return;
  }
  dst_.receive(pkt, dst_port_);
}

void Channel::propagate(Packet* pkt, sim::TimePs delay) {
  if (delay == prop_delay_) {
    ShardContext* c = shard_ctx();
    if (c != nullptr) {
      par_propagate(pkt, *c);
      return;
    }
    // Fixed-delay fast path: the packet rides the wire FIFO and the shared
    // multishot timer. fire_at takes its sequence number right here, where
    // schedule_in took it, so arrival order is byte-identical.
    ensure_flight_timer();
    flight_.push_back(pkt);
    sim::Scheduler& sched = dst_.sched_ref();
    sched.fire_at(flight_timer_, sched.now() + delay);
    return;
  }
  net_.sched().schedule_in(delay, [this, pkt] {
    if (!up_) {
      ++net_.counters().wire_lost_packets;
      net_.trace_event(trace::EventType::kWireLost, dst_.id(), dst_port_,
                       pkt->priority, pkt->id, pkt->size_bytes);
      net_.free_packet(pkt);
      return;
    }
    dst_.receive(pkt, dst_port_);
  });
}

void Channel::par_propagate(Packet* pkt, ShardContext& c) {
  sim::Scheduler& dsched = dst_.sched_ref();
  const sim::TimePs t_arr = c.sched->now() + prop_delay_;
  std::uint64_t g_direct = 0;
  if (c.log == nullptr) {
    // Direct (coordinator boundary) mode: single-threaded, the fire_at
    // draws the next true global sequence number — remember it for the
    // split hook below.
    g_direct = c.gseq != nullptr ? *c.gseq : 0;
    flight_.push_back(pkt);
    dsched.fire_at(flight_timer_, t_arr);
  } else if (&dsched == c.sched) {
    // Same-shard wire. The window is at most tau = min prop delay wide, so
    // t_arr lands at/after the window end and fire_at logs a deferred
    // record; the packet joins the wire FIFO directly.
    flight_.push_back(pkt);
    dsched.fire_at(flight_timer_, t_arr);
  } else {
    // Cross-shard wire: the destination scheduler belongs to another
    // worker. Stage the packet (the coordinator splices it into flight_ at
    // the barrier, in log-replay order) and log a foreign deferred fire_at,
    // stamped with the generation cached at registration.
    staged_.push_back(pkt);
    sim::WinRecord r;
    r.kind = sim::WinRecord::kCall;
    r.flags = sim::WinRecord::kDeferred | sim::WinRecord::kForeignLive;
    r.slot = flight_timer_.value - 1;
    r.gen = flight_gen_;
    r.t = t_arr;
    r.target = &dsched;
    c.log->recs.push_back(r);
  }
  // Completion-split prediction. The final hop is lossless and FIFO, so
  // the arrival whose cumulative bytes reach size_bytes is exactly the
  // delivery that completes the flow. Completions touch global state
  // (workload relaunch, FCT stats), so the coordinator must execute that
  // arrival as a boundary step — mark the logged fire (window mode) or
  // hand the key to the agenda hook (direct mode).
  if (final_hop_ && pkt->type == PacketType::kData && pkt->flow >= 0) {
    Flow& f = net_.flow(pkt->flow);
    if (!f.unbounded()) {
      f.par_wire_bytes += pkt->size_bytes;
      if (f.par_wire_bytes >= f.size_bytes) {
        if (c.log != nullptr)
          c.log->recs.back().flags |= sim::WinRecord::kSplit;
        else if (c.on_split != nullptr)
          c.on_split(c.split_env, t_arr, g_direct);
      }
    }
  }
}

void Channel::deliver(Packet* pkt) {
  if (pkt->is_control()) {
    if (ControlFaultHook* hook = net_.fault_hook()) {
      const ControlFaultHook::Verdict v = hook->on_control_frame(*pkt);
      switch (v.action) {
        case ControlFaultHook::Action::kDrop:
          net_.free_packet(pkt);
          return;
        case ControlFaultHook::Action::kDuplicate:
          propagate(net_.clone_control(*pkt), prop_delay_);
          break;  // the original still propagates normally
        case ControlFaultHook::Action::kDelay:
          propagate(pkt, prop_delay_ + v.extra_delay);
          return;
        case ControlFaultHook::Action::kDeliver:
          break;
      }
    }
  }
  propagate(pkt, prop_delay_);
}

}  // namespace gfc::net
