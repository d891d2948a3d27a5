// Intrusive packet FIFO: every packet queue of the data path.
//
// Packets are pooled and each one sits in at most one queue at a time
// (switch queue -> port transmission -> wire -> next switch), so the queue
// threads its packets through their own `Packet::next` link instead of
// owning storage: an empty queue is 32 bytes and no queue operation ever
// touches the heap. The invariant "a packet is in one queue at a time" is
// asserted on every push (its link must be null) and kept by clearing the
// link on every pop and unlink.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "net/packet.hpp"

namespace gfc::net {

class PacketFifo {
 public:
  PacketFifo() = default;
  // Move-only: two objects must never claim the same chain.
  PacketFifo(const PacketFifo&) = delete;
  PacketFifo& operator=(const PacketFifo&) = delete;
  PacketFifo(PacketFifo&& o) noexcept
      : head_(o.head_), tail_(o.tail_), packets_(o.packets_), bytes_(o.bytes_) {
    o.head_ = nullptr;
    o.tail_ = nullptr;
    o.packets_ = 0;
    o.bytes_ = 0;
  }
  PacketFifo& operator=(PacketFifo&&) = delete;

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return packets_; }
  /// Sum of size_bytes over the queued packets.
  std::int64_t bytes() const { return bytes_; }
  Packet* front() const { return head_; }
  Packet* back() const { return tail_; }

  void push_back(Packet* pkt) {
    assert(pkt->next == nullptr && "packet is already linked in a queue");
    assert(pkt != tail_ && "packet pushed twice onto the same queue");
    if (tail_ == nullptr) {
      head_ = pkt;
    } else {
      tail_->next = pkt;
    }
    tail_ = pkt;
    ++packets_;
    bytes_ += pkt->size_bytes;
  }

  /// Remove and return the head (must not be empty); its link is cleared.
  Packet* pop_front() { return unlink_after(nullptr); }

  /// Remove and return the packet after `prev` — the head when `prev` is
  /// null. `prev` must be queued here and must not be the tail. The removed
  /// packet's link is cleared; the order of the rest is unchanged.
  Packet* unlink_after(Packet* prev) {
    Packet* pkt = prev == nullptr ? head_ : prev->next;
    assert(pkt != nullptr);
    if (prev == nullptr) {
      head_ = pkt->next;
    } else {
      prev->next = pkt->next;
    }
    if (tail_ == pkt) tail_ = prev;
    pkt->next = nullptr;
    --packets_;
    bytes_ -= pkt->size_bytes;
    return pkt;
  }

  /// Move the whole chain out, leaving this queue empty (the packets stay
  /// linked to each other inside the returned queue).
  PacketFifo take_all() { return PacketFifo(std::move(*this)); }

  /// Visit every queued packet, head to tail. `fn` must not modify the
  /// queue.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Packet* p = head_; p != nullptr; p = p->next) fn(*p);
  }

 private:
  Packet* head_ = nullptr;
  Packet* tail_ = nullptr;
  std::size_t packets_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace gfc::net
