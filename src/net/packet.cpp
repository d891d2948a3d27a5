#include "net/packet.hpp"

#include <cassert>

namespace gfc::net {

Packet* PacketPool::acquire() {
  if (free_list_.empty()) {
    auto chunk = std::make_unique<Packet[]>(kChunk);
    free_list_.reserve(free_list_.size() + kChunk);
    for (std::size_t i = 0; i < kChunk; ++i) free_list_.push_back(&chunk[i]);
    chunks_.push_back(std::move(chunk));
  }
  Packet* pkt = free_list_.back();
  free_list_.pop_back();
  *pkt = Packet{};
  if (log_ != nullptr) {
    pkt->id = prov_base_ | prov_next_++;
    sim::WinRecord r;
    r.kind = sim::WinRecord::kAlloc;
    r.prov = pkt->id;
    r.target = pkt;
    log_->recs.push_back(r);
  } else if (shared_id_ != nullptr) {
    pkt->id = (*shared_id_)++;
  } else {
    pkt->id = next_id_++;
  }
  ++live_;
  return pkt;
}

void PacketPool::release(Packet* pkt) {
  assert(pkt->next == nullptr && "released packet is still linked in a queue");
  --live_;
  free_list_.push_back(pkt);
}

}  // namespace gfc::net
