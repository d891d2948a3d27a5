// Packet model and pool.
//
// One Packet struct covers data packets and every control frame the
// flow-control mechanisms exchange (PFC pause/resume, GFC stage messages,
// CBFC credit updates, DCQCN CNPs). Control frames are 64 B on the wire,
// matching the paper's feedback-message size m.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "sim/window.hpp"

namespace gfc::net {

using NodeId = std::int32_t;
using FlowId = std::int64_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr FlowId kInvalidFlow = -1;

/// Number of traffic classes (priorities) modeled, as in 802.1Qbb.
inline constexpr int kNumPriorities = 8;

/// Wire size of a flow-control / congestion-notification frame (bytes).
inline constexpr std::int64_t kControlFrameBytes = 64;

enum class PacketType : std::uint8_t {
  kData = 0,
  kPfcPause,    // PFC XOFF for one priority
  kPfcResume,   // PFC XON for one priority
  kGfcStage,    // buffer-based GFC: stage id for one priority
  kGfcQueue,    // time-based / conceptual GFC: queue-length sample
  kCredit,      // CBFC: FCCL update for one priority
  kCnp,         // DCQCN congestion notification packet (routed like data)
};

/// Is this a link-local flow-control frame (consumed by the adjacent node,
/// never forwarded, never subject to pause or rate limiting)?
constexpr bool is_link_control(PacketType t) {
  return t == PacketType::kPfcPause || t == PacketType::kPfcResume ||
         t == PacketType::kGfcStage || t == PacketType::kGfcQueue ||
         t == PacketType::kCredit;
}

/// Fields are grouped by width (8-, 4-, then 1-byte) so the struct has no
/// interior padding: 96 B, which the packet pool multiplies by every packet
/// alive in the fabric.
struct Packet {
  std::uint64_t id = 0;
  std::int64_t size_bytes = 0;  // wire size, used for all timing/accounting
  FlowId flow = kInvalidFlow;
  /// Copy of Flow::path_salt, stamped wherever `flow` is assigned, so the
  /// per-hop ECMP choice reads it without dereferencing the flow table.
  std::uint64_t path_salt = 0;
  sim::TimePs created_at = 0;  // for latency accounting

  /// Intrusive FIFO link (see net/packet_fifo.hpp). A packet sits in at
  /// most one queue at a time — switch queue, port bypass lane, wire — and
  /// is null whenever it is in none.
  Packet* next = nullptr;

  /// Control payloads (interpretation depends on `type`).
  std::int64_t fc_value = 0;     // kGfcQueue: queue bytes; kCredit: FCCL blocks
  /// DCFIT deadlock-detection trigger carried by kPfcPause frames (see
  /// src/mech/dcfit.hpp): the switch that originated the trigger and its
  /// node-local sequence number. kInvalidNode = no trigger attached.
  std::uint64_t fc_trigger_seq = 0;
  std::int32_t fc_trigger_origin = kInvalidNode;
  std::int32_t fc_priority = 0;  // priority the control frame acts on
  std::int32_t fc_stage = 0;     // kGfcStage: stage index

  NodeId src = kInvalidNode;  // originating host (data / CNP)
  NodeId dst = kInvalidNode;  // destination host (data / CNP)

  /// Per-hop state: ingress port at the switch currently buffering the
  /// packet (charged back on departure) and the egress its route selected.
  std::int32_t ingress_port = -1;
  std::int32_t out_port = -1;

  PacketType type = PacketType::kData;
  std::uint8_t priority = 0;
  /// ECN congestion-experienced mark (set by switches, read by receivers).
  bool ecn_ce = false;

  /// True for frames that bypass data queues at the egress port.
  bool is_control() const { return is_link_control(type); }
};
static_assert(sizeof(Packet) <= 104,
              "Packet grew: the pool holds one per packet alive in the fabric");

/// Free-list pool. Packets are created/destroyed at very high rate; the
/// pool keeps them out of the general-purpose allocator and stabilizes ids.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Fetch a zeroed packet with a fresh id.
  Packet* acquire();

  /// Return a packet to the pool. Pointer must have come from acquire().
  void release(Packet* pkt);

  std::size_t live_count() const { return live_; }
  std::uint64_t total_created() const { return next_id_ - 1; }

  // --- sharded-core id modes (src/par) -------------------------------------
  /// Direct mode: draw ids from a shared global counter (coordinator
  /// boundary steps). Null restores the pool-own counter.
  void set_id_source(std::uint64_t* shared) { shared_id_ = shared; }
  /// Window mode: hand out provisional ids tagged with the shard index and
  /// log each allocation; the barrier merge assigns true global ids in
  /// replay order and patches the packets in place.
  void begin_window(sim::WindowLog* log, std::uint32_t shard) {
    log_ = log;
    prov_base_ = sim::kProvSeqBit | (std::uint64_t{shard} << 48);
    prov_next_ = 0;
  }
  void end_window() { log_ = nullptr; }

 private:
  static constexpr std::size_t kChunk = 1024;

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<Packet*> free_list_;
  std::uint64_t next_id_ = 1;
  std::size_t live_ = 0;
  std::uint64_t* shared_id_ = nullptr;
  sim::WindowLog* log_ = nullptr;
  std::uint64_t prov_base_ = 0;
  std::uint64_t prov_next_ = 0;
};

}  // namespace gfc::net
