// PacketFifo: the intrusive packet queue under every switch, port and wire
// FIFO of the data path.
//
// The differential test drives several PacketFifos and a std::deque<Packet*>
// reference per queue through the same seeded random script — push_back,
// pop_front, mid-queue unlink with predecessor, detach-all then re-push
// onto another queue, and walks — and checks after every operation that
// contents, order, front/back, size and byte totals agree, and that every
// packet leaving a queue has a null link. A failure names the seed and the
// operation index to replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_fifo.hpp"

namespace gfc::net {
namespace {

std::vector<const Packet*> contents(const PacketFifo& q) {
  std::vector<const Packet*> out;
  q.for_each([&out](const Packet& p) { out.push_back(&p); });
  return out;
}

// Runs `n_ops` random operations for `seed`; returns "" or a description of
// the first divergence.
std::string run_fifo_differential(std::uint64_t seed, std::size_t n_ops) {
  constexpr std::size_t kQueues = 4;
  constexpr std::size_t kPackets = 96;
  std::mt19937_64 rng(seed);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };

  PacketPool pool;
  std::vector<Packet*> free_pkts;
  for (std::size_t i = 0; i < kPackets; ++i) {
    Packet* p = pool.acquire();
    p->size_bytes = 64 + static_cast<std::int64_t>(below(1500));
    free_pkts.push_back(p);
  }
  std::vector<PacketFifo> fifo(kQueues);
  std::vector<std::deque<Packet*>> ref(kQueues);

  std::string error;
  const auto fail = [&](std::size_t op, const std::string& what) {
    if (!error.empty()) return;
    std::ostringstream os;
    os << "seed " << seed << ": op " << op << ": " << what;
    error = os.str();
  };
  const auto left_clean = [&](std::size_t op, const Packet* p) {
    if (p->next != nullptr) fail(op, "packet left a queue with a non-null link");
  };
  const auto check = [&](std::size_t op, std::size_t qi, bool walk) {
    const PacketFifo& q = fifo[qi];
    const std::deque<Packet*>& r = ref[qi];
    std::int64_t bytes = 0;
    for (const Packet* p : r) bytes += p->size_bytes;
    if (q.size() != r.size()) fail(op, "size differs");
    if (q.empty() != r.empty()) fail(op, "empty() differs");
    if (q.bytes() != bytes) fail(op, "bytes differ");
    if (q.front() != (r.empty() ? nullptr : r.front())) fail(op, "front differs");
    if (q.back() != (r.empty() ? nullptr : r.back())) fail(op, "back differs");
    if (q.back() != nullptr && q.back()->next != nullptr)
      fail(op, "tail has a successor");
    if (walk && contents(q) != std::vector<const Packet*>(r.begin(), r.end()))
      fail(op, "walk order differs");
  };

  for (std::size_t op = 0; op < n_ops && error.empty(); ++op) {
    const std::size_t qi = below(kQueues);
    const std::size_t kind = below(100);
    if (kind < 45) {  // push_back
      if (free_pkts.empty()) continue;
      const std::size_t k = below(free_pkts.size());
      Packet* p = free_pkts[k];
      free_pkts[k] = free_pkts.back();
      free_pkts.pop_back();
      fifo[qi].push_back(p);
      ref[qi].push_back(p);
    } else if (kind < 75) {  // pop_front
      if (ref[qi].empty()) continue;
      Packet* p = fifo[qi].pop_front();
      if (p != ref[qi].front()) fail(op, "pop_front returned another packet");
      ref[qi].pop_front();
      left_clean(op, p);
      free_pkts.push_back(p);
    } else if (kind < 92) {  // unlink at a random position, by predecessor
      if (ref[qi].empty()) continue;
      const std::size_t i = below(ref[qi].size());
      // Find the predecessor through the queue's own links.
      Packet* prev = nullptr;
      for (std::size_t k = 0; k < i; ++k)
        prev = prev == nullptr ? fifo[qi].front() : prev->next;
      Packet* p = fifo[qi].unlink_after(prev);
      if (p != ref[qi][i]) fail(op, "unlink_after removed another packet");
      ref[qi].erase(ref[qi].begin() + static_cast<std::ptrdiff_t>(i));
      left_clean(op, p);
      free_pkts.push_back(p);
    } else if (kind < 97) {  // detach all, then re-push onto a queue
      const std::size_t to = below(kQueues);
      PacketFifo chain = fifo[qi].take_all();
      if (!fifo[qi].empty() || fifo[qi].size() != 0 || fifo[qi].bytes() != 0)
        fail(op, "take_all left the source non-empty");
      std::deque<Packet*> moved;
      moved.swap(ref[qi]);
      if (contents(chain) != std::vector<const Packet*>(moved.begin(), moved.end()))
        fail(op, "take_all changed the chain");
      while (!chain.empty()) {
        Packet* p = chain.pop_front();
        left_clean(op, p);
        fifo[to].push_back(p);
      }
      for (Packet* p : moved) ref[to].push_back(p);
      check(op, to, true);
    } else {  // walk
      check(op, qi, true);
    }
    check(op, qi, false);
  }

  // Drain everything back to the pool: release asserts the link is null.
  for (std::size_t qi = 0; qi < kQueues; ++qi) {
    check(n_ops, qi, true);
    while (!fifo[qi].empty()) free_pkts.push_back(fifo[qi].pop_front());
  }
  for (Packet* p : free_pkts) {
    left_clean(n_ops, p);
    pool.release(p);
  }
  if (pool.live_count() != 0) fail(n_ops, "packets leaked from the pool");
  return error;
}

TEST(PacketFifo, MatchesDequeReferenceOnRandomScripts) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed)
    EXPECT_EQ(run_fifo_differential(seed, 20000), "");
}

TEST(PacketFifo, EmptyQueueOwnsNoStorage) {
  static_assert(sizeof(PacketFifo) == 4 * sizeof(void*));
  PacketFifo q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_EQ(q.front(), nullptr);
  EXPECT_EQ(q.back(), nullptr);
}

TEST(PacketFifo, UnlinkTailMovesTailToPredecessor) {
  Packet a, b, c;
  a.size_bytes = 1;
  b.size_bytes = 10;
  c.size_bytes = 100;
  PacketFifo q;
  q.push_back(&a);
  q.push_back(&b);
  q.push_back(&c);
  EXPECT_EQ(q.unlink_after(&b), &c);
  EXPECT_EQ(q.back(), &b);
  EXPECT_EQ(b.next, nullptr);
  EXPECT_EQ(q.bytes(), 11);
  // The predecessor-less unlink is pop_front.
  EXPECT_EQ(q.unlink_after(nullptr), &a);
  EXPECT_EQ(q.front(), &b);
  EXPECT_EQ(q.back(), &b);
  q.push_back(&c);  // c left cleanly, so it may be queued again
  EXPECT_EQ(q.pop_front(), &b);
  EXPECT_EQ(q.pop_front(), &c);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.back(), nullptr);
}

TEST(PacketFifo, MoveLeavesSourceEmpty) {
  Packet a;
  a.size_bytes = 7;
  PacketFifo q;
  q.push_back(&a);
  PacketFifo moved(std::move(q));
  EXPECT_TRUE(q.empty());  // NOLINT(bugprone-use-after-move): defined state
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_EQ(moved.front(), &a);
  EXPECT_EQ(moved.bytes(), 7);
  EXPECT_EQ(moved.pop_front(), &a);
}

TEST(PacketFifoDeathTest, PushOfLinkedPacketAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the one-queue-at-a-time check is an assert";
#else
  Packet a, b;
  PacketFifo q1;
  PacketFifo q2;
  q1.push_back(&a);
  q1.push_back(&b);
  EXPECT_DEATH(q2.push_back(&a), "already linked");
  EXPECT_DEATH(q1.push_back(&b), "pushed twice");
  PacketPool pool;
  Packet* p = pool.acquire();
  p->next = &a;
  EXPECT_DEATH(pool.release(p), "still linked");
  p->next = nullptr;
  pool.release(p);
#endif
}

}  // namespace
}  // namespace gfc::net
