// Switch queue surgery: the three paths that take packets out of a switch's
// FIFOs other than transmission — SwitchNode::reroute_stranded (link
// failure), drain_egress (deadlock recovery) and drop_egress_head (DCFIT's
// drop-one policy) — checked packet by packet on one switch whose egress
// gates never open, so nothing leaves except through the path under test.
// Each case checks the FIFO contents and their order, the egress FIFO byte
// totals, the ingress accounting, and that every dropped packet went back
// to the pool. Also: the per-switch port limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace gfc::net {
namespace {

using sim::gbps;
using sim::us;

class ClosedGate final : public TxGate {
 public:
  bool allowed(const Packet&, sim::TimePs, sim::TimePs*) override { return false; }
  void on_transmit(const Packet&, sim::TimePs) override {}
};

std::vector<const Packet*> contents(const PacketFifo& q) {
  std::vector<const Packet*> out;
  q.for_each([&out](const Packet& p) { out.push_back(&p); });
  return out;
}

using Pkts = std::vector<const Packet*>;

class SwitchQueues : public ::testing::Test {
 protected:
  // S0 with five ports; port i leads to host Hi and is host Hi's route.
  // Every egress gate stays closed, and an egress FIFO holding any packet
  // is full (CIOQ cap of 1 byte), so packets stay where dispatch put them.
  void build(SwitchArch arch) {
    s_ = &net_.add_switch("S0", 1'000'000);
    s_->set_arch(arch);
    s_->set_egress_queue_cap(1);
    for (int i = 0; i < 5; ++i) {
      h_[i] = net_.add_host("H" + std::to_string(i)).id();
      net_.connect(s_->id(), h_[i], gbps(10), us(1));
      s_->set_route(h_[i], {i});
      s_->port(i).set_gate(std::make_unique<ClosedGate>());
    }
    baseline_ = net_.pool().live_count();
  }

  // A data packet for host `dst_host` arriving on `in_port`.
  Packet* arrive(int in_port, int dst_host, int prio, std::int64_t size) {
    Packet* p = net_.pool().acquire();
    p->type = PacketType::kData;
    p->priority = static_cast<std::uint8_t>(prio);
    p->size_bytes = size;
    p->dst = h_[dst_host];
    s_->receive(p, in_port);
    return p;
  }

  // Let deferred kicks fire; closed gates keep every packet in place.
  void settle() { net_.run_until(net_.sched().now() + us(1)); }

  std::size_t live() { return net_.pool().live_count() - baseline_; }
  const PacketFifo& outq(int e, int prio) const { return s_->egress_queue(e, prio); }
  const PacketFifo& inq(int in, int prio) const { return s_->input_queue(in, prio); }

  // Drop everything still queued, then require an empty switch.
  void drain_all_and_check_empty() {
    for (int e = 0; e < s_->port_count(); ++e) s_->drain_egress(e);
    EXPECT_EQ(live(), 0u);
    for (int p = 0; p < s_->port_count(); ++p) {
      EXPECT_EQ(s_->ingress_bytes_total(p), 0) << "port " << p;
      for (int prio = 0; prio < kNumPriorities; ++prio)
        EXPECT_TRUE(outq(p, prio).empty()) << "egress " << p << " prio " << prio;
    }
  }

  Network net_;
  SwitchNode* s_ = nullptr;
  NodeId h_[5] = {};
  std::size_t baseline_ = 0;
};

TEST_F(SwitchQueues, RerouteStrandedUnlinksMidQueueAndRetargetsUnderCioq) {
  build(SwitchArch::kCioqRoundRobin);
  s_->set_route(h_[4], {1});  // H4 is first reached through port 1
  Packet* a = arrive(0, 1, 0, 1000);  // admitted to egress 1
  Packet* b = arrive(0, 4, 0, 1100);  // egress 1 full: input FIFO from here
  Packet* c = arrive(0, 1, 0, 1200);
  Packet* d = arrive(0, 2, 0, 1300);
  Packet* e = arrive(0, 4, 0, 1400);
  Packet* f = arrive(0, 1, 0, 1500);
  settle();
  ASSERT_EQ(contents(outq(1, 0)), (Pkts{a}));
  ASSERT_EQ(contents(inq(0, 0)), (Pkts{b, c, d, e, f}));
  EXPECT_EQ(outq(1, 0).bytes(), 1000);
  EXPECT_EQ(s_->ingress_bytes(0, 0), 7500);
  EXPECT_EQ(live(), 6u);

  // Port 1 fails: H1 becomes unroutable, H4 moves to port 4.
  s_->port(1).set_link_up(false);
  s_->set_route(h_[1], {});
  s_->set_route(h_[4], {4});
  s_->reroute_stranded();

  // A (egress 1) and C, F (mid-queue and tail of the input FIFO) are
  // dropped; B and E are retargeted in place. The retargeted head B and
  // then D are dispatched to their empty egress FIFOs; E waits behind B.
  EXPECT_EQ(net_.counters().failover_drops, 3u);
  EXPECT_EQ(live(), 3u);
  EXPECT_TRUE(outq(1, 0).empty());
  EXPECT_EQ(outq(1, 0).bytes(), 0);
  EXPECT_EQ(contents(outq(4, 0)), (Pkts{b}));
  EXPECT_EQ(contents(outq(2, 0)), (Pkts{d}));
  EXPECT_EQ(contents(inq(0, 0)), (Pkts{e}));
  EXPECT_EQ(outq(4, 0).bytes(), 1100);
  EXPECT_EQ(outq(2, 0).bytes(), 1300);
  EXPECT_EQ(b->out_port, 4);
  EXPECT_EQ(e->out_port, 4);
  EXPECT_EQ(inq(0, 0).back(), e);
  EXPECT_EQ(s_->ingress_bytes(0, 0), 1100 + 1300 + 1400);
  settle();
  EXPECT_EQ(contents(inq(0, 0)), (Pkts{e}));

  drain_all_and_check_empty();
}

TEST_F(SwitchQueues, DrainEgressDropsOutputFifosAndWedgedInputHeads) {
  build(SwitchArch::kCioqRoundRobin);
  Packet* a = arrive(0, 1, 0, 1000);  // admitted to egress 1, prio 0
  Packet* b = arrive(0, 1, 0, 1100);
  Packet* c = arrive(0, 1, 0, 1200);
  Packet* d = arrive(0, 2, 0, 1300);  // behind B and C in the input FIFO
  Packet* e = arrive(2, 1, 1, 1400);  // admitted to egress 1, prio 1
  settle();
  ASSERT_EQ(contents(outq(1, 0)), (Pkts{a}));
  ASSERT_EQ(contents(outq(1, 1)), (Pkts{e}));
  ASSERT_EQ(contents(inq(0, 0)), (Pkts{b, c, d}));
  EXPECT_EQ(s_->ingress_bytes(0, 0), 4600);
  EXPECT_EQ(s_->ingress_bytes(2, 1), 1400);

  EXPECT_EQ(s_->drain_egress(1), 4u);  // A, E, then input heads B, C
  for (int prio = 0; prio < kNumPriorities; ++prio) {
    EXPECT_TRUE(outq(1, prio).empty());
    EXPECT_EQ(outq(1, prio).bytes(), 0);
  }
  // D survives, at its input FIFO's head or already in egress 2's FIFO.
  const Pkts left_in = contents(inq(0, 0));
  const Pkts left_out = contents(outq(2, 0));
  EXPECT_EQ(std::count(left_in.begin(), left_in.end(), d) +
                std::count(left_out.begin(), left_out.end(), d),
            1);
  EXPECT_EQ(left_in.size() + left_out.size(), 1u);
  EXPECT_EQ(s_->ingress_bytes(0, 0), 1300);
  EXPECT_EQ(s_->ingress_bytes(2, 1), 0);
  EXPECT_EQ(live(), 1u);
  EXPECT_EQ(s_->drain_egress(1), 0u);  // nothing left for egress 1

  drain_all_and_check_empty();
}

TEST_F(SwitchQueues, DropEgressHeadDropsOnePacketAtATimeUnderCioq) {
  build(SwitchArch::kCioqRoundRobin);
  arrive(0, 1, 0, 1000);  // A
  Packet* b = arrive(0, 1, 0, 1100);
  Packet* c = arrive(0, 1, 0, 1200);
  Packet* d = arrive(0, 2, 0, 1300);
  Packet* e = arrive(2, 1, 1, 1400);
  settle();

  // Lowest non-empty priority first; each drop frees room that dispatch
  // refills from the input FIFO's head.
  EXPECT_EQ(s_->drop_egress_head(1), 1u);  // A
  EXPECT_EQ(contents(outq(1, 0)), (Pkts{b}));
  EXPECT_EQ(contents(inq(0, 0)), (Pkts{c, d}));
  EXPECT_EQ(outq(1, 0).bytes(), 1100);
  EXPECT_EQ(s_->ingress_bytes(0, 0), 1100 + 1200 + 1300);
  EXPECT_EQ(live(), 4u);

  // Dropping B admits C, and the freed input FIFO then offers D to its
  // own (empty) egress.
  EXPECT_EQ(s_->drop_egress_head(1), 1u);  // B
  EXPECT_EQ(contents(outq(1, 0)), (Pkts{c}));
  EXPECT_EQ(contents(outq(2, 0)), (Pkts{d}));
  EXPECT_TRUE(inq(0, 0).empty());
  EXPECT_EQ(s_->ingress_bytes(0, 0), 1200 + 1300);

  EXPECT_EQ(s_->drop_egress_head(1), 1u);  // C
  EXPECT_TRUE(outq(1, 0).empty());
  EXPECT_EQ(contents(outq(1, 1)), (Pkts{e}));
  EXPECT_EQ(s_->ingress_bytes(0, 0), 1300);

  EXPECT_EQ(s_->drop_egress_head(1), 1u);  // E, the prio-1 FIFO
  EXPECT_TRUE(outq(1, 1).empty());
  EXPECT_EQ(outq(1, 1).bytes(), 0);
  EXPECT_EQ(s_->ingress_bytes(2, 1), 0);
  EXPECT_EQ(s_->drop_egress_head(1), 0u);  // nothing left for egress 1
  EXPECT_EQ(live(), 1u);

  drain_all_and_check_empty();
}

TEST_F(SwitchQueues, DropEgressHeadFallsBackToInputHeadsUnderInputQueued) {
  build(SwitchArch::kInputQueued);
  Packet* a = arrive(0, 1, 0, 1000);
  Packet* b = arrive(0, 2, 0, 1100);
  Packet* c = arrive(0, 1, 0, 1200);
  settle();
  ASSERT_EQ(contents(inq(0, 0)), (Pkts{a, b, c}));
  EXPECT_TRUE(outq(1, 0).empty());  // no output stage

  EXPECT_EQ(s_->drop_egress_head(1), 1u);  // A, the input head on egress 1
  EXPECT_EQ(contents(inq(0, 0)), (Pkts{b, c}));
  EXPECT_EQ(s_->ingress_bytes(0, 0), 2300);
  EXPECT_EQ(s_->drop_egress_head(1), 0u);  // B (egress 2) blocks C

  EXPECT_EQ(s_->drain_egress(2), 1u);  // B
  EXPECT_EQ(contents(inq(0, 0)), (Pkts{c}));
  EXPECT_EQ(s_->ingress_bytes(0, 0), 1200);
  EXPECT_EQ(live(), 1u);

  drain_all_and_check_empty();
}

TEST_F(SwitchQueues, OutputQueuedDropPathsKeepArrivalOrder) {
  build(SwitchArch::kOutputQueuedFifo);
  Packet* a = arrive(0, 1, 0, 1000);
  Packet* b = arrive(0, 2, 0, 1100);
  Packet* c = arrive(0, 1, 3, 1200);
  Packet* d = arrive(2, 1, 0, 1300);
  settle();
  ASSERT_EQ(contents(outq(1, 0)), (Pkts{a, d}));
  ASSERT_EQ(contents(outq(1, 3)), (Pkts{c}));
  ASSERT_EQ(contents(outq(2, 0)), (Pkts{b}));
  EXPECT_EQ(outq(1, 0).bytes(), 2300);

  EXPECT_EQ(s_->drop_egress_head(1), 1u);  // A
  EXPECT_EQ(contents(outq(1, 0)), (Pkts{d}));
  EXPECT_EQ(outq(1, 0).bytes(), 1300);
  EXPECT_EQ(s_->ingress_bytes(0, 0), 1100);
  EXPECT_EQ(s_->ingress_bytes(0, 3), 1200);

  EXPECT_EQ(s_->drain_egress(1), 2u);  // D, C
  EXPECT_TRUE(outq(1, 0).empty());
  EXPECT_TRUE(outq(1, 3).empty());
  EXPECT_EQ(contents(outq(2, 0)), (Pkts{b}));
  EXPECT_EQ(s_->ingress_bytes(2, 0), 0);
  EXPECT_EQ(live(), 1u);

  // Egress 2 fails with no other route to H2: B is dropped.
  s_->port(2).set_link_up(false);
  s_->set_route(h_[2], {});
  s_->reroute_stranded();
  EXPECT_TRUE(outq(2, 0).empty());
  EXPECT_EQ(net_.counters().failover_drops, 1u);

  drain_all_and_check_empty();
}

TEST(SwitchWiring, SixtyFifthPortIsRefused) {
  Network net;
  SwitchNode& s = net.add_switch("S0", 300'000);
  std::vector<NodeId> hosts;
  for (int i = 0; i <= SwitchNode::kMaxPorts; ++i)
    hosts.push_back(net.add_host("H" + std::to_string(i)).id());
  for (int i = 0; i < SwitchNode::kMaxPorts; ++i)
    net.connect(s.id(), hosts[static_cast<std::size_t>(i)], gbps(10), us(1));
  EXPECT_EQ(s.port_count(), SwitchNode::kMaxPorts);
  const std::size_t channels = net.channel_count();
  EXPECT_THROW(net.connect(hosts.back(), s.id(), gbps(10), us(1)),
               std::invalid_argument);
  // Nothing was wired on either end.
  EXPECT_EQ(s.port_count(), SwitchNode::kMaxPorts);
  EXPECT_EQ(net.node(hosts.back()).port_count(), 0);
  EXPECT_EQ(net.channel_count(), channels);
  EXPECT_THROW(s.add_port(gbps(10)), std::invalid_argument);
}

}  // namespace
}  // namespace gfc::net
