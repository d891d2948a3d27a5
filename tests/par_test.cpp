// Parallel-core tests (src/par): the conservative tau-lookahead engine
// must be byte-identical to the single-threaded scheduler at every shard
// count — not approximately equal, the same results-store/trace/flight
// bytes — and the shard partitioner, the de-biased ECMP hash, and the
// shard-aware watchdog path are pinned here. Suites are named Par* /
// EcmpSelect* so the CI ThreadSanitizer job picks them up by filter.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/progress.hpp"
#include "exp/worker_pool.hpp"
#include "net/ecmp.hpp"
#include "par/engine.hpp"
#include "runner/scenarios.hpp"
#include "stats/deadlock.hpp"
#include "topo/builders.hpp"
#include "topo/partition.hpp"
#include "trace/export.hpp"

namespace gfc::runner {
namespace {

using sim::ms;
using sim::us;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

TEST(ParPartition, OneShardIsAllZeros) {
  topo::Topology t;
  topo::build_ring(t, 8);
  const std::vector<int> shard = topo::partition(t, 1);
  ASSERT_EQ(shard.size(), t.node_count());
  for (int s : shard) EXPECT_EQ(s, 0);
  EXPECT_EQ(topo::partition_cut(t, shard), 0u);
}

TEST(ParPartition, RingSplitsIntoContiguousBlocks) {
  // 8 unlabeled ring switches over 2 shards: contiguous index blocks cut
  // exactly two switch<->switch wires; host wires never cross (hosts ride
  // with their rack).
  topo::Topology t;
  topo::build_ring(t, 8);
  const std::vector<int> shard = topo::partition(t, 2, /*seed=*/0);
  EXPECT_EQ(topo::partition_cut(t, shard), 2u);
  for (topo::NodeIndex h : t.hosts())
    EXPECT_EQ(shard[static_cast<std::size_t>(h)],
              shard[static_cast<std::size_t>(t.rack_of(h))]);
}

TEST(ParPartition, FatTreePodsStayTogetherAndHostsFollowRacks) {
  topo::Topology t;
  const topo::FatTreeInfo info = topo::build_fattree(t, 4);
  const std::vector<int> shard = topo::partition(t, 2, /*seed=*/1);
  ASSERT_EQ(shard.size(), t.node_count());
  // Every switch in a pod lands on one shard (the intra-pod edge<->agg
  // mesh never crosses the cut).
  for (int pod = 0; pod < info.k; ++pod) {
    const int ref = shard[static_cast<std::size_t>(info.edge(pod, 0))];
    for (int i = 0; i < info.k / 2; ++i) {
      EXPECT_EQ(shard[static_cast<std::size_t>(info.edge(pod, i))], ref);
      EXPECT_EQ(shard[static_cast<std::size_t>(info.agg(pod, i))], ref);
    }
    for (int i = 0; i < info.k * info.k / 4; ++i)
      EXPECT_EQ(shard[static_cast<std::size_t>(info.host(pod, i))], ref);
  }
  // Both shards are actually used.
  int hi = 0;
  for (int s : shard) hi = std::max(hi, s);
  EXPECT_EQ(hi, 1);
}

TEST(ParPartition, DeterministicForGivenInputs) {
  topo::Topology t;
  topo::build_fattree(t, 4);
  EXPECT_EQ(topo::partition(t, 3, 7), topo::partition(t, 3, 7));
  topo::Topology r;
  topo::build_ring(r, 6);
  EXPECT_EQ(topo::partition(r, 4, 9), topo::partition(r, 4, 9));
}

// ---------------------------------------------------------------------------
// ECMP selection: pow2 masking pinned (goldens depend on it), non-pow2
// de-biased via the Lemire multiply-shift.
// ---------------------------------------------------------------------------

TEST(EcmpSelect, PowerOfTwoPathIsPinnedToMasking) {
  for (std::uint64_t salt : {1ull, 42ull, 0x12345678ull, ~0ull}) {
    for (std::int32_t sw : {0, 1, 7, 1000}) {
      for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{8}, std::size_t{64}}) {
        EXPECT_EQ(net::ecmp_select(salt, sw, n),
                  static_cast<std::size_t>(net::ecmp_hash(salt, sw) & (n - 1)));
      }
    }
  }
}

TEST(EcmpSelect, NonPowerOfTwoUsesMultiplyShift) {
  for (std::uint64_t salt : {3ull, 99ull, 0xDEADBEEFull}) {
    for (std::int32_t sw : {0, 5, 123}) {
      for (std::size_t n : {std::size_t{3}, std::size_t{5}, std::size_t{7},
                            std::size_t{12}}) {
        const std::uint64_t h = net::ecmp_hash(salt, sw);
        const auto expect = static_cast<std::size_t>(
            (static_cast<unsigned __int128>(h) * n) >> 64);
        EXPECT_EQ(net::ecmp_select(salt, sw, n), expect);
        EXPECT_LT(net::ecmp_select(salt, sw, n), n);
      }
    }
  }
}

TEST(EcmpSelect, NonPowerOfTwoIsRoughlyUniform) {
  // 30k hashed salts over 3 choices: the multiply-shift keeps every bucket
  // within 10% of the mean (the modulo path it replaced passes this too —
  // the point is catching a future regression to a biased mapping).
  constexpr int kTrials = 30000;
  int count[3] = {0, 0, 0};
  for (int i = 0; i < kTrials; ++i)
    ++count[net::ecmp_select(static_cast<std::uint64_t>(i) * 0x9E37u + 1, 17, 3)];
  for (int c : count) {
    EXPECT_GT(c, kTrials / 3 * 9 / 10);
    EXPECT_LT(c, kTrials / 3 * 11 / 10);
  }
}

// ---------------------------------------------------------------------------
// Engine gating: when the parallel core cannot help (or cannot keep its
// invariants) the Fabric silently runs the sequential engine.
// ---------------------------------------------------------------------------

TEST(ParEngine, OneShardLeavesSequentialEngine) {
  ScenarioConfig cfg;
  cfg.fc = FcSetup::derive(FcKind::kGfcBuffer, cfg.switch_buffer,
                           cfg.link.rate, cfg.tau());
  RingScenario s = make_ring(cfg);
  EXPECT_EQ(s.fabric->par_engine(), nullptr);
}

TEST(ParEngine, AttachesOnMultiSwitchTopology) {
  ScenarioConfig cfg;
  cfg.shards = 2;
  cfg.fc = FcSetup::derive(FcKind::kGfcBuffer, cfg.switch_buffer,
                           cfg.link.rate, cfg.tau());
  RingScenario s = make_ring(cfg, /*n_switches=*/4, /*hops=*/2);
  ASSERT_NE(s.fabric->par_engine(), nullptr);
  EXPECT_EQ(s.fabric->par_engine()->shard_count(), 2);
  EXPECT_GT(s.fabric->par_engine()->tau(), 0);
}

TEST(ParEngine, FaultInjectionPinsSequential) {
  ScenarioConfig cfg;
  cfg.shards = 4;
  cfg.fc = FcSetup::derive(FcKind::kGfcBuffer, cfg.switch_buffer,
                           cfg.link.rate, cfg.tau());
  fault::ControlFaultRates r;
  r.drop = 0.01;
  cfg.fault.set_all_control(r);
  RingScenario s = make_ring(cfg, /*n_switches=*/4, /*hops=*/2);
  EXPECT_EQ(s.fabric->par_engine(), nullptr);
}

TEST(ParEngine, SingleSwitchTopologyPinsSequential) {
  ScenarioConfig cfg;
  cfg.shards = 4;
  cfg.fc = FcSetup::derive(FcKind::kGfcBuffer, cfg.switch_buffer,
                           cfg.link.rate, cfg.tau());
  IncastScenario s = make_incast(cfg, /*n_senders=*/2);
  EXPECT_EQ(s.fabric->par_engine(), nullptr);
}

// ---------------------------------------------------------------------------
// Cross-shard determinism harness: golden scenarios at shards 1..4 must
// agree byte-for-byte on every summary field, counter, trace CSV, chrome
// JSON export, and flight-recorder dump.
// ---------------------------------------------------------------------------

struct Capture {
  RunSummary summary{};
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::int64_t data_bytes = 0;
  std::int64_t control_frames = 0;
  bool deadlocked = false;
  sim::TimePs detected_at = 0;
  std::string trace_csv;
  std::string chrome_json;
  std::string flight_dump;
  bool engine_attached = false;
};

void capture_exports(Fabric& fabric, Capture* c) {
  net::Network& net = fabric.net();
  c->events = net.executed_events();
  c->packets = net.packets_created();
  c->data_bytes = net.counters().data_bytes_delivered;
  c->control_frames = net.counters().control_frames_sent;
  c->engine_attached = fabric.par_engine() != nullptr;
  if (trace::Tracer* tr = fabric.tracer()) {
    std::ostringstream csv;
    trace::write_csv(csv, tr->buffer());
    c->trace_csv = csv.str();
    std::ostringstream chrome;
    trace::write_chrome_json(chrome, tr->buffer(), fabric.node_name_fn());
    c->chrome_json = chrome.str();
    if (const trace::FlightRecorder* fr = tr->flight()) {
      std::ostringstream flight;
      trace::write_flight_dump(flight, *fr, fabric.node_name_fn(),
                               "par determinism harness");
      c->flight_dump = flight.str();
    }
  }
}

ScenarioConfig traced_config(int shards) {
  ScenarioConfig cfg;
  cfg.shards = shards;
  cfg.trace.enabled = true;
  cfg.trace.capacity = std::size_t{1} << 17;
  cfg.fc = FcSetup::derive(FcKind::kGfcBuffer, cfg.switch_buffer,
                           cfg.link.rate, cfg.tau());
  return cfg;
}

Capture run_ring_traced(int shards) {
  ScenarioConfig cfg = traced_config(shards);
  RingScenario s = make_ring(cfg, /*n_switches=*/4, /*hops=*/2);
  s.fabric->net().run_until(ms(4));
  Capture c;
  capture_exports(*s.fabric, &c);
  return c;
}

Capture run_pfc_ring(int shards) {
  // Figure 9 PFC ring: deadlocks. Both the verdict and the exact
  // detection timestamp must be shard-count independent.
  ScenarioConfig cfg;
  cfg.shards = shards;
  cfg.fc = FcSetup::derive(FcKind::kPfc, cfg.switch_buffer, cfg.link.rate,
                           cfg.tau());
  RingScenario s = make_ring(cfg, /*n_switches=*/4, /*hops=*/2);
  stats::DeadlockDetector det(s.fabric->net());
  s.fabric->net().run_until(ms(15));
  Capture c;
  capture_exports(*s.fabric, &c);
  c.deadlocked = det.deadlocked();
  c.detected_at = det.detected_at();
  return c;
}

Capture run_random_fattree(int shards) {
  // Random 5% degraded k=4 fat-tree: failed links leave 3-way (non-pow2)
  // ECMP fan-outs, so this also covers the Lemire path end to end.
  ScenarioConfig cfg = traced_config(shards);
  FatTreeScenario s = make_random_fattree(cfg, 4, 0.05, /*topo_seed=*/17);
  RunOptions opts;
  opts.duration = ms(3);
  opts.workload_seed = 42;
  Capture c;
  c.summary = run_closed_loop(s, opts);
  capture_exports(*s.fabric, &c);
  return c;
}

Capture run_k8_fattree(int shards) {
  // k=8 fat-tree (80 switches, 128 hosts): each shard's scheduler outgrows
  // its first slot chunk as ports register their transmit timers on first
  // use, mid-window, while other shards log cross-shard wire arrivals for
  // it. Those sends must not index the growing slot table (under the
  // ThreadSanitizer job this is a race check; elsewhere it could crash).
  ScenarioConfig cfg;
  cfg.shards = shards;
  cfg.fc = FcSetup::derive(FcKind::kGfcBuffer, cfg.switch_buffer,
                           cfg.link.rate, cfg.tau());
  FatTreeScenario s = make_fattree(cfg, 8);
  RunOptions opts;
  opts.duration = us(500);
  opts.warmup = us(100);
  Capture c;
  c.summary = run_closed_loop(s, opts);
  capture_exports(*s.fabric, &c);
  return c;
}

void expect_identical(const Capture& ref, const Capture& got,
                      const std::string& what) {
  EXPECT_EQ(ref.events, got.events) << what;
  EXPECT_EQ(ref.packets, got.packets) << what;
  EXPECT_EQ(ref.data_bytes, got.data_bytes) << what;
  EXPECT_EQ(ref.control_frames, got.control_frames) << what;
  EXPECT_EQ(ref.deadlocked, got.deadlocked) << what;
  EXPECT_EQ(ref.detected_at, got.detected_at) << what;
  EXPECT_EQ(ref.summary.flows_completed, got.summary.flows_completed) << what;
  EXPECT_EQ(ref.summary.flows_started, got.summary.flows_started) << what;
  EXPECT_EQ(bits(ref.summary.per_host_gbps), bits(got.summary.per_host_gbps))
      << what;
  EXPECT_EQ(bits(ref.summary.mean_slowdown), bits(got.summary.mean_slowdown))
      << what;
  EXPECT_EQ(ref.summary.lossless_violations, got.summary.lossless_violations)
      << what;
  EXPECT_EQ(ref.trace_csv, got.trace_csv) << what;
  EXPECT_EQ(ref.chrome_json, got.chrome_json) << what;
  EXPECT_EQ(ref.flight_dump, got.flight_dump) << what;
}

TEST(ParDeterminism, RingTraceBytesIdenticalAcrossShardCounts) {
  const Capture ref = run_ring_traced(1);
  EXPECT_FALSE(ref.engine_attached);
  EXPECT_FALSE(ref.trace_csv.empty());
  for (int shards : {2, 3, 4}) {
    const Capture got = run_ring_traced(shards);
    expect_identical(ref, got, "shards=" + std::to_string(shards));
  }
}

TEST(ParDeterminism, PfcRingDeadlockVerdictIdenticalAcrossShardCounts) {
  const Capture ref = run_pfc_ring(1);
  EXPECT_TRUE(ref.deadlocked);
  for (int shards : {2, 4}) {
    const Capture got = run_pfc_ring(shards);
    expect_identical(ref, got, "shards=" + std::to_string(shards));
  }
}

TEST(ParDeterminism, RandomFatTreeIdenticalAcrossShardCounts) {
  const Capture ref = run_random_fattree(1);
  EXPECT_GT(ref.summary.flows_completed, 0);
  for (int shards : {2, 3, 4}) {
    const Capture got = run_random_fattree(shards);
    EXPECT_TRUE(got.engine_attached) << shards;
    expect_identical(ref, got, "shards=" + std::to_string(shards));
  }
}

TEST(ParDeterminism, K8FatTreeIdenticalAcrossShardCounts) {
  const Capture ref = run_k8_fattree(1);
  EXPECT_GT(ref.summary.flows_completed, 0);
  for (int shards : {2, 4}) {
    const Capture got = run_k8_fattree(shards);
    EXPECT_TRUE(got.engine_attached) << shards;
    expect_identical(ref, got, "shards=" + std::to_string(shards));
  }
}

TEST(ParDeterminism, ResultsStoreBytesIdenticalAcrossShardCounts) {
  // A small campaign's serialized results store — the bytes journals and
  // --json files are built from — must not depend on the shard count.
  const auto run = [](int shards) {
    exp::Campaign campaign;
    campaign.name = "par_results_probe";
    for (int i = 0; i < 2; ++i) {
      exp::ParamSet p;
      p.set("trial", static_cast<std::int64_t>(i));
      campaign.add("ring" + std::to_string(i), p, [shards, i] {
        ScenarioConfig cfg;
        cfg.shards = shards;
        cfg.seed = static_cast<std::uint64_t>(1 + i);
        cfg.fc = FcSetup::derive(FcKind::kGfcBuffer, cfg.switch_buffer,
                                 cfg.link.rate, cfg.tau());
        RingScenario s = make_ring(cfg, /*n_switches=*/4, /*hops=*/2);
        s.fabric->net().run_until(ms(2));
        exp::TrialResult out;
        out.add("events", static_cast<std::int64_t>(
                              s.fabric->net().executed_events()));
        out.add("data_bytes", s.fabric->net().counters().data_bytes_delivered);
        return out;
      });
    }
    return exp::run_campaign(campaign).json(/*include_timing=*/false);
  };
  const std::string seq = run(1);
  const std::string par = run(4);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(seq, par);
}

TEST(ParDrainOrder, RepeatedParallelRunsAreByteIdentical) {
  // Thread-scheduling independence: the cross-shard mailbox drain and the
  // barrier merge must yield the same trace bytes on every repeat. Run
  // under ThreadSanitizer in CI, where any unsynchronized shared state in
  // the hand-off also trips the build.
  const Capture first = run_random_fattree(4);
  ASSERT_TRUE(first.engine_attached);
  for (int rep = 0; rep < 2; ++rep) {
    const Capture again = run_random_fattree(4);
    expect_identical(first, again, "rep=" + std::to_string(rep));
  }
}

// ---------------------------------------------------------------------------
// Shard-aware watchdog: a wedged single shard must still heartbeat and
// honor --trial-timeout cancellation even though the main scheduler (and
// its beacon timer) never advances past the stuck barrier window.
// ---------------------------------------------------------------------------

TEST(ParWatchdog, WedgedSingleShardStillHeartbeatsAndCancels) {
  exp::ProgressSink sink;
  exp::set_current_progress_sink(&sink);
  ScenarioConfig cfg;
  cfg.shards = 2;
  cfg.fc = FcSetup::derive(FcKind::kGfcBuffer, cfg.switch_buffer,
                           cfg.link.rate, cfg.tau());
  RingScenario s = make_ring(cfg, /*n_switches=*/4, /*hops=*/2);
  net::Network& net = s.fabric->net();
  ASSERT_NE(s.fabric->par_engine(), nullptr);

  // Wedge one shard: an event that reschedules itself at the same
  // timestamp forever, pinning that worker inside a single window while
  // every other scheduler blocks at the barrier. us(50) lands before the
  // first us(100) beacon, so any observed beat must come from the
  // engine-wide shard poll, not the main-scheduler timer.
  sim::Scheduler& wedged =
      net.node(static_cast<net::NodeId>(s.info.switches[0])).sched_ref();
  ASSERT_NE(&wedged, &net.sched());
  std::function<void()> spin = [&wedged, &spin] {
    wedged.schedule_at(wedged.now(), spin);
  };
  wedged.schedule_at(us(50), spin);

  std::thread canceller([&sink] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    sink.request_cancel();
  });
  EXPECT_THROW(net.run_until(ms(50)), exp::CancelledError);
  canceller.join();
  EXPECT_GT(sink.beats(), 0u);
  exp::set_current_progress_sink(nullptr);
}

}  // namespace
}  // namespace gfc::runner
